"""Hyperbolic volumes of simplices, polytopes, and membership regions.

Three routes never share code paths.  Closed forms are exact in 2D and
3D: the angle defect of an apex triangulation in the plane, and in space
the cone from the center over each facet cut into signed orthoschemes
whose volumes follow from the Lobachevsky function (Coxeter; Kellerhals,
"On the volume of hyperbolic polyhedra", Math. Ann. 285, 1989).
`preferred_method` picks the closed form where one exists and adaptive
quadrature above it.

The quadrature reduces every volume to cone integrals over the facets of
a body that has been recentered by an isometry.  For a facet F on a
hyperplane at Euclidean distance h from the origin,

    Vol(cone(0, F)) = h * integral_F  m_n(|q|) / |q|^n  dS(q),

where m_n(r) = integral_0^r s^(n-1)(1-s^2)^(-(n+1)/2) ds is the radial
mass.  The substitution s = tanh(t) makes m_n a sinh-power integral, so
the density singularity is absorbed exactly and only a bounded (if
steep) integrand over the facet remains.  That facet integral is done by
worst-first adaptive subdivision, which grades automatically into the
corners that near-boundary vertices make sharp.

Monte Carlo backends sample simplices uniformly (Dirichlet weights) and
regions by radius-exact importance sampling; both report sample standard
errors and are bitwise reproducible for a fixed seed regardless of the
worker count, because samples are drawn in fixed counter-indexed chunks
and reduced in chunk order.
"""

from __future__ import annotations

import heapq
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .klein import (
    BOUNDARY_TOL,
    as_coords,
    density_array,
    sinh_power_integral,
    translate_to_origin,
    unit_sphere_area,
)
from .hull import Polytope, Simplex, affine_rank, apex_triangulation
from .rng import substream

__all__ = [
    "VolumeEstimate",
    "Region",
    "simplex_volume",
    "polytope_volume",
    "preferred_method",
    "region_volume_mc",
    "triangle_area_2d",
    "klein_angle",
    "lobachevsky",
    "MC_CHUNK",
]

MC_CHUNK = 65536  # fixed chunk size; the parallel-reproducibility unit


@dataclass(frozen=True)
class VolumeEstimate:
    """A hyperbolic volume with its numerical pedigree."""

    value: float
    std_error: float
    evaluations: int
    method: str
    low_confidence: bool = False
    achieved_rel_tol: float | None = None

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError("value and std_error must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "evaluations": self.evaluations,
            "method": self.method,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class Region:
    """Membership-oracle region: predicate over (m, n) rows plus bounds."""

    membership: object
    bounding_radius: float
    dim: int

    def __post_init__(self):
        if not 0 < self.bounding_radius < 1:
            raise ValueError("bounding_radius must lie in (0, 1)")


# ---------------------------------------------------------------------------
# adaptive facet quadrature

# degree-2..3 rules in barycentric coordinates, one per intrinsic dimension
_T3A = 0.5854101966249685  # (5 + 3 sqrt 5)/20
_T3B = 0.1381966011250105  # (5 - sqrt 5)/20
_G1 = 0.21132486540518713  # Gauss-Legendre 2-point offset

_RULES = {
    1: (np.array([[1 - _G1, _G1], [_G1, 1 - _G1]]), np.array([0.5, 0.5])),
    2: (
        np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
    3: (
        np.array(
            [
                [_T3A, _T3B, _T3B, _T3B],
                [_T3B, _T3A, _T3B, _T3B],
                [_T3B, _T3B, _T3A, _T3B],
                [_T3B, _T3B, _T3B, _T3A],
            ]
        ),
        np.array([0.25, 0.25, 0.25, 0.25]),
    ),
}


def _child_matrices(d: int) -> np.ndarray:
    """(C, d+1, d+1) barycentric matrices: child verts = M @ parent verts."""
    def vert(spec, size):
        row = np.zeros(size)
        for i in spec:
            row[i] += 1.0 / len(spec)
        return row

    if d == 1:
        children = [[(0,), (0, 1)], [(0, 1), (1,)]]
    elif d == 2:
        children = [
            [(0,), (0, 1), (0, 2)],
            [(1,), (0, 1), (1, 2)],
            [(2,), (0, 2), (1, 2)],
            [(0, 1), (1, 2), (0, 2)],
        ]
    elif d == 3:
        children = [
            [(0,), (0, 1), (0, 2), (0, 3)],
            [(1,), (0, 1), (1, 2), (1, 3)],
            [(2,), (0, 2), (1, 2), (2, 3)],
            [(3,), (0, 3), (1, 3), (2, 3)],
            # central octahedron split along the (0,2)-(1,3) diagonal
            [(0, 1), (0, 2), (0, 3), (1, 3)],
            [(0, 1), (0, 2), (1, 2), (1, 3)],
            [(0, 2), (0, 3), (1, 3), (2, 3)],
            [(0, 2), (1, 2), (1, 3), (2, 3)],
        ]
    else:
        raise ValueError("subdivision implemented for facet dimensions 1..3")
    return np.array([[vert(s, d + 1) for s in child] for child in children])


_CHILDREN = {d: _child_matrices(d) for d in (1, 2, 3)}


def _measures(verts: np.ndarray) -> np.ndarray:
    """Euclidean d-measures of a (k, d+1, n) batch of simplices."""
    e = verts[:, 1:, :] - verts[:, :1, :]
    gram = np.einsum("kdn,ken->kde", e, e)
    det = np.linalg.det(gram)
    d = verts.shape[1] - 1
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(d)


def _rule_values(verts: np.ndarray, f) -> tuple[np.ndarray, int]:
    """Rule estimates for a (k, d+1, n) batch; returns (values (k,), evals)."""
    d = verts.shape[1] - 1
    pts_b, wts = _RULES[d]
    pts = np.einsum("qj,kjn->kqn", pts_b, verts)
    flat = pts.reshape(-1, verts.shape[2])
    fv = f(flat).reshape(verts.shape[0], -1)
    return _measures(verts) * (fv @ wts), flat.shape[0]


def _adaptive_simplex_quad(
    verts: np.ndarray, f, rel_tol: float, max_evals: int, wave: int = 64
):
    """Worst-first adaptive integration of f over one d-simplex in R^n.

    Error per cell is the difference between the cell's rule value and the
    sum over its 2^d children; cells with the largest error are refined
    first, in waves, until the summed error meets rel_tol or the budget
    runs out.  Returns (value, error_bound, evaluations).
    """
    d = verts.shape[0] - 1
    child_m = _CHILDREN[d]
    evals = 0

    def expand(batch: np.ndarray):
        """For (k, d+1, n) cells: their children and the children's values."""
        nonlocal evals
        kids = np.einsum("cij,kjn->kcin", child_m, batch)
        flat = kids.reshape(-1, kids.shape[2], kids.shape[3])
        vals, used = _rule_values(flat, f)
        evals += used
        return kids, vals.reshape(batch.shape[0], -1)

    root = verts[None, :, :]
    root_val, used = _rule_values(root, f)
    evals += used
    kids, kid_vals = expand(root)
    heap = []
    counter = 0
    # entry: (-err, counter, verts, fine, children verts, children values)
    fine = float(kid_vals[0].sum())
    err = abs(float(root_val[0]) - fine)
    heapq.heappush(heap, (-err, counter, verts, fine, kids[0], kid_vals[0]))
    counter += 1
    total = fine
    total_err = err

    while total_err > rel_tol * max(abs(total), 1e-300) and evals < max_evals:
        pop = []
        while heap and len(pop) < wave:
            pop.append(heapq.heappop(heap))
        batch_kids = np.concatenate([p[4] for p in pop], axis=0)
        gkids, gvals = expand(batch_kids)
        at = 0
        for negerr, _, _, cell_fine, ckids, cvals in pop:
            total -= cell_fine
            total_err += negerr  # negerr = -err of the popped cell
            for ci in range(ckids.shape[0]):
                child_fine = float(gvals[at].sum())
                child_err = abs(float(cvals[ci]) - child_fine)
                heapq.heappush(
                    heap,
                    (-child_err, counter, ckids[ci], child_fine,
                     gkids[at], gvals[at]),
                )
                counter += 1
                total += child_fine
                total_err += child_err
                at += 1
    return total, total_err, evals


def _radial_mass_ratio(n: int, r: np.ndarray) -> np.ndarray:
    """m_n(r)/r^n with the small-r limit 1/n handled by series."""
    r = np.asarray(r, dtype=float)
    r = np.minimum(r, 1.0 - BOUNDARY_TOL)
    out = np.empty_like(r)
    small = r < 1e-3
    if np.any(small):
        rs = r[small]
        out[small] = 1.0 / n + (n + 1) * rs * rs / (2.0 * (n + 2))
    big = ~small
    if np.any(big):
        rb = r[big]
        out[big] = sinh_power_integral(n - 1, np.arctanh(rb)) / rb ** n
    return out


def _facet_plane(fverts: np.ndarray) -> float:
    """Distance from the origin to the hyperplane through n points in R^n."""
    e = fverts[1:] - fverts[0]
    _, _, vh = np.linalg.svd(e)
    normal = vh[-1]
    return abs(float(normal @ fverts[0]))


def _cone_facet_integral(fverts: np.ndarray, rel_tol: float, max_evals: int):
    """Hyperbolic volume of the cone from the origin over one facet."""
    n = fverts.shape[1]
    h = _facet_plane(fverts)
    if h < 1e-14:
        return 0.0, 0.0, 0

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return _radial_mass_ratio(n, r)

    val, err, evals = _adaptive_simplex_quad(fverts, f, rel_tol, max_evals)
    return h * val, h * err, evals


# ---------------------------------------------------------------------------
# simplex and polytope volumes

_DEFAULT_REL_TOL = 1e-4
_DEFAULT_MC_SAMPLES = 1_000_000
_DEFAULT_QUAD_EVALS = 400_000


def _simplex_vertices(s) -> np.ndarray:
    v = s.vertices if isinstance(s, Simplex) else np.atleast_2d(
        np.asarray(s, dtype=float)
    )
    if np.any(np.linalg.norm(v, axis=1) >= 1.0 - BOUNDARY_TOL):
        raise ValueError("simplex vertices must lie strictly inside the ball")
    return v


def _simplex_mc(verts: np.ndarray, samples: int, seed: int) -> VolumeEstimate:
    k = verts.shape[0]
    vol_e = Simplex(verts).euclidean_volume()
    total = 0.0
    total_sq = 0.0
    drawn = 0
    chunk_id = 0
    while drawn < samples:
        m = min(MC_CHUNK, samples - drawn)
        rng = substream(seed, chunk_id)
        # Dirichlet(1,...,1) via normalized exponentials: uniform on the simplex
        e = rng.exponential(size=(m, k))
        bary = e / e.sum(axis=1, keepdims=True)
        pts = bary @ verts
        w = density_array(pts)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        drawn += m
        chunk_id += 1
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples)
    return VolumeEstimate(
        value=vol_e * mean,
        std_error=vol_e * se,
        evaluations=samples,
        method="monte_carlo",
    )


def preferred_method(n: int) -> str:
    """The volume route the experiments use in dimension n.

    The closed forms where they exist: exact_2d in the plane, exact_3d in
    space.  Adaptive quadrature from n = 4 on, which itself falls back to
    Monte Carlo for n >= 5.
    """
    return {2: "exact_2d", 3: "exact_3d"}.get(n, "quadrature")


def _quadrature(verts: np.ndarray, center, facets, per_facet: int) -> VolumeEstimate:
    """Sum of the facet cone integrals after moving `center` to the origin.

    Flags low_confidence when the summed error bound misses the requested
    relative tolerance, which happens when the budget runs out first.
    """
    mapped = translate_to_origin(center).apply_array(verts)
    total = 0.0
    total_err = 0.0
    evals = 0
    for facet in facets:
        v, e, used = _cone_facet_integral(
            mapped[list(facet)], _DEFAULT_REL_TOL, per_facet
        )
        total += v
        total_err += e
        evals += used
    achieved = total_err / max(abs(total), 1e-300)
    return VolumeEstimate(
        value=max(total, 0.0),
        std_error=0.0,
        evaluations=evals,
        method="quadrature",
        low_confidence=achieved > _DEFAULT_REL_TOL,
        achieved_rel_tol=achieved,
    )


def _exact_3d(verts: np.ndarray, center, facets) -> VolumeEstimate:
    """Closed-form volume from the facet cones at `center`, n = 3."""
    mapped = translate_to_origin(center).apply_array(verts)
    value = _orthoscheme_sum(mapped[np.asarray(facets)])
    return VolumeEstimate(max(value, 0.0), 0.0, 6 * len(facets), "exact_3d")


def _check_dim(method: str, n: int) -> None:
    want = {"exact_2d": 2, "exact_3d": 3}[method]
    if n != want:
        raise ValueError(f"{method} needs n = {want}")


def simplex_volume(
    s, method: str = "quadrature", budget=None, seed: int = 0
) -> VolumeEstimate:
    """Hyperbolic volume of a full-dimensional simplex.

    method "quadrature": recenter at the centroid by an isometry, then sum
    exact-radial cone integrals over the facets (adaptive; for n >= 5 this
    falls back to Monte Carlo, which is the documented behavior).  Returns
    std_error 0 and the achieved relative tolerance in metadata; if the
    evaluation budget is exhausted first the result is best-effort,
    achieved_rel_tol reports how far it got, and low_confidence is set.
    method "monte_carlo": uniform Dirichlet sampling, unbiased, std_error
    from the sample variance.
    method "exact_2d": angle-defect area, n = 2 only.
    method "exact_3d": orthoscheme decomposition, n = 3 only.
    """
    verts = _simplex_vertices(s)
    n = verts.shape[1]
    if verts.shape[0] != n + 1:
        raise ValueError("simplex must be full-dimensional (n+1 vertices)")
    facets = [tuple(i for i in range(n + 1) if i != drop) for drop in range(n + 1)]
    if method == "exact_2d":
        _check_dim(method, n)
        return VolumeEstimate(
            value=float(_angle_defects(verts[None])[0]), std_error=0.0,
            evaluations=3, method="exact_2d",
        )
    if method == "exact_3d":
        _check_dim(method, n)
        return _exact_3d(verts, verts.mean(axis=0), facets)
    if method == "monte_carlo":
        samples = int(budget) if budget else _DEFAULT_MC_SAMPLES
        return _simplex_mc(verts, samples, seed)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if n >= 5:
        samples = int(budget) if budget else _DEFAULT_MC_SAMPLES
        return _simplex_mc(verts, samples, seed)
    max_evals = int(budget) if budget else _DEFAULT_QUAD_EVALS
    per_facet = max(max_evals // (n + 1), 1000)
    return _quadrature(verts, verts.mean(axis=0), facets, per_facet)


def polytope_volume(
    poly: Polytope, method: str = "quadrature", budget=None, seed: int = 0
) -> VolumeEstimate:
    """Hyperbolic volume of a polytope.

    The closed forms and the quadrature work from the interior point:
    exact_2d sums the angle defects of the triangles it fans out to the
    edges, exact_3d and quadrature recenter the polytope there by an
    isometry and sum the facet cones.  Monte Carlo triangulates from the
    interior point and adds per-simplex estimates with errors in
    quadrature.  A degenerate (lower-dimensional) vertex set yields the
    volume-0 result.
    """
    if affine_rank(poly.vertices) < poly.dim:
        return VolumeEstimate(0.0, 0.0, 0, method)
    n = poly.dim
    if method == "exact_2d":
        _check_dim(method, n)
        edges = poly.vertices[np.asarray(poly.facets)]
        apex = np.broadcast_to(poly.interior_point(), (len(edges), 1, 2))
        fan = np.concatenate([apex, edges], axis=1)
        return VolumeEstimate(
            float(_angle_defects(fan).sum()), 0.0, 3 * len(edges), "exact_2d"
        )
    if method == "exact_3d":
        _check_dim(method, n)
        return _exact_3d(poly.vertices, poly.interior_point(), poly.facets)
    if method == "monte_carlo":
        samples = int(budget) if budget else _DEFAULT_MC_SAMPLES
        simplices = apex_triangulation(poly, poly.interior_point())
        share = max(samples // len(simplices), 1000)
        value = 0.0
        var = 0.0
        evals = 0
        for i, spx in enumerate(simplices):
            est = _simplex_mc(spx.vertices, share, seed + i)
            value += est.value
            var += est.std_error ** 2
            evals += est.evaluations
        return VolumeEstimate(value, math.sqrt(var), evals, "monte_carlo")
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if n >= 5:
        return polytope_volume(poly, "monte_carlo", budget, seed)
    max_evals = int(budget) if budget else _DEFAULT_QUAD_EVALS * max(
        1, len(poly.facets) // 4
    )
    per_facet = max(max_evals // len(poly.facets), 2000)
    return _quadrature(poly.vertices, poly.interior_point(), poly.facets, per_facet)


# ---------------------------------------------------------------------------
# region Monte Carlo

def _radial_sampler(n: int, big_r: float):
    """Inverse-CDF table for hyperbolic-radial sampling up to radius big_r.

    The inverse is piecewise linear, and the exact density of the sampled
    radius is therefore known per segment; reweighting by the true
    sinh^(n-1) density keeps the estimator unbiased despite the table.
    """
    w_max = math.atanh(big_r)
    xs = np.linspace(0.0, w_max, 4097)
    cdf = np.asarray(sinh_power_integral(n - 1, xs), dtype=float)
    total = float(cdf[-1])
    seg_dx = np.diff(xs)
    seg_df = np.maximum(np.diff(cdf), 1e-300)

    def draw(rng, m):
        u = rng.uniform(size=m) * total
        k = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(seg_dx) - 1)
        w = xs[k] + (u - cdf[k]) * seg_dx[k] / seg_df[k]
        pdf = seg_df[k] / seg_dx[k] / total
        weight = unit_sphere_area(n - 1) * np.sinh(w) ** (n - 1) / np.maximum(pdf, 1e-300)
        return w, weight

    return draw, total * unit_sphere_area(n - 1)


def region_volume_mc(
    region: Region, samples: int = _DEFAULT_MC_SAMPLES, seed: int = 0,
    workers: int = 1,
) -> VolumeEstimate:
    """Monte Carlo hyperbolic volume of a membership region.

    For bounding radii up to 0.99: Euclidean-uniform proposals in the
    bounding ball weighted by the density.  Beyond that the density is too
    singular and proposals switch to hyperbolic-radial sampling (uniform
    in hyperbolic measure up to table reweighting), whose per-sample
    contribution is bounded.  Zero hits return value 0 with a rule-of-three
    standard error and the low_confidence flag.  The estimate is identical
    for any `workers` value: chunk c always uses substream (seed, c) and
    chunks are reduced in index order.
    """
    n = region.dim
    big_r = region.bounding_radius
    near_boundary = big_r > 0.99
    if near_boundary:
        draw, vol_total = _radial_sampler(n, big_r)
    else:
        vol_e = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * big_r ** n
        vol_total = unit_sphere_area(n - 1) * float(
            sinh_power_integral(n - 1, math.atanh(big_r))
        )

    def run_chunk(c: int):
        start = c * MC_CHUNK
        m = min(MC_CHUNK, samples - start)
        rng = substream(seed, c)
        dirs = rng.standard_normal((m, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if near_boundary:
            w, weight = draw(rng, m)
            pts = np.tanh(w)[:, None] * dirs
            contrib = weight
        else:
            r = big_r * rng.uniform(size=m) ** (1.0 / n)
            pts = r[:, None] * dirs
            contrib = vol_e * density_array(pts)
        mask = np.asarray(region.membership(pts), dtype=bool)
        c_vals = np.where(mask, contrib, 0.0)
        return float(c_vals.sum()), float((c_vals * c_vals).sum()), int(mask.sum())

    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    else:
        parts = [run_chunk(c) for c in range(n_chunks)]
    total = 0.0
    total_sq = 0.0
    hits = 0
    for s1, s2, h in parts:  # fixed chunk order: bitwise reproducible
        total += s1
        total_sq += s2
        hits += h
    if hits == 0:
        return VolumeEstimate(
            value=0.0, std_error=vol_total * 3.0 / samples,
            evaluations=samples, method="monte_carlo", low_confidence=True,
        )
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return VolumeEstimate(
        value=mean,
        std_error=math.sqrt(var / samples),
        evaluations=samples,
        method="monte_carlo",
    )


# ---------------------------------------------------------------------------
# closed forms: 2D angle defect, 3D orthoschemes

def klein_angle(p, q, r) -> float:
    """Riemannian angle at p between the geodesics toward q and r (n = 2+).

    The metric tensor at p is g = I/(1-|p|^2) + p p^T/(1-|p|^2)^2; chords
    are geodesics, so the chord directions are the geodesic directions.
    """
    pc, qc, rc = as_coords(p), as_coords(q), as_coords(r)
    u = qc - pc
    v = rc - pc
    s = 1.0 - float(pc @ pc)
    if s <= 0:
        return 0.0

    def g(a, b):
        return float(a @ b) / s + float(pc @ a) * float(pc @ b) / (s * s)

    denom = math.sqrt(g(u, u) * g(v, v))
    if denom == 0.0:
        raise ValueError("angle undefined for coincident vertices")
    return math.acos(min(1.0, max(-1.0, g(u, v) / denom)))


def _angle_defects(tri: np.ndarray) -> np.ndarray:
    """Hyperbolic areas of a (k, 3, 2) batch of triangles: pi - angle sum.

    At a vertex p with chords u, v toward the other two, the metric tensor
    g = I/s + p p^T/s^2, s = 1 - |p|^2, gives s^2 g(u, v) = s u.v +
    (p.u)(p.v), and in the plane s^4 (g(u,u) g(v,v) - g(u,v)^2) =
    s (u x v)^2, so the angle is an arctan2 free of cancellation.  Vertices
    within BOUNDARY_TOL of the sphere are ideal and contribute angle 0;
    collinear triangles have area 0.
    """
    u = np.roll(tri, -1, axis=1) - tri
    v = np.roll(tri, 1, axis=1) - tri
    norm2 = np.einsum("kij,kij->ki", tri, tri)
    s = 1.0 - norm2
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    cos_part = s * np.einsum("kij,kij->ki", u, v) + (
        np.einsum("kij,kij->ki", tri, u) * np.einsum("kij,kij->ki", tri, v)
    )
    sin_part = np.sqrt(np.maximum(s, 0.0)) * np.abs(cross)
    finite = norm2 < (1.0 - BOUNDARY_TOL) ** 2
    angles = np.where(finite, np.arctan2(sin_part, cos_part), 0.0)
    area = np.maximum(np.pi - angles.sum(axis=1), 0.0)
    # cross[:, 0] is (b - a) x (c - a) for the triangle (a, b, c)
    scale = np.maximum(np.linalg.norm(u[:, 0], axis=1),
                       np.linalg.norm(v[:, 0], axis=1))
    flat = np.abs(cross[:, 0]) <= 1e-14 * np.maximum(scale * scale, 1e-300)
    return np.where(flat, 0.0, area)


def triangle_area_2d(a, b, c) -> float:
    """Exact hyperbolic area of a 2D triangle: pi minus the angle sum.

    Ideal vertices (IdealPoint, or norm within 1e-12 of the sphere)
    contribute angle zero.  Collinear vertices give area 0.
    """
    coords = [as_coords(x) for x in (a, b, c)]
    if any(v.size != 2 for v in coords):
        raise ValueError("triangle_area_2d needs n = 2")
    pa, pb, pc_ = coords
    if np.array_equal(pa, pb) or np.array_equal(pb, pc_) or np.array_equal(pa, pc_):
        raise ValueError("triangle vertices must be distinct")
    return float(_angle_defects(np.array(coords)[None])[0])


# Clausen series coefficients |B_2k| / (2k (2k+1) (2k)!), written as
# 2 zeta(2k) / ((2 pi)^2k 2k (2k+1)) to avoid huge factorials, highest
# first for Horner's rule.  At |theta| <= pi each term is at most a
# quarter of the one before, so 30 terms reach roundoff.
_K = np.arange(30, 0, -1)
_CLAUSEN = 2.0 * special.zeta(2.0 * _K) / (
    (2.0 * np.pi) ** (2 * _K) * (2 * _K) * (2 * _K + 1)
)


def lobachevsky(x):
    """Lobachevsky function L(x) = -integral_0^x log|2 sin t| dt, vectorized.

    L(x) = Cl_2(2x)/2, and the Clausen function is summed from its series
    Cl_2(theta) = theta - theta log|theta|
                  + sum_k |B_2k| theta^(2k+1) / (2k (2k+1) (2k)!)
    after reducing theta to [-pi, pi] by its period 2 pi.
    """
    theta = 2.0 * np.asarray(x, dtype=float)
    theta = theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    t2 = theta * theta
    series = np.zeros_like(theta)
    for c in _CLAUSEN:
        series = series * t2 + c
    mag = np.abs(theta)
    log = np.log(np.where(mag > 0.0, mag, 1.0))
    return 0.5 * theta * (1.0 - log + t2 * series)


def _orthoscheme_volume(h, a, b):
    """Volume of the orthoscheme (O, H, E, V) from its Euclidean legs.

    O is the origin, OH (length h) is normal to the plane HEV, and HE
    (length a) is perpendicular to EV (length b).  The essential angles
    are alpha1 at edge EV, the hyperbolic angle OEH, whose cosine the
    metric tensor at E gives as a / sqrt((a^2 + h^2)(1 - h^2)); alpha2 at
    edge OV and alpha3 at edge OH, Euclidean because those edges pass
    through the origin.  With them tan(delta) reduces to h b / a, and
    Kellerhals' formula gives the volume.  Written with arctan2, the
    result is odd in each of h, a and b, which signs the orthoschemes of
    a decomposition.
    """
    alpha1 = np.arctan2(h * np.sqrt(np.maximum(1.0 - a * a - h * h, 0.0)), a)
    alpha2 = np.arctan2(a * np.sqrt(h * h + a * a + b * b), h * b)
    alpha3 = np.arctan2(b, a)
    delta = np.arctan2(h * b, a)
    beta = 0.5 * np.pi - alpha2
    lob = lobachevsky(np.stack([
        alpha1 + delta, alpha1 - delta, alpha3 + delta, alpha3 - delta,
        beta + delta, beta - delta, 0.5 * np.pi - delta,
    ]))
    return 0.25 * (lob[0] - lob[1] + lob[2] - lob[3] - lob[4] + lob[5]
                   + 2.0 * lob[6])


def _orthoscheme_sum(tri: np.ndarray) -> float:
    """Volume of the cones from the origin over a (f, 3, 3) batch of facets.

    Let H be the foot of the origin O on a facet plane and E the foot of H
    on the line of an edge PQ.  OH is the hyperbolic perpendicular too,
    because O is the center, and so is HE within the plane, whose section
    of the ball is a Klein disc centered at H.  The cone over the triangle
    HPQ is then orth(O, H, E, Q) - orth(O, H, E, P), with legs signed by
    the side of PQ that H lies on and the side of E that each end lies
    on; the three edges of a facet sum to its cone.  The leg HE is signed
    against the facet's own normal and OH is taken positive, so the sum
    does not depend on the order of a facet's vertices.
    """
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    offset = np.einsum("fi,fi->f", normal, tri[:, 0])
    foot = offset[:, None] * normal
    p = tri
    q = np.roll(tri, -1, axis=1)
    d = q - p
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    t = np.einsum("fki,fki->fk", foot[:, None, :] - p, d)  # E = P + t d
    e = p + t[..., None] * d
    a = np.einsum("fi,fki->fk", normal, np.cross(e - foot[:, None, :], d))
    b_q = np.einsum("fki,fki->fk", q - e, d)
    h = np.broadcast_to(np.abs(offset)[:, None], a.shape)
    return float(np.sum(_orthoscheme_volume(h, a, b_q)
                        - _orthoscheme_volume(h, a, -t)))
