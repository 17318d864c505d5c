"""Hyperbolic volumes of simplices, polytopes, and membership regions.

Three routes never share code paths.  Closed forms are exact in 2D and
3D: the angle defect of an apex triangulation in the plane, and in space
the cone from the center over each facet cut into signed orthoschemes
whose volumes follow from the Lobachevsky function (Coxeter; Kellerhals,
"On the volume of hyperbolic polyhedra", Math. Ann. 285, 1989).
`preferred_method` picks the closed form where one exists, adaptive
quadrature at n = 4 and Monte Carlo from n = 5 on, where quadrature
stops.

The quadrature reduces every volume to cone integrals over the facets of
a body that has been recentered by an isometry.  For a facet F on a
hyperplane at Euclidean distance h from the origin,

    Vol(cone(0, F)) = h * integral_F  m_n(|q|) / |q|^n  dS(q),

where m_n(r) = integral_0^r s^(n-1)(1-s^2)^(-(n+1)/2) ds is the radial
mass.  For n = 2, 3, 4 it is elementary in x = |q|^2, and m_n(r)/r^n is
evaluated in closed form (by its Taylor series near the center at
n = 3), so the density singularity is absorbed exactly and only a
bounded (if steep) integrand over the facet remains.  The facet
integrals are done together by worst-first adaptive subdivision: one
worklist holds the cells of every facet and refines the worst of them
first, under one budget that counts the evaluations of the whole call.
Each wave makes its cells' children with one precomposed map and all
the rule points of their children with another.  The refinement grades
automatically into the corners that near-boundary vertices make sharp,
on whichever facets they lie.

Monte Carlo backends sample simplices uniformly (one Dirichlet draw,
`_dirichlet_draw`) and regions by radius-exact importance sampling; both
report sample standard errors.  All of them, and the sampled checks in
`cones` and `experiments`, reduce through `rng._chunk_sums`, so they are
bitwise reproducible for a fixed seed regardless of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .klein import (
    BOUNDARY_TOL,
    _check_dimension,
    _check_points,
    _radial_table,
    _row_sum,
    _row_sumsq,
    _uniform_directions,
    as_coords,
    density_array,
    translation_to,
    unit_sphere_area,
)
from .hull import Polytope, Simplex, affine_rank, apex_triangulation
from .rng import _chunk_sums, _mean_se

__all__ = [
    "VolumeEstimate",
    "Region",
    "simplex_volume",
    "polytope_volume",
    "preferred_method",
    "region_volume_mc",
    "triangle_area_2d",
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
        # NaN fails every comparison, so `not >=` rejects it too
        if not (self.value >= 0 and self.std_error >= 0):
            raise ValueError("value and std_error must be nonnegative")

    def to_json_dict(self) -> dict:
        tol = self.achieved_rel_tol
        return {
            "value": self.value,
            "std_error": self.std_error,
            "evaluations": self.evaluations,
            "method": self.method,
            "low_confidence": bool(self.low_confidence),
            "achieved_rel_tol": None if tol is None else float(tol),
        }


@dataclass(frozen=True)
class Region:
    """Membership-oracle region: predicate over (m, n) rows plus bounds."""

    membership: object
    bounding_radius: float
    dim: int

    def __post_init__(self):
        _check_dimension(self.dim)
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
# A wave's two maps, stacked over the C children: _KIDS[d] @ cells gives
# the children's vertices, _KID_POINTS[d] @ cells the q rule points of
# each child, within a few ulp of composing the two products.
_KIDS = {d: m.reshape(-1, d + 1) for d, m in _CHILDREN.items()}
_KID_POINTS = {d: (_RULES[d][0] @ m).reshape(-1, d + 1)
               for d, m in _CHILDREN.items()}

# A cell's error is the gap between its rule value and its children's
# sum, times this factor.  The gap measures the error of the coarser of the
# two, and understates the finer one's where cells converge slowly.  Near
# an ideal vertex the integrand over a d-dimensional facet grows like
# |x|^(-d/2), so a corner cell's error shrinks only by rho = 2^(-d/2) per
# subdivision and the gap understates it by rho/(1 - rho), 2.41 on edges.
# On coarse meshes of near-ideal and clustered hulls (budgets 2k to 200k,
# against exact_2d, exact_3d and 4M-evaluation runs) the true error reached
# 2.0, 2.3 and 1.6 times the gap for n = 2, 3, 4.
_ERR_SAFETY = 4.0


def _measures(verts: np.ndarray) -> np.ndarray:
    """Euclidean d-measures of a (k, d+1, n) batch of simplices."""
    e = verts[:, 1:, :] - verts[:, :1, :]
    gram = np.einsum("kdn,ken->kde", e, e)
    det = np.linalg.det(gram)
    d = verts.shape[1] - 1
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(d)


def _children(cells: np.ndarray) -> np.ndarray:
    """The (k C, d+1, n) subcells of a (k, d+1, n) batch, each 1/C of it.

    The C children of each cell follow one another.  One product with the
    stacked child matrix makes them all, exactly: every weight is 0, 1/2
    or 1.
    """
    shape = cells.shape[1:]
    return (_KIDS[shape[0] - 1] @ cells).reshape((-1,) + shape)


def _rule(cells: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rule means of m_n(|q|)/|q|^n at the points `points @ cells`.

    `points` stacks the q barycentric rule points of each cell it reaches:
    _RULES[d][0] for the (k, d+1, n) cells themselves gives a (k, 1)
    result, _KID_POINTS[d] for their C children a (k, C) one.
    """
    wts = _RULES[cells.shape[-2] - 1][1]
    x = _row_sumsq(points @ cells)
    ratio = _radial_mass_ratio(cells.shape[-1], x)
    return (ratio.reshape(-1, len(wts)) @ wts).reshape(len(cells), -1)


# m_3(r)/r^3 = sum_(k >= 1) k/(2k + 1) x^(k-1), highest first for Horner's
# rule, below x = r^2 = 0.09, where the closed form's two terms cancel by
# more than 16x; at the switch the first omitted term, k = 19, is about
# 2e-19 of the sum.
# Against 60-digit references the worst relative error was 9.3e-15 with
# the switch at x = 0.04 and is 4.3e-15 with this one.
_M3_SWITCH = 0.09
_M3_SERIES = np.arange(18, 0, -1) / (2.0 * np.arange(18, 0, -1) + 1.0)


def _radial_mass_ratio(n: int, x: np.ndarray) -> np.ndarray:
    """m_n(r)/r^n from x = r^2, in closed form for n = 2, 3, 4.

    With s = sqrt(1 - x), cosh(atanh r) = c = 1/s, and c - 1 = x / t for
    t = s (1 + s), free of cancellation.  So m_2 = c - 1 gives 1/t, and
    m_4 = (c - 1)^2 (c + 2)/3 gives (1/s + 2) / (3 t^2).  At n = 3,
    m_3 = (r/s^2 - atanh r)/2, which the series above replaces near the
    center.  x is clamped at (1 - BOUNDARY_TOL)^2; the ratio is finite at
    x = 0.  Other n raise ValueError.
    """
    x = np.minimum(np.asarray(x, dtype=float), (1.0 - BOUNDARY_TOL) ** 2)
    if n == 3:
        r = np.sqrt(x)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at x = 0
            out = (r / (1.0 - x) - np.arctanh(r)) / (2.0 * r * x)
        small = x < _M3_SWITCH
        if small.any():
            xs = x[small]
            series = np.zeros_like(xs)
            for c in _M3_SERIES:
                series = series * xs + c
            out[small] = series
        return out
    s = np.sqrt(1.0 - x)
    t = s * (1.0 + s)
    if n == 2:
        return 1.0 / t
    if n == 4:
        return (1.0 / s + 2.0) / (3.0 * t * t)
    raise ValueError(f"the radial mass ratio is closed for n = 2, 3, 4, not {n}")


# ---------------------------------------------------------------------------
# simplex and polytope volumes

_DEFAULT_REL_TOL = 1e-4  # flag low_confidence past this stated relative error
_MC_REL_SE = 0.05  # and past this Monte Carlo relative standard error
# Rounding bound of exact_3d per unit of Lobachevsky-term magnitude.  On
# random tetrahedra at scales 1e-4 to 0.5, the error against a 40-digit
# evaluation of the same orthoscheme terms stayed under 0.35 eps times
# the summed magnitude.
_EXACT_3D_ROUNDING = 4.0 * np.finfo(float).eps
_DEFAULT_MC_SAMPLES = 1_000_000
_DEFAULT_QUAD_EVALS = 400_000
_WAVE = 64  # cells refined per quadrature wave


def _budget(budget, default: int) -> int:
    """The evaluation count of a call: `default` for None, else at least 1."""
    if budget is None:
        return default
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    return int(budget)


def _stated(value: float, rel: float, evaluations: int, method: str,
            std_error: float = 0.0) -> VolumeEstimate:
    """An estimate that states its relative error, flagged past 1e-4."""
    return VolumeEstimate(value, std_error, evaluations, method,
                          low_confidence=bool(rel > _DEFAULT_REL_TOL),
                          achieved_rel_tol=float(rel))


def _sampled(mean: float, se: float, samples: int) -> VolumeEstimate:
    """A Monte Carlo estimate, flagged past 5 % relative SE (zero mean too)."""
    return VolumeEstimate(mean, se, samples, "monte_carlo",
                          low_confidence=not se <= _MC_REL_SE * mean)


def _dirichlet_draw(rng, verts: np.ndarray, m: int):
    """m points uniform on the simplex `verts`, with their densities.

    Dirichlet(1,...,1) weights via normalized exponentials.
    """
    e = rng.exponential(size=(m, verts.shape[0]))
    pts = (e / _row_sum(e)[:, None]) @ verts
    return pts, density_array(pts)


def _simplex_mc(verts: np.ndarray, samples: int, seed: int) -> VolumeEstimate:
    vol_e = Simplex(verts).euclidean_volume()

    def stats(rng, m):
        _, w = _dirichlet_draw(rng, verts, m)
        return np.array([w.sum(), (w * w).sum()])

    total, total_sq = _chunk_sums(seed, samples, MC_CHUNK, stats).tolist()
    mean, se = _mean_se(total, total_sq, samples)
    return _sampled(vol_e * mean, vol_e * se, samples)


def preferred_method(n: int) -> str:
    """The volume route the experiments use in dimension n.

    The closed forms where they exist: exact_2d in the plane, exact_3d in
    space.  Adaptive quadrature at n = 4, Monte Carlo from n = 5 on.
    """
    return {2: "exact_2d", 3: "exact_3d", 4: "quadrature"}.get(n, "monte_carlo")


def _quadrature(verts: np.ndarray, center, facets, budget: int) -> VolumeEstimate:
    """Sum of the facet cone integrals after moving `center` to the origin.

    One worklist holds the cells of every facet, each weighted by its
    measure times its facet's plane distance h, so that cells of different
    facets compare directly.  A cell's error is _ERR_SAFETY times the gap
    between its rule value and the sum of its C children's.  Each wave
    refines the worst _WAVE cells of all facets at C^2 q evaluations
    apiece (8, 48 and 256 for n = 2, 3, 4), until the summed error meets
    the relative tolerance or the next cell would overrun `budget`.  Only
    the first pass, the root and children of each facet at q (1 + C)
    evaluations, may exceed the budget.  Flags low_confidence when the
    tolerance is missed.
    """
    mapped = translation_to(-center).apply_array(verts)
    cells = mapped[np.asarray(facets)]  # (F, n, n): simplicial facets
    _, _, vh = np.linalg.svd(cells[:, 1:] - cells[:, :1])
    h = np.abs(np.einsum("fn,fn->f", vh[:, -1], cells[:, 0]))
    far = h >= 1e-14  # facets through the center add nothing
    cells = cells[far]
    d = cells.shape[2] - 1
    kid_points = _KID_POINTS[d]
    n_kids, q = len(_CHILDREN[d]), len(_RULES[d][1])
    weight = h[far] * _measures(cells)
    kid_vals = (weight / n_kids)[:, None] * _rule(cells, kid_points)
    err = _ERR_SAFETY * np.abs(weight * _rule(cells, _RULES[d][0])[:, 0]
                               - kid_vals.sum(axis=1))
    size = len(cells)
    evals = q * (1 + n_kids) * size
    cost = n_kids * n_kids * q
    while err[:size].sum() > _DEFAULT_REL_TOL * abs(kid_vals[:size].sum()):
        k = min(_WAVE, size, (budget - evals) // cost)
        if k < 1:
            break
        worst = np.argpartition(err[:size], size - k)[size - k:]
        new = _children(cells[worst])
        new_w = np.repeat(weight[worst] / n_kids, n_kids)
        new_kids = (new_w / n_kids)[:, None] * _rule(new, kid_points)
        new_err = _ERR_SAFETY * np.abs(kid_vals[worst].ravel()
                                       - new_kids.sum(axis=1))
        # the first child of each cell takes its slot, the rest go on the end
        grow = k * (n_kids - 1)
        if size + grow > len(err):
            cap = 2 * (size + grow)
            cells, weight, kid_vals, err = (
                np.concatenate([a, np.empty((cap - len(a),) + a.shape[1:])])
                for a in (cells, weight, kid_vals, err))
        slots = np.column_stack(
            [worst, size + np.arange(grow).reshape(k, n_kids - 1)]).ravel()
        cells[slots], weight[slots] = new, new_w
        kid_vals[slots], err[slots] = new_kids, new_err
        size += grow
        evals += k * cost
    total = float(kid_vals[:size].sum())
    achieved = float(err[:size].sum()) / max(abs(total), 1e-300)
    return _stated(max(total, 0.0), achieved, evals, "quadrature")


def _exact_3d(verts: np.ndarray, center, facets) -> VolumeEstimate:
    """Closed-form volume from the facet cones at `center`, n = 3.

    The Lobachevsky terms are O(1) each and cancel down to the volume, so
    the rounding error is about machine epsilon times their summed
    magnitude.  achieved_rel_tol is that bound (with a safety factor)
    over the value; small bodies, where the cancellation is deep, get
    low_confidence past the 1e-4 that quadrature is held to.
    """
    mapped = translation_to(-center).apply_array(verts)
    value, magnitude = _orthoscheme_sum(mapped[np.asarray(facets)])
    value = max(value, 0.0)
    achieved = _EXACT_3D_ROUNDING * magnitude / max(value, 1e-300)
    return _stated(value, achieved, 6 * len(facets), "exact_3d")


def _volume(verts: np.ndarray, center, facets, pieces, method: str, budget,
            seed: int) -> VolumeEstimate:
    """Check method, dimension and budget, short-cut a flat body to 0, run.

    `pieces()` gives the (k, n+1, n) simplices that exact_2d sums and
    Monte Carlo samples: the simplex itself, or a polytope's apex fan.
    """
    n = verts.shape[1]
    exact_n = {"exact_2d": 2, "exact_3d": 3}.get(method)
    if exact_n is not None and n != exact_n:
        raise ValueError(f"{method} needs n = {exact_n}")
    if method == "quadrature":
        if n - 1 not in _CHILDREN:
            raise ValueError("quadrature needs n <= 4 (facet subdivision "
                             "rules exist up to dimension 3); use monte_carlo")
        budget = _budget(budget, _DEFAULT_QUAD_EVALS)
    elif method == "monte_carlo":
        budget = _budget(budget, _DEFAULT_MC_SAMPLES)
    elif exact_n is None:
        raise ValueError(f"unknown method {method!r}")
    if affine_rank(verts) < n:
        return VolumeEstimate(0.0, 0.0, 0, method)
    if method == "exact_2d":
        areas, bound = _angle_defects(pieces())
        value = float(areas.sum())
        return _stated(value, bound / max(value, 1e-300), 3 * len(areas), method)
    if method == "exact_3d":
        return _exact_3d(verts, center, facets)
    if method == "quadrature":
        return _quadrature(verts, center, facets, budget)
    simplices = pieces()
    if budget < len(simplices):
        raise ValueError(f"budget {budget} is below one sample for each "
                         f"of {len(simplices)} simplices")
    share = budget // len(simplices)
    value, var = 0.0, 0.0
    for i, spx in enumerate(simplices):
        est = _simplex_mc(spx, share, seed + i)
        value += est.value
        var += est.std_error ** 2
    return _sampled(value, math.sqrt(var), share * len(simplices))


def simplex_volume(
    s, method: str = "quadrature", budget=None, seed: int = 0
) -> VolumeEstimate:
    """Hyperbolic volume of a full-dimensional simplex.

    method "quadrature": recenter at the centroid by an isometry, then sum
    exact-radial cone integrals over the facets, refining the worst cells
    of all facets first (n <= 4 only; from n = 5 on it raises ValueError,
    and `preferred_method` picks Monte Carlo there).  `budget` is the
    total number of integrand evaluations (default 400 000); only the
    first pass, a few per facet, may exceed it.  Returns std_error 0 and
    the achieved relative tolerance in metadata; if the budget is
    exhausted first the result is best-effort, achieved_rel_tol reports
    how far it got, and low_confidence is set.
    method "monte_carlo": uniform Dirichlet sampling, unbiased, std_error
    from the sample variance; `budget` is the sample count (default
    1 000 000).
    method "exact_2d": angle-defect area and rounding bound, n = 2 only.
    method "exact_3d": orthoscheme decomposition, n = 3 only.
    The exact routes ignore `budget`; the others raise ValueError for a
    budget below 1, and read None as the default.  A flat simplex has the
    volume-0 result of a flat polytope (see `polytope_volume`).
    """
    verts = s.vertices if isinstance(s, Simplex) else np.atleast_2d(
        np.asarray(s, dtype=float)
    )
    _check_points(verts)
    n = verts.shape[1]
    if verts.shape[0] != n + 1:
        raise ValueError("simplex must be full-dimensional (n+1 vertices)")
    facets = [tuple(i for i in range(n + 1) if i != drop) for drop in range(n + 1)]
    return _volume(verts, verts.mean(axis=0), facets, lambda: verts[None],
                   method, budget, seed)


def polytope_volume(
    poly: Polytope, method: str = "quadrature", budget=None, seed: int = 0
) -> VolumeEstimate:
    """Hyperbolic volume of a polytope.

    The closed forms and the quadrature work from the interior point:
    exact_2d sums the angle defects of the triangles it fans out to the
    edges, exact_3d and quadrature recenter the polytope there by an
    isometry and sum the facet cones (quadrature for n <= 4 only, as in
    `simplex_volume`, with the cells of all facets refined worst-first
    together).  Monte Carlo triangulates from the interior point and adds
    per-simplex estimates with errors in quadrature.  `budget` is the
    total evaluation count of the call, as in `simplex_volume`: 400 000
    quadrature evaluations or 1 000 000 samples by default, ValueError
    below 1.  Monte Carlo gives each of the k simplices budget // k
    samples and raises ValueError for a budget below k.  A degenerate
    (lower-dimensional) vertex set yields the volume-0 result, once the
    method, the dimension and the budget have passed these checks.
    """
    center = poly.interior_point()
    return _volume(poly.vertices, center, poly.facets,
                   lambda: apex_triangulation(poly, center), method, budget,
                   seed)


# ---------------------------------------------------------------------------
# region Monte Carlo

def region_volume_mc(
    region: Region, samples: int = _DEFAULT_MC_SAMPLES, seed: int = 0,
    workers: int = 1,
) -> VolumeEstimate:
    """Monte Carlo hyperbolic volume of a membership region.

    Proposals are uniform in direction and hyperbolic-radial up to the
    bounding radius: the radius is drawn by inverting `klein._radial_table`
    piecewise linearly, so the density of the drawn radius is known on each
    segment, and reweighting by the true sinh^(n-1) density keeps the
    estimator unbiased despite the table.  Each contribution is bounded,
    however close to the boundary sphere the bounding radius lies.  Zero
    hits return value 0 with a rule-of-three standard error.  As every
    Monte Carlo estimate, it is low_confidence past a 5 % relative SE.  It
    is identical for any `workers` value (see `rng._chunk_sums`).
    """
    n = region.dim
    area = unit_sphere_area(n - 1)
    xs, cdf = _radial_table(n, math.atanh(region.bounding_radius))
    total = float(cdf[-1])
    seg_dx = np.diff(xs)
    seg_df = np.maximum(np.diff(cdf), 1e-300)
    seg_pdf = np.maximum(seg_df / seg_dx / total, 1e-300)

    def stats(rng, m):
        dirs = _uniform_directions(rng, m, n)
        u = rng.uniform(size=m) * total
        # u can round up to cdf[-1]; the last segment takes it
        k = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(cdf) - 2)
        w = xs[k] + (u - cdf[k]) * seg_dx[k] / seg_df[k]
        weight = area * np.sinh(w) ** (n - 1) / seg_pdf[k]
        mask = np.asarray(region.membership(np.tanh(w)[:, None] * dirs),
                          dtype=bool)
        c_vals = np.where(mask, weight, 0.0)
        return np.array([c_vals.sum(), (c_vals * c_vals).sum(), mask.sum()])

    c_sum, c_sum_sq, hits = _chunk_sums(seed, samples, MC_CHUNK, stats,
                                        workers).tolist()
    if hits == 0:
        return _sampled(0.0, total * area * 3.0 / samples, samples)
    return _sampled(*_mean_se(c_sum, c_sum_sq, samples), samples)


# ---------------------------------------------------------------------------
# closed forms: 2D angle defect, 3D orthoschemes

# Angle-defect rounding bound per 1/(1 - |v|^2) of a finite vertex v, u = 2^-53;
# the error stayed under 0.02 of it on 800 random cone sections, phi 1e-4
# to 0.1, and on 24 hull fans of three families, N = 8 to 256.
_DEFECT_ROUNDING = 8.0 * math.pi * 2.0 ** -53

def _angle_defects(tri: np.ndarray) -> tuple[np.ndarray, float]:
    """Hyperbolic areas of a (k, 3, 2) batch of triangles: pi - angle sum.

    At a vertex p with chords u, v toward the other two, the metric tensor
    g = I/s + p p^T/s^2, s = 1 - |p|^2, gives s^2 g(u, v) = s u.v +
    (p.u)(p.v), and in the plane s^4 (g(u,u) g(v,v) - g(u,v)^2) =
    s (u x v)^2, so the angle is an arctan2 free of cancellation.  Vertices
    within BOUNDARY_TOL of the sphere are ideal and contribute angle 0;
    collinear triangles have area 0.  Also returns the rounding bound of
    the summed areas, _DEFECT_ROUNDING times the sum of 1/(1 - |v|^2) over
    the finite vertices v.
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
    bound = _DEFECT_ROUNDING * float(np.sum(1.0 / (1.0 - norm2[finite])))
    return np.where(flat, 0.0, area), bound


def triangle_area_2d(a, b, c) -> float:
    """Exact hyperbolic area of a 2D triangle: pi minus the angle sum.

    Ideal vertices (IdealPoint, or norm within 1e-12 of the sphere)
    contribute angle zero; a vertex outside the closed ball or with NaN
    coordinates raises ValueError.  Collinear vertices give area 0.
    """
    coords = [as_coords(x) for x in (a, b, c)]
    if any(v.size != 2 for v in coords):
        raise ValueError("triangle_area_2d needs n = 2")
    _check_points(np.array(coords), ideal=True)
    pa, pb, pc_ = coords
    if np.array_equal(pa, pb) or np.array_equal(pb, pc_) or np.array_equal(pa, pc_):
        raise ValueError("triangle vertices must be distinct")
    areas, _ = _angle_defects(np.array(coords)[None])
    return float(areas[0])


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
    a decomposition.  Returns the volume and the sum of the magnitudes of
    its Lobachevsky terms, which sets its rounding error.
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
    volume = 0.25 * (lob[0] - lob[1] + lob[2] - lob[3] - lob[4] + lob[5]
                     + 2.0 * lob[6])
    magnitude = 0.25 * (np.abs(lob[:6]).sum(axis=0) + 2.0 * np.abs(lob[6]))
    return volume, magnitude


def _orthoscheme_sum(tri: np.ndarray) -> tuple[float, float]:
    """Volume of the cones from the origin over a (f, 3, 3) batch of facets.

    Let H be the foot of the origin O on a facet plane and E the foot of H
    on the line of an edge PQ.  OH is the hyperbolic perpendicular too,
    because O is the center, and so is HE within the plane, whose section
    of the ball is a Klein disc centered at H.  The cone over the triangle
    HPQ is then orth(O, H, E, Q) - orth(O, H, E, P), with legs signed by
    the side of PQ that H lies on and the side of E that each end lies
    on; the three edges of a facet sum to its cone.  The leg HE is signed
    against the facet's own normal and OH is taken positive, so the sum
    does not depend on the order of a facet's vertices.  Also returns the
    summed magnitudes of all the Lobachevsky terms.
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
    vol_q, mag_q = _orthoscheme_volume(h, a, b_q)
    vol_p, mag_p = _orthoscheme_volume(h, a, -t)
    return float(np.sum(vol_q - vol_p)), float(np.sum(mag_q + mag_p))
