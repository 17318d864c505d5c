"""Epsilon-extensions of finite point sets and their hulls.

A_eps is the set of points within hyperbolic distance eps of the input
set A, i.e. the union of closed eps-balls around the points.  Greedy
packings give two-sided volume control: the eps/2-balls around a maximal
eps-separated subset are disjoint and contained in A_eps, while the
2eps-balls around the same subset cover it.
"""

from __future__ import annotations

import math

import numpy as np

from .klein import (
    BOUNDARY_TOL,
    _check_points,
    _check_radius,
    _row_sum,
    _row_sumsq,
    _uniform_directions,
    ball_boundary_array,
    ball_volume,
    boost_to,
    dist_matrix,
)
from .hull import Polytope, convex_hull
from .rng import substream
from .volume import (
    Region,
    VolumeEstimate,
    polytope_volume,
    preferred_method,
    region_volume_mc,
)

__all__ = [
    "PackingBoundError",
    "PackingResult",
    "UnionOfBalls",
    "greedy_packing",
    "sandwich_check",
    "extension_volume",
    "hull_of_extension",
    "theorem2_ratio",
    "euclidean_capsule_ratio",
    "two_ball_hull_area",
    "two_ball_ratio",
]


class PackingBoundError(AssertionError):
    """A Monte Carlo estimate undercut a rigorous packing lower bound."""


class PackingResult:
    """A maximal eps-separated subset of an input cloud.

    Validates on construction that eps is finite and positive and the centers
    strictly pairwise more than eps apart; maximality (every input point
    within eps of a center) is certified by greedy_packing beforehand.
    """

    def __init__(self, centers: np.ndarray, epsilon: float):
        _check_radius(epsilon)
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        dm = dist_matrix(centers, centers)
        np.fill_diagonal(dm, np.inf)
        if dm.min() <= epsilon:
            raise ValueError("packing centers must be pairwise > eps apart")
        self.centers = centers
        self.centers.setflags(write=False)
        self.epsilon = float(epsilon)

    def __len__(self):
        return self.centers.shape[0]


class UnionOfBalls:
    """Union of equal-radius hyperbolic balls as a Monte Carlo region.

    A point p lies in the ball of radius r around q when
    cosh d(p, q) = (1 - p.q) / sqrt((1 - |p|^2)(1 - |q|^2)) <= cosh r.
    Both square roots are positive, so with s = 1/sqrt(1 - |q|^2) the same
    test reads s - p.(s q) <= cosh(r) sqrt(1 - |p|^2).  The centers' s and
    s q are computed once; membership is then one product against all
    centers, a minimum over centers and one comparison per point, with no
    arccosh and no division per entry.  Centers are checked as `KleinPoint`
    checks them and are read-only, so the scaled copies cannot go stale.
    """

    def __init__(self, centers: np.ndarray, radius: float):
        centers = np.array(centers, dtype=float, ndmin=2)
        _check_points(centers)
        _check_radius(radius)
        centers.setflags(write=False)
        self.centers = centers
        self.radius = float(radius)
        self._scale = 1.0 / np.sqrt(1.0 - _row_sumsq(centers))
        self._scaled = centers * self._scale[:, None]

    def membership(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.centers.shape[1]:
            raise ValueError(
                f"query points have dimension {pts.shape[1]}, "
                f"centers have dimension {self.centers.shape[1]}"
            )
        # (k, m): s_j - p_i.(s_j q_j), reduced along the contiguous m rows
        gap = self._scale[:, None] - self._scaled @ pts.T
        bound = math.cosh(self.radius) * np.sqrt(1.0 - _row_sumsq(pts))
        return gap.min(axis=0) <= bound

    def region(self) -> Region:
        # each ball of hyperbolic radius r around c stays inside the
        # Euclidean radius tanh(atanh|c| + r); checked centers keep |c| < 1
        norms = np.linalg.norm(self.centers, axis=1)
        reach = np.tanh(np.arctanh(norms) + self.radius)
        return Region(
            membership=self.membership,
            bounding_radius=float(min(reach.max(), 1.0 - BOUNDARY_TOL)),
            dim=self.centers.shape[1],
        )


def greedy_packing(points: np.ndarray, epsilon: float, seed: int = 0) -> PackingResult:
    """Maximal eps-separated subset by a seed-shuffled greedy scan.

    Every input point ends up within eps of an accepted center, so the
    result is maximal by construction.
    """
    _check_radius(epsilon)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _check_points(pts)
    order = substream(seed).permutation(pts.shape[0])
    kept: list[int] = []
    for idx in order:
        p = pts[idx][None, :]
        if not kept or dist_matrix(p, pts[kept]).min() > epsilon:
            kept.append(int(idx))
    centers = pts[kept]
    resid = dist_matrix(pts, centers).min(axis=1)
    if resid.max() > epsilon:
        raise AssertionError("greedy scan failed to cover the input")
    return PackingResult(centers, epsilon)


def sandwich_check(
    pack: PackingResult, points: np.ndarray, probes: int = 50_000, seed: int = 0
) -> dict:
    """Probe the inclusions union(eps/2) subset A_eps subset union(2 eps).

    Random probes are thrown near the centers; each probe found in the
    inner union must be in A_eps, each probe in A_eps must be in the
    outer union.  Both counts must be zero for a valid packing.
    """
    m = int(probes)
    if m < 1:
        raise ValueError("probes must be >= 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eps = pack.epsilon
    inner = UnionOfBalls(pack.centers, eps / 2.0)
    ext = UnionOfBalls(pts, eps)
    outer = UnionOfBalls(pack.centers, 2.0 * eps)

    rng = substream(seed)
    base = pack.centers[rng.integers(0, len(pack), size=m)]
    # hyperbolic-normal jitter: direction times a radius up to 2.5 eps
    g = _uniform_directions(rng, m, pts.shape[1])
    w = 2.5 * eps * rng.random(m)
    # move distance w from each base point along g with a boost
    probes_pts = boost_to(base, np.tanh(w)[:, None] * g)
    in_inner = inner.membership(probes_pts)
    in_ext = ext.membership(probes_pts)
    in_outer = outer.membership(probes_pts)
    viol_inner = int(np.count_nonzero(in_inner & ~in_ext))
    viol_outer = int(np.count_nonzero(in_ext & ~in_outer))
    return {
        "probes": m,
        "inner_violations": viol_inner,
        "outer_violations": viol_outer,
        "passed": viol_inner == 0 and viol_outer == 0,
    }


# ---------------------------------------------------------------------------
# planar closed forms: kept arcs of the eps-circles

_TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = 2.0 ** -53


def _kept_arcs(centers: np.ndarray, epsilon: float, scale: float):
    """Arcs of each circle dB(q_i, eps) left after the cuts of the others.

    For every k != i, the arc of half-width h_ik = arccos(scale *
    tanh(d_ik / 2)) around the direction phi_ik of q_k seen from q_i is
    cut away, where scale * tanh(d_ik / 2) < 1.  Angles are taken in the
    frame that the boost from the origin to q_i carries: the Klein chord
    direction q_k - q_i (exact for close centers) is mapped back through
    the boost's differential, so the direction stays accurate however
    close the two centers are.  tanh(d/2) is symmetrised, so the two
    circles of a pair cut arcs of the same half-width, and their computed
    crossing points agree to rounding even at near tangency, where h is
    ill-conditioned.  A center equal to an earlier one (distance 0) is
    dropped.  Each circle's cuts are split where they pass 2 pi, sorted,
    and swept once; the gaps are the kept arcs.

    Returns the owner, start and end angle in [0, 2 pi] of each kept arc
    (an uncut circle keeps (0, 2 pi)), and kappa = max 1 / (1 - |q|^2),
    the factor by which 1 - |q|^2 magnifies the rounding of the input.
    """
    c = np.asarray(centers, dtype=float)
    n = c.shape[0]
    s = np.sqrt(1.0 - _row_sumsq(c))
    delta = c[None, :, :] - c[:, None, :]  # [i, k] = q_k - q_i
    along = np.einsum("ij,ikj->ik", c, delta)
    local = delta + (along / (s * (1.0 + s))[:, None])[:, :, None] * c[:, None, :]
    sinh_d = np.hypot(local[..., 0], local[..., 1]) / s[None, :]
    cosh_d = (1.0 - c @ c.T) / np.outer(s, s)
    half = sinh_d / (1.0 + cosh_d)  # tanh(d/2)
    half = 0.5 * (half + half.T)
    np.fill_diagonal(half, np.inf)
    dup = np.tril(half == 0.0).any(axis=1)
    half[dup, :] = half[:, dup] = np.inf
    x = scale * half
    cut = x < 1.0
    h = np.arccos(np.where(cut, x, 1.0))
    phi = np.arctan2(local[..., 1], local[..., 0])
    lo = np.where(cut, np.mod(phi - h, _TWO_PI), _TWO_PI)
    hi = lo + 2.0 * h
    wrap = hi > _TWO_PI
    # a cut past 2 pi continues from 0; every row ends in a (2 pi, 2 pi)
    # sentinel, so the last gap closes at 2 pi
    cap = np.full((n, 1), _TWO_PI)
    starts = np.concatenate([lo, np.where(wrap, 0.0, _TWO_PI), cap], axis=1)
    ends = np.concatenate([np.minimum(hi, _TWO_PI),
                           np.where(wrap, hi - _TWO_PI, _TWO_PI), cap], axis=1)
    order = np.argsort(starts, axis=1, kind="stable")
    starts = np.take_along_axis(starts, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(ends, order, axis=1), axis=1)
    prev = np.concatenate([np.zeros((n, 1)), reach[:, :-1]], axis=1)
    keep = (starts > prev) & ~dup[:, None]
    owner = np.nonzero(keep)[0]
    kappa = float(np.max(1.0 / (s * s)))
    return owner, prev[keep], starts[keep], kappa


def _arc_estimate(value: float, arcs: int, magnitude: float, kappa: float,
                  epsilon: float, method: str) -> VolumeEstimate:
    """A closed planar area with its rounding bound as `std_error`.

    Rounding 1 - |q|^2 moves each arc end by a few u * kappa radians; the
    arccos of the hull's cuts magnifies that by at most cosh(eps), and a
    moved end moves the area by at most cosh(eps) per radian.  The bound
    is 64 u kappa cosh(eps)^2 per kept arc (plus one), and u * arcs *
    `magnitude` (the sum of |terms|) for the final sum.  It is a stated
    bound, checked in the tests against the same areas in 50-digit
    arithmetic.
    """
    bound = _UNIT_ROUNDOFF * (
        64.0 * kappa * math.cosh(epsilon) ** 2 * (arcs + 1) + arcs * magnitude
    )
    return VolumeEstimate(value, bound, arcs, method,
                          achieved_rel_tol=bound / value)


def _planar_hull_area(points: np.ndarray, epsilon: float) -> VolumeEstimate:
    """Area of Conv(A_eps) in the plane by Gauss-Bonnet over the kept arcs.

    A point of dB(q_i, eps) at angle a lies on the hull's boundary exactly
    when its tangent geodesic supports every other ball, that is when
    cos(a - phi_ik) <= tanh(eps) tanh(d_ik / 2) for all k.  The boundary
    is these arcs, of geodesic curvature coth(eps), joined by geodesic
    segments with no corners, so the area is cosh(eps) * (sum of kept
    angles) - 2 pi.  For two centers this is `two_ball_hull_area`.
    """
    _, lo, hi, kappa = _kept_arcs(points, epsilon, math.tanh(epsilon))
    boundary = math.cosh(epsilon) * float(np.sum(hi - lo))
    return _arc_estimate(boundary - _TWO_PI, lo.size, boundary + _TWO_PI,
                         kappa, epsilon, "kept_arcs_hull")


def _planar_union_area(points: np.ndarray, epsilon: float) -> VolumeEstimate:
    """Area of the union of eps-discs in the plane from its boundary arcs.

    Ball k covers the points of dB_i with cos(a - phi_ik) >= coth(eps)
    tanh(d_ik / 2), an arc when d_ik < 2 eps; what is left of each circle
    is the union's boundary, traversed with the union on its left, around
    holes too.  On hyperboloid lifts, a kept arc P -> Q of angle theta on
    circle i encloses with the origin O the signed area

        Delta(O, P, Q) - Delta(C_i, P, Q) + (cosh(eps) - 1) theta,

    where Delta(u, v, w) = 2 atan2(det[u, v, w], 1 - <u,v> - <v,w> - <w,u>)
    is the signed area of a geodesic triangle: the fan triangle from O,
    less the triangle from the center, plus the sector.  These add up to
    the union's area over the closed boundary (the hyperbolic analogue of
    Avis, Bhattacharya & Imai, "Computing the volume of the union of
    spheres", The Visual Computer 3, 1988).  Delta(C_i, P, Q) depends
    only on eps and theta, and <P, Q> on them too, so both are evaluated
    from theta, as 2 atan2(t sin theta, 1 - t cos theta) with
    t = tanh(eps/2)^2 and -<P, Q> = 1 + 2 sinh(eps)^2 sin(theta/2)^2.
    An uncut circle adds 2 pi (cosh(eps) - 1); a covered one adds 0.
    """
    owner, lo, hi, kappa = _kept_arcs(points, epsilon, 1.0 / math.tanh(epsilon))
    ch, sh = math.cosh(epsilon), math.sinh(epsilon)
    whole = (hi - lo) == _TWO_PI
    owner, lo, hi = owner[~whole], lo[~whole], hi[~whole]
    theta = hi - lo
    # lifts of the arc ends: the boost to q_i applied to
    # (cosh eps, sinh eps cos a, sinh eps sin a)
    c = points[owner]
    x0 = 1.0 / np.sqrt(1.0 - _row_sumsq(c))
    xs = c * x0[:, None]

    def lift(angle):
        e = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        xe = _row_sum(xs * e)
        spatial = xs * ch + sh * (e + xs * (xe / (x0 + 1.0))[:, None])
        return x0 * ch + sh * xe, spatial

    p0, ps = lift(lo)
    q0, qs = lift(hi)
    sin_half = np.sin(0.5 * theta)
    fan = 2.0 * np.arctan2(ps[:, 0] * qs[:, 1] - ps[:, 1] * qs[:, 0],
                           2.0 + p0 + q0 + 2.0 * (sh * sin_half) ** 2)
    t = math.tanh(0.5 * epsilon) ** 2
    center = 2.0 * np.arctan2(t * np.sin(theta), 1.0 - t * np.cos(theta))
    terms = fan - center + (ch - 1.0) * theta
    full = (ch - 1.0) * _TWO_PI
    count = int(whole.sum())
    return _arc_estimate(count * full + float(terms.sum()), count + terms.size,
                         count * full + float(np.abs(terms).sum()), kappa,
                         epsilon, "kept_arcs_union")


def extension_volume(
    points: np.ndarray,
    epsilon: float,
    samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    check_lower_bound: bool = True,
) -> VolumeEstimate:
    """Volume of A_eps with a packing-certified floor.

    In the plane the area is closed (`_planar_union_area`, method
    "kept_arcs_union"); `samples`, `seed` and `workers` go unused, and
    `std_error` is an absolute rounding bound, not a sampling error.  From
    n = 3 on it is region Monte Carlo with `samples` draws.  The floor
    N_pack * Vol(B(eps/2)) must sit below the estimate by at most three
    standard errors, otherwise PackingBoundError is raised.
    """
    union = UnionOfBalls(points, epsilon)
    pts = union.centers
    n = pts.shape[1]
    if n == 2:
        est = _planar_union_area(pts, epsilon)
    else:
        est = region_volume_mc(union.region(), samples=samples, seed=seed,
                               workers=workers)
    if check_lower_bound:
        pack = greedy_packing(pts, epsilon, seed=seed)
        floor = len(pack) * ball_volume(n, epsilon / 2.0)
        if est.value < floor - 3.0 * est.std_error:
            raise PackingBoundError(
                f"estimate {est.value:.6g} under packing floor {floor:.6g}"
            )
    return est


def hull_of_extension(
    points: np.ndarray, epsilon: float, boundary_samples: int = 256, seed: int = 0
) -> Polytope:
    """Inner polytope approximation of Conv(A_eps).

    Deterministic sphere samples on each eps-ball boundary; all sampled
    points lie in A_eps, so the hull is an inner approximation and its
    volume a lower bound.  Larger boundary_samples only refine it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rings = ball_boundary_array(pts, epsilon, boundary_samples, seed=seed)
    return convex_hull(np.vstack([pts, rings.reshape(-1, pts.shape[1])]))


def theorem2_ratio(
    points: np.ndarray,
    epsilon: float,
    samples: int = 400_000,
    boundary_samples: int = 256,
    seed: int = 0,
    workers: int = 1,
    budget: int | None = None,
) -> dict:
    """Vol(Conv(A_eps)) / Vol(A_eps) with both estimates.

    In the plane both sides are closed forms from the kept arcs of the
    eps-circles: the hull by Gauss-Bonnet (method "kept_arcs_hull") and the
    union by its boundary arcs (method "kept_arcs_union", as
    `extension_volume`), each with a rounding bound as `std_error`; no
    ring hull is built and nothing is sampled.  From n = 3 on the hull is
    `hull_of_extension` with `boundary_samples` ring points, an inner
    approximation, whose volume takes the route `preferred_method` picks
    (facet quadrature with evaluation budget `budget` from n = 4), and
    the union is Monte Carlo with `samples` draws.  The ratio is
    low_confidence when the hull estimate is, or when the union's relative
    SE exceeds 5%; a union estimate of 0 (no sample hit a ball) gives
    ratio inf.
    """
    union_est = extension_volume(
        points, epsilon, samples=samples, seed=seed, workers=workers,
        check_lower_bound=False,
    )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 2:
        hull_est = _planar_hull_area(pts, epsilon)
    else:
        poly = hull_of_extension(pts, epsilon, boundary_samples, seed=seed)
        hull_est = polytope_volume(poly, preferred_method(poly.dim), budget=budget)
    hit = union_est.value > 0
    rel = union_est.std_error / union_est.value if hit else math.inf
    return {
        "hull": hull_est,
        "union": union_est,
        "ratio": hull_est.value / union_est.value if hit else math.inf,
        "low_confidence": bool(hull_est.low_confidence or rel > 0.05),
    }


def euclidean_capsule_ratio(d: float, epsilon: float) -> float:
    """Euclidean plane companion: capsule over two-disc union.

    Hull of two eps-discs at distance d is a capsule of area
    pi eps^2 + 2 eps d; the union (disjoint for d > 2 eps) has area
    2 pi eps^2.
    """
    if d <= 2 * epsilon:
        raise ValueError("centers must be disjoint: d > 2 eps")
    return (math.pi * epsilon**2 + 2.0 * epsilon * d) / (2.0 * math.pi * epsilon**2)


def two_ball_hull_area(d: float, epsilon: float) -> float:
    """Exact area of Conv(A_eps) for two points at distance d in the plane.

    The convex hull is bounded by the two outer circle arcs and the two
    common tangent geodesics.  Gauss-Bonnet with geodesic sides gives
    Area = cosh(eps) * (total arc angle) - 2 pi, where each circle
    contributes an arc of angular width 2 theta_t,
    theta_t = arccos(-tanh(d/2) tanh(eps)), measured at the circle center.
    """
    tt = math.acos(-math.tanh(d / 2.0) * math.tanh(epsilon))
    return math.cosh(epsilon) * 4.0 * tt - 2.0 * math.pi


def two_ball_ratio(d: float, epsilon: float) -> float:
    """Exact Vol(Conv(A_eps)) / Vol(A_eps) for two plane points, d > 2 eps."""
    if d <= 2 * epsilon:
        raise ValueError("closed form covers the disjoint case only")
    union = 2.0 * ball_volume(2, epsilon)
    return two_ball_hull_area(d, epsilon) / union
