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


def extension_volume(
    points: np.ndarray,
    epsilon: float,
    samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    check_lower_bound: bool = True,
) -> VolumeEstimate:
    """Monte Carlo volume of A_eps with a packing-certified floor.

    The floor N_pack * Vol(B(eps/2)) must sit below the estimate by at
    most three standard errors, otherwise PackingBoundError is raised.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    est = region_volume_mc(
        UnionOfBalls(pts, epsilon).region(), samples=samples, seed=seed,
        workers=workers,
    )
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
    """Vol(Conv(A_eps)) / Vol(A_eps), hull by inner approximation.

    Returns the ratio together with both estimates.  The hull volume takes
    the route `preferred_method` picks: a closed form in 2D and 3D, facet
    quadrature with evaluation budget `budget` above.  The union volume is
    Monte Carlo with `samples` draws.  The ratio is low_confidence when
    the hull estimate is, or when the union's relative SE exceeds 5%; a
    union estimate of 0 (no sample hit a ball) gives ratio inf.
    """
    poly = hull_of_extension(points, epsilon, boundary_samples, seed=seed)
    hull_est = polytope_volume(poly, preferred_method(poly.dim), budget=budget)
    union_est = extension_volume(
        points, epsilon, samples=samples, seed=seed, workers=workers,
        check_lower_bound=False,
    )
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
