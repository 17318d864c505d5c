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
    _orthoscheme_volume,
    _stated,
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


def _neighbour_frame(centers: np.ndarray):
    """Every other center as seen from each center q_i, in q_i's frame.

    The frame is the one that the boost from the origin to q_i carries:
    the Klein chord direction q_k - q_i (exact for close centers) is mapped
    back through the boost's differential, so the direction stays accurate
    however close the two centers are.  tanh(d_ik / 2) is symmetrised, so
    the two centers of a pair see the same value.  A center equal to an
    earlier one (distance 0) is marked as a duplicate.

    Returns `local` (N, N, n), whose [i, k] row points from q_i towards
    q_k; `half` (N, N), tanh(d_ik / 2), inf on the diagonal and in the
    rows and columns of duplicates; the duplicate mask; and kappa =
    max 1 / (1 - |q|^2), the factor by which 1 - |q|^2 magnifies the
    rounding of the input.
    """
    c = np.asarray(centers, dtype=float)
    s = np.sqrt(1.0 - _row_sumsq(c))
    delta = c[None, :, :] - c[:, None, :]  # [i, k] = q_k - q_i
    along = np.einsum("ij,ikj->ik", c, delta)
    local = delta + (along / (s * (1.0 + s))[:, None])[:, :, None] * c[:, None, :]
    sinh_d = np.hypot.reduce(local, axis=-1) / s[None, :]
    cosh_d = (1.0 - c @ c.T) / np.outer(s, s)
    half = sinh_d / (1.0 + cosh_d)  # tanh(d/2)
    half = 0.5 * (half + half.T)
    np.fill_diagonal(half, np.inf)
    dup = np.tril(half == 0.0).any(axis=1)
    half[dup, :] = half[:, dup] = np.inf
    return local, half, dup, float(np.max(1.0 / (s * s)))


def _sweep_arcs(phi: np.ndarray, h: np.ndarray, cut: np.ndarray,
                skip: np.ndarray):
    """Arcs of each row's circle left after cutting arcs around phi.

    Row r loses, for each column where `cut` holds, the arc of half-width
    h (at most pi) around the angle phi.  Cuts are split where they pass
    2 pi, sorted, and swept once; the gaps are the kept arcs.  Rows where
    `skip` holds keep nothing.  Returns the row, start and end angle in
    [0, 2 pi] of each kept arc (an uncut row keeps (0, 2 pi)).
    """
    rows = phi.shape[0]
    lo = np.where(cut, np.mod(phi - h, _TWO_PI), _TWO_PI)
    hi = lo + 2.0 * h
    wrap = hi > _TWO_PI
    # a cut past 2 pi continues from 0; every row ends in a (2 pi, 2 pi)
    # sentinel, so the last gap closes at 2 pi
    cap = np.full((rows, 1), _TWO_PI)
    starts = np.concatenate([lo, np.where(wrap, 0.0, _TWO_PI), cap], axis=1)
    ends = np.concatenate([np.minimum(hi, _TWO_PI),
                           np.where(wrap, hi - _TWO_PI, _TWO_PI), cap], axis=1)
    order = np.argsort(starts, axis=1, kind="stable")
    starts = np.take_along_axis(starts, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(ends, order, axis=1), axis=1)
    prev = np.concatenate([np.zeros((rows, 1)), reach[:, :-1]], axis=1)
    keep = (starts > prev) & ~skip[:, None]
    return np.nonzero(keep)[0], prev[keep], starts[keep]


def _kept_arcs(centers: np.ndarray, epsilon: float, scale: float):
    """Arcs of each circle dB(q_i, eps) left after the cuts of the others.

    For every k != i, the arc of half-width h_ik = arccos(scale *
    tanh(d_ik / 2)) around the direction phi_ik of q_k seen from q_i is
    cut away, where scale * tanh(d_ik / 2) < 1.  Angles are taken in q_i's
    frame (`_neighbour_frame`); the symmetrised tanh(d/2) makes the two
    circles of a pair cut arcs of the same half-width, so their computed
    crossing points agree to rounding even at near tangency, where h is
    ill-conditioned.  Duplicate centers keep nothing.

    Returns the owner, start and end angle of each kept arc (see
    `_sweep_arcs`) and kappa.
    """
    local, half, dup, kappa = _neighbour_frame(centers)
    x = scale * half
    cut = x < 1.0
    h = np.arccos(np.where(cut, x, 1.0))
    phi = np.arctan2(local[..., 1], local[..., 0])
    owner, lo, hi = _sweep_arcs(phi, h, cut, dup)
    return owner, lo, hi, kappa


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
    return _stated(value, bound / value, arcs, method, bound)


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


# ---------------------------------------------------------------------------
# spatial union: eps-balls clipped to their Voronoi cells

_CLIP_BATCH = 1 << 18  # (face, side, side) entries clipped at once
_MERGE = 2.0 ** -45  # sides closer than this times kappa count as one


def _orthonormal_pair(u: np.ndarray):
    """Two unit vectors completing each unit row of u to a right-handed frame.

    The branch-free construction of Duff et al., "Building an orthonormal
    basis, revisited", JCGT 6 (2017).
    """
    x, y, z = u[:, 0], u[:, 1], u[:, 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=1)
    e2 = np.stack([b, sign + y * y * a, -y], axis=1)
    return e1, e2


def _spatial_union_volume(points: np.ndarray, epsilon: float) -> VolumeEstimate:
    """Volume of the union of eps-balls in 3D, Voronoi cell by cell.

    With equal radii the union inside the Voronoi cell V_i of center i is
    B_i inside V_i, so Vol = sum_i Vol(B_i cap V_i) (Avis, Bhattacharya &
    Imai, "Computing the volume of the union of spheres", The Visual
    Computer 3, 1988).  In q_i's frame (`_neighbour_frame`) B_i is the
    ball at the Klein origin and V_i the Klein polytope u . u_k <= T_k,
    T_k = tanh(d_ik / 2).  Along a direction u the cell ends at distance
    rho(u), tanh rho = min_k T_k / (u . u_k), so Vol(B_i cap V_i) is the
    integral of M(min(eps, rho(u))) over the sphere of directions, with
    M(r) = (sinh 2r - 2r) / 4.  A neighbour with d_ik < 2 eps takes away
    the integral of M(eps) - M(rho) over the directions D_k that leave
    through face k inside the ball: the cap u . u_k >= T_k / tanh eps
    clipped by u . (T_l u_k - T_k u_l) >= 0 for every other neighbour l,
    a disc clipped by half-planes in the gnomonic chart at u_k.  Only
    neighbours l with d_kl < 2 eps can clip it: a direction in the cap
    that meets plane l first, at distance rho_l < rho_k < eps, puts q_l
    within rho_l + (rho_k - rho_l) + rho_k < 2 eps of q_k.  With theta
    the angle from u_k, Green's theorem turns the integral over D_k into
    the integral of G(theta) dphi around its boundary, where

        G(theta) = M(eps) (1 - cos theta)
                   - (cos theta atanh(T_k / cos theta) - atanh T_k) / 2

    (derived for this routine, not taken from the source paper).  On the
    rim G is constant, so each kept arc of it adds G times its angle.  A
    straight side adds M(eps) times the solid angle of its fan triangle
    less the hyperbolic volume of a Klein tetrahedron, two orthoschemes,
    for the whole union at once (`_side_integrals`).

    `std_error` bounds the rounding error: 64 u kappa cosh(eps)^2 M(eps)
    per face (plus one) for the rounding of the input, as `_arc_estimate`
    states it in the plane, 512 u kappa M(eps) per side merged into
    another (`_clip_sides`), and for the sums 8 u times the magnitudes of
    the parts of each rim term, each solid angle and each Lobachevsky
    term, which all cancel at small eps.  It is checked in the tests
    against 50-digit recomputations.  Past a relative bound of 1e-4, near
    eps = 1e-4, the estimate is flagged low_confidence, as in `exact_3d`.
    """
    local, half, dup, kappa = _neighbour_frame(points)
    full = ball_volume(3, epsilon)
    m_eps = full / (4.0 * math.pi)
    x = half / math.tanh(epsilon)  # cos of each cap's angular radius
    cut = x < 1.0
    count = int(points.shape[0] - dup.sum())
    fi, fk = np.nonzero(cut)
    terms = np.zeros(fi.size)
    magnitude, evaluations, merged = count * full, 0, 0
    if fi.size:
        # the half-planes of face (i, k): neighbours l of both i and k
        nbr = np.argsort(~cut, axis=1, kind="stable")[:, :int(cut.sum(axis=1).max())]
        ls = nbr[fi]
        valid = cut[fi[:, None], ls] & cut[fk[:, None], ls]
        uk = local[fi, fk]
        uk /= np.linalg.norm(uk, axis=1, keepdims=True)
        ul = local[fi[:, None], ls]  # rows that are no neighbours stay unused
        ul /= np.maximum(np.linalg.norm(ul, axis=2, keepdims=True), 1e-300)
        e1, e2 = _orthonormal_pair(uk)
        a1 = np.einsum("fkj,fj->fk", ul, e1)
        a2 = np.einsum("fkj,fj->fk", ul, e2)
        tk = half[fi, fk]
        # half-plane a . w <= c at distance p = c / |a| from the pole
        c = half[fi[:, None], ls] / tk[:, None] - np.einsum("fkj,fj->fk", ul, uk)
        na = np.hypot(a1, a2)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(na > 0.0, c / na, np.where(c < 0.0, -np.inf, np.inf))
        p[~valid] = np.inf
        c0 = x[fi, fk]
        rim = np.sqrt((1.0 - c0) * (1.0 + c0)) / c0  # tan of the cap radius
        # on the rim, half-plane l removes the arc cos(phi - phi_l) > p / rim
        ratio = p / rim[:, None]
        owner, lo, hi = _sweep_arcs(np.arctan2(a2, a1),
                                    np.arccos(np.clip(ratio, -1.0, 1.0)),
                                    ratio < 1.0, np.zeros(fi.size, dtype=bool))
        kept = np.bincount(owner, weights=hi - lo, minlength=fi.size)
        terms = (m_eps * (1.0 - c0) - 0.5 * (c0 * epsilon - np.arctanh(tk))) * kept
        magnitude += float(np.sum((m_eps * (1.0 - c0) + 0.5 * (c0 * epsilon + np.arctanh(tk)))
                                  * kept))
        # the straight sides: lines that cross the rim of a face that no
        # single half-plane removes whole
        side = (np.abs(p) < rim[:, None]) & ~(ratio <= -1.0).any(axis=1)[:, None]
        rows = np.nonzero(side.any(axis=1))[0]
        if rows.size:
            # each face's sides packed to the left, so the clip is as wide
            # as the most sides any one face has
            cols = np.argsort(~side[rows], axis=1, kind="stable")
            cols = cols[:, :int(side[rows].sum(axis=1).max())]
            side, a1, a2, na, p = (np.take_along_axis(arr[rows], cols, axis=1)
                                   for arr in (side, a1, a2, na, p))
            p = np.where(side, p, 0.0)
            nx = np.divide(a1, na, out=np.zeros_like(a1), where=side)
            ny = np.divide(a2, na, out=np.zeros_like(a2), where=side)
            low, up, keep, merged = _clip_sides(side, nx, ny, p, rim[rows],
                                                _MERGE * kappa)
            sides, mag, evaluations = _side_integrals(keep, low, up, p, tk[rows], m_eps)
            terms[rows] += sides
            magnitude += mag
    bound = _UNIT_ROUNDOFF * (
        64.0 * kappa * m_eps * (math.cosh(epsilon) ** 2 * (fi.size + 1) + 8 * merged)
        + 8.0 * magnitude
    )
    value = count * full - float(terms.sum())
    return _stated(value, bound / value, evaluations, "voronoi_cells_union", bound)


def _clip_sides(side, nx, ny, p, rim, tol):
    """The part of each side's chord that every other side leaves in D_k.

    Row f, column l of `side` marks the line n_l . w = p_l (unit normal n
    pointing out of D_k) of face f that crosses the rim.  Its chord, at
    s in [-L, L] along t_l = (-n_ly, n_lx), is cut by every other side m
    at the crossing w* of the two lines, computed once for both pairs
    (l, m) and (m, l) and with det(n_l, n_m) = -det(n_m, n_l) exactly, so
    two sides agree bitwise on where one ends and the other begins.  Of
    two parallel sides the inner one is kept.  Sides whose great circles
    (unit normals (n, -p) / sqrt(1 + p^2)) lie within `tol` of each other
    count as one, the first: co-circular centers make several neighbours
    cut a face along one line, and crossings among three or more copies
    of a line, each computed from rounded data, need not tile it.  A side
    within 1e-30 rim of the pole is dropped: it sweeps less angle than the
    rounding of the rest.  Returns the ends `low`, `up`, the mask of sides
    kept and the number of sides merged into an earlier one.
    """
    faces, width = side.shape
    chord = np.sqrt((rim[:, None] - np.abs(p)) * (rim[:, None] + np.abs(p)))
    low, up = -chord, chord.copy()
    shut = np.zeros_like(side)
    norm = 1.0 / np.sqrt(1.0 + p * p)
    circle = np.stack([nx * norm, ny * norm, -p * norm], axis=-1)
    index = np.arange(width)
    others = ~np.eye(width, dtype=bool)
    first = index[None, :] < index[:, None]  # [l, m]: m comes first
    merged = 0
    step = max(1, _CLIP_BATCH // (width * width))
    for b in range(0, faces, step):
        rows = slice(b, b + step)
        lx, ly, pl = nx[rows, :, None], ny[rows, :, None], p[rows, :, None]
        mx, my, pm = nx[rows, None, :], ny[rows, None, :], p[rows, None, :]
        det = lx * my - ly * mx
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            wx = (pl * my - pm * ly) / det
            wy = (pm * lx - pl * mx) / det
            at = lx * wy - ly * wx  # s of the crossing along side l
        gap = circle[rows, :, None, :] - circle[rows, None, :, :]
        pair = side[rows, :, None] & side[rows, None, :] & others
        same = pair & (np.einsum("flmj,flmj->flm", gap, gap) <= tol * tol)
        copy = (same & first).any(axis=2)
        merged += int(copy.sum())
        # a copy neither keeps a piece nor cuts another side
        pair &= ~same & ~copy[:, None, :]
        crossing = pair & np.isfinite(at)
        inner = np.where(lx * mx + ly * my > 0.0, pm < pl, pl + pm < 0.0)
        up[rows] = np.minimum(up[rows], np.where(crossing & (det > 0.0), at, np.inf).min(axis=2))
        low[rows] = np.maximum(low[rows], np.where(crossing & (det < 0.0), at, -np.inf).max(axis=2))
        shut[rows] = (pair & ~crossing & inner).any(axis=2) | copy
    keep = side & (low < up) & ~shut & (np.abs(p) > 1e-30 * rim[:, None])
    return low, up, keep, merged


def _side_integrals(keep, low, up, p, tk, m_eps):
    """Integral of G dphi along every kept side, summed per face.

    By Green's theorem a side P -> Q adds, with the sign of p, the
    integral of M(eps) - M(rho) over its fan triangle (pole, P, Q):
    M(eps) times the triangle's solid angle (Van Oosterom & Strackee, "The
    solid angle of a plane triangle", IEEE Trans. Biomed. Eng. 30, 1983)
    less the volume of the Klein tetrahedron (O, H, P, Q), H = T_k u_k.
    That is the orthoscheme with legs T_k, T_k |p|, T_k up less the one
    with T_k low (`_orthoscheme_volume` is odd in its last leg); P and Q
    lie in the ball, as T_k^2 (1 + p^2 + s^2) <= tanh(eps)^2 on a kept
    side.  Returns the per-face integrals, the sum of M(eps) |Omega| and
    the Lobachevsky magnitudes, and the number of orthoschemes.
    """
    f, l = np.nonzero(keep)
    pa, t, s0, s1 = np.abs(p[f, l]), tk[f], low[f, l], up[f, l]
    b = np.sqrt(1.0 + pa * pa + s0 * s0)
    c = np.sqrt(1.0 + pa * pa + s1 * s1)
    # the fan triangle's solid angle, from its vertices (0, 0, 1), (|p|, low, 1)
    # and (|p|, up, 1) in the frame (n, t, u_k)
    omega = 2.0 * np.arctan2(pa * (s1 - s0), b * c + b + c + 1.0 + pa * pa + s0 * s1)
    vol_up, mag_up = _orthoscheme_volume(t, t * pa, t * s1)
    vol_low, mag_low = _orthoscheme_volume(t, t * pa, t * s0)
    per_side = np.sign(p[f, l]) * (m_eps * omega - (vol_up - vol_low))
    magnitude = float(np.sum(m_eps * np.abs(omega) + mag_up + mag_low))
    return np.bincount(f, weights=per_side, minlength=keep.shape[0]), magnitude, 2 * f.size


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
    "kept_arcs_union"), and in 3D it is the sum over Voronoi cells
    (`_spatial_union_volume`, method "voronoi_cells_union"); there
    `samples` and `workers` go unused, and `std_error` is an absolute
    rounding bound, not a sampling error.  From n = 4 on it is region
    Monte Carlo with `samples` draws.  The estimate may fall below the
    floor N_pack * Vol(B(eps/2)) by at most three standard errors,
    otherwise PackingBoundError is raised; `seed` orders the greedy
    packing behind that floor in every dimension.
    """
    union = UnionOfBalls(points, epsilon)
    pts = union.centers
    n = pts.shape[1]
    if n == 2:
        est = _planar_union_area(pts, epsilon)
    elif n == 3:
        est = _spatial_union_volume(pts, epsilon)
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

    `boundary_samples` seeded uniform directions, drawn once and shared by
    every ball, give points on each eps-ball boundary (`ball_boundary_array`);
    all of them lie in A_eps, so the hull is an inner approximation and its
    volume a lower bound.  The draws are prefix-stable, so a larger
    `boundary_samples` only adds points and refines the hull.
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
    the union is `extension_volume`'s: closed over Voronoi cells in 3D,
    Monte Carlo with `samples` draws from n = 4 on.  The ratio is
    low_confidence when either estimate is (a stated error past 1e-4
    relative, a Monte Carlo SE past 5 %); a union estimate of 0 (no sample
    hit a ball) gives ratio inf.
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
    return {
        "hull": hull_est,
        "union": union_est,
        "ratio": hull_est.value / union_est.value if hit else math.inf,
        "low_confidence": bool(hull_est.low_confidence or union_est.low_confidence),
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
