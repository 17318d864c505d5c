"""Epsilon-extensions, packings, and the two-ball closed forms.

The two-ball configuration has an exact hull area from the angle defect
of the bounding curve, so it anchors all the Monte Carlo machinery here.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from hypervol import (
    PackingResult,
    UnionOfBalls,
    ball_boundary_array,
    ball_volume,
    convex_hull,
    dist,
    dist_matrix,
    euclidean_capsule_ratio,
    extension_volume,
    generate_points,
    greedy_packing,
    hull_of_extension,
    polytope_volume,
    random_isometry,
    region_volume_mc,
    sandwich_check,
    theorem2_ratio,
    triangle_area_2d,
    two_ball_hull_area,
    two_ball_ratio,
)
from hypervol.klein import KleinPoint, translation_to
from hypervol.rng import substream


def chain_points(n: int, count: int, step: float) -> np.ndarray:
    """Collinear points along the first axis at equal hyperbolic spacing."""
    rs = np.tanh(step * np.arange(count))
    pts = np.zeros((count, n))
    pts[:, 0] = rs
    return pts


def test_packing_result_validation():
    pts = chain_points(2, 3, 0.5)  # pairwise >= 0.5 apart
    PackingResult(pts, 0.4)
    with pytest.raises(ValueError):
        PackingResult(pts, 0.6)  # adjacent pairs are only 0.5 apart


_CLOUD = generate_points("uniform-ball", 2, 10, 1)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.5])
@pytest.mark.parametrize("call", [
    lambda r: greedy_packing(_CLOUD, r),
    lambda r: PackingResult(_CLOUD[:1], r),
    lambda r: ball_volume(2, r),
    lambda r: ball_boundary_array(_CLOUD, r, 4, 0),
    lambda r: UnionOfBalls(_CLOUD, r),
], ids=["greedy_packing", "PackingResult", "ball_volume",
        "ball_boundary_array", "UnionOfBalls"])
def test_radius_must_be_finite_and_positive(call, radius):
    # NaN fails every comparison, so a plain `r <= 0` test lets it through
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        call(radius)


def test_greedy_packing_separation_and_maximality():
    rng = np.random.default_rng(4)
    pts = 0.5 * rng.uniform(-1, 1, size=(60, 2))
    eps = 0.3
    pack = greedy_packing(pts, eps, seed=11)
    assert 1 <= len(pack) <= 60
    # separation: strictly more than eps
    for i in range(len(pack)):
        for j in range(i + 1, len(pack)):
            assert dist(KleinPoint(pack.centers[i]),
                        KleinPoint(pack.centers[j])) > eps
    # maximality: every input point within eps of some center
    for p in pts:
        assert min(dist(KleinPoint(p), KleinPoint(c))
                   for c in pack.centers) <= eps + 1e-12
    # centers are a subset of the input
    for c in pack.centers:
        assert np.min(np.linalg.norm(pts - c, axis=1)) < 1e-15


def test_union_of_balls_membership():
    centers = chain_points(2, 2, 1.0)
    union = UnionOfBalls(centers, 0.4)
    inside = np.array([[0.0, 0.0], centers[1]])
    outside = np.array([[0.9, 0.4]])
    assert union.membership(inside).all()
    assert not union.membership(outside).any()
    region = union.region()
    # bounding radius covers the farthest ball
    reach = math.tanh(math.atanh(float(centers[1, 0])) + 0.4)
    assert region.bounding_radius == pytest.approx(reach, abs=1e-12)
    with pytest.raises(ValueError):
        UnionOfBalls(centers, -0.1)


def test_union_membership_matches_distance_rule():
    # the cosh comparison must accept exactly the probes within the radius
    for n in (2, 3, 5):
        centers = generate_points("uniform-ball", n, 12, seed=n, radius=1.0)
        probes = generate_points("uniform-ball", n, 20_000, seed=10 + n,
                                 radius=2.0)
        for radius in (0.3, 0.8, 1.5):
            rule = dist_matrix(probes, centers).min(axis=1) <= radius
            assert rule.any() and not rule.all()
            mask = UnionOfBalls(centers, radius).membership(probes)
            assert np.array_equal(mask, rule)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), k=st.integers(1, 40),
       radius=st.floats(0.05, 2.0), seed=st.integers(0, 2**20))
def test_union_membership_property(n, k, radius, seed):
    # the pre-scaled product rule agrees with the distance rule on every
    # row outside a 1e-9 relative band around the radius
    rng = np.random.default_rng(seed)
    centers = generate_points("uniform-ball", n, k, seed=seed, radius=1.5)
    union = UnionOfBalls(centers, radius)
    g = rng.standard_normal((4_000, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    probes = union.region().bounding_radius * rng.random(4_000)[:, None] * g
    near = dist_matrix(probes, centers).min(axis=1)
    clear = np.abs(near - radius) > 1e-9 * radius
    assert np.array_equal(union.membership(probes)[clear],
                          near[clear] <= radius)
    # rings just inside each ball are in the union, rings just outside
    # are outside their own ball
    inner = ball_boundary_array(centers, radius * (1 - 1e-6), 16, seed)
    outer = ball_boundary_array(centers, radius * (1 + 1e-6), 16, seed)
    assert union.membership(inner.reshape(-1, n)).all()
    for c, ring in zip(centers, outer):
        assert not UnionOfBalls(c, radius).membership(ring).any()


@pytest.mark.parametrize("centers, match", [
    ([[1.0, 0.0], [0.0, 0.0]], "boundary"),
    ([[np.nan, 0.0]], "finite"),
    ([[0.5]], "dimension"),
])
def test_union_of_balls_rejects_bad_centers(centers, match):
    with pytest.raises(ValueError, match=match):
        UnionOfBalls(centers, 0.5)
    with pytest.raises(ValueError, match=match):
        extension_volume(centers, 0.5, samples=1_000)


def test_union_of_balls_query_dimension_and_frozen_centers():
    given_centers = np.zeros((2, 3))
    union = UnionOfBalls(given_centers, 0.5)
    with pytest.raises(ValueError, match="dimension 2.*dimension 3"):
        union.membership(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="read-only"):
        union.centers[0, 0] = 0.1
    # the union keeps its own copy: the caller's array stays writable
    given_centers[0, 0] = 0.9
    assert union.membership(np.zeros((1, 3))).all()
    assert not union.membership(np.array([[0.9, 0.0, 0.0]])).any()


def test_sandwich_check_clean_packing():
    rng = np.random.default_rng(19)
    pts = 0.45 * rng.uniform(-1, 1, size=(30, 2))
    pack = greedy_packing(pts, 0.35, seed=5)
    out = sandwich_check(pack, pts, probes=20_000, seed=1)
    assert out["passed"]
    assert out["inner_violations"] == 0
    assert out["outer_violations"] == 0
    assert out["probes"] == 20_000


@pytest.mark.parametrize("probes", [0, -3])
def test_sandwich_check_rejects_probe_counts_below_one(probes):
    # zero probes would pass after testing nothing
    pts = np.array([[0.0, 0.0], [0.3, 0.0]])
    pack = greedy_packing(pts, 0.35, seed=5)
    with pytest.raises(ValueError, match="probes must be >= 1"):
        sandwich_check(pack, pts, probes=probes)


def test_extension_volume_single_ball():
    # one center: A_eps is a ball, closed form available
    pts = np.zeros((1, 3))
    eps = 0.8
    est = extension_volume(pts, eps, samples=200_000, seed=3)
    exact = ball_volume(3, eps)
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.std_error / exact < 0.02


def test_extension_volume_respects_packing_floor():
    pts = chain_points(2, 4, 1.2)
    est = extension_volume(pts, 0.5, samples=150_000, seed=7)
    pack = greedy_packing(pts, 0.5, seed=7)
    floor = len(pack) * ball_volume(2, 0.25)
    assert est.value > floor


def test_hull_of_extension_contains_ball_tangency_points():
    pts = chain_points(2, 2, 1.0)
    eps = 0.6
    poly = hull_of_extension(pts, eps, boundary_samples=128, seed=0)
    # the extreme point of the far ball along the axis lies in the hull up
    # to the inscribed-polygon sagitta
    far = math.tanh(1.0 + eps)
    assert poly.contains(np.array([far - 1e-3, 0.0]))
    assert not poly.contains(np.array([far + 1e-3, 0.0]))
    # hull is an inner approximation: no vertex leaves A_eps
    union = UnionOfBalls(pts, eps)
    assert union.membership(poly.vertices * (1 - 1e-12)).all()


def test_hull_of_extension_matches_per_point_rings():
    # the construction the batched rings replaced: one seeded draw of
    # directions, then one boost per center
    pts = generate_points("clustered", 3, 12, seed=4)
    eps, count, seed = 0.8, 64, 2
    rng = substream(seed, 0)
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rings = [translation_to(p).apply_array(math.tanh(eps) * dirs) for p in pts]
    ref = convex_hull(np.vstack([pts] + rings))
    poly = hull_of_extension(pts, eps, boundary_samples=count, seed=seed)
    assert poly.vertices.shape == ref.vertices.shape
    np.testing.assert_allclose(poly.vertices, ref.vertices, rtol=0, atol=1e-12)
    a = polytope_volume(poly, "exact_3d").value
    b = polytope_volume(ref, "exact_3d").value
    assert a == pytest.approx(b, rel=1e-12)


def test_two_ball_closed_forms_frozen():
    # Gauss-Bonnet area of the hull of two eps-balls at distance d
    assert two_ball_hull_area(10.0, 1.0) == pytest.approx(
        8.755426194846486, rel=1e-13)
    assert two_ball_ratio(10.0, 1.0) == pytest.approx(
        1.2829304420513366, rel=1e-13)
    assert euclidean_capsule_ratio(10.0, 1.0) == pytest.approx(
        (math.pi + 20.0) / (2.0 * math.pi), rel=1e-13)
    assert euclidean_capsule_ratio(10.0, 1.0) == pytest.approx(
        3.683098861837907, rel=1e-13)


def test_two_ball_euclidean_limit():
    # at small d and eps curvature is invisible: the hyperbolic ratio must
    # approach the flat capsule ratio with the same parameters
    d, eps = 0.01, 0.004
    assert two_ball_ratio(d, eps) == pytest.approx(
        euclidean_capsule_ratio(d, eps), rel=1e-3)
    with pytest.raises(ValueError):
        two_ball_ratio(1.0, 0.6)  # overlapping balls have no union closed form
    # the hull area alone is valid down to d = 0, where it is one ball
    assert two_ball_hull_area(0.0, 0.7) == pytest.approx(
        ball_volume(2, 0.7), rel=1e-13)


def test_two_ball_ratio_is_bounded_and_grows():
    # hyperbolic: ratio stays bounded in d; euclidean: ratio grows linearly
    eps = 1.0
    hyp = [two_ball_ratio(d, eps) for d in (3.0, 6.0, 10.0, 20.0)]
    euc = [euclidean_capsule_ratio(d, eps) for d in (3.0, 6.0, 10.0, 20.0)]
    assert all(a <= b + 1e-12 for a, b in zip(hyp, hyp[1:]))
    assert hyp[-1] < 1.3 * hyp[0]  # saturates
    assert euc[-1] > 2.5 * euc[0]  # keeps growing


def test_two_ball_area_vs_mc():
    d, eps = 3.0, 0.8
    exact = two_ball_hull_area(d, eps)
    pts = chain_points(2, 2, d)
    out = theorem2_ratio(pts, eps, samples=250_000, boundary_samples=512,
                         seed=2)
    # inner polytope approximation from below, within a percent at 512
    assert out["hull"].value < exact + 1e-9
    assert out["hull"].value == pytest.approx(exact, rel=0.01)
    assert out["ratio"] == pytest.approx(two_ball_ratio(d, eps), rel=0.02)
    assert not out["low_confidence"]


def test_theorem2_ratio_single_ball_near_one():
    out = theorem2_ratio(np.zeros((1, 2)), 0.9, samples=200_000,
                         boundary_samples=256, seed=6)
    # hull of one ball's boundary samples fills the ball from inside
    assert out["ratio"] == pytest.approx(1.0, abs=0.02)
    assert out["ratio"] <= 1.0 + 1e-9


def test_origin_centered_ball_hull_area_identity():
    # polygon inscribed in a ball: angle-defect area approaches the ball
    pts = np.zeros((1, 2))
    eps = 0.9
    poly = hull_of_extension(pts, eps, boundary_samples=1024, seed=0)
    total = 0.0
    c = poly.interior_point()
    for f in poly.facets:
        a, b = poly.vertices[list(f)]
        total += triangle_area_2d(c, a, b)
    assert total == pytest.approx(ball_volume(2, eps), rel=1e-3)


def test_theorem2_ratio_hull_budget_is_its_own():
    # 4D hulls take the quadrature route; its budget is `budget`, not the
    # Monte Carlo sample count
    pts = np.array([[-0.3, 0.0, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0]])
    poly = hull_of_extension(pts, 0.5, boundary_samples=8, seed=3)
    want = polytope_volume(poly, "quadrature", budget=200_000)
    by_samples = polytope_volume(poly, "quadrature", budget=5_000)
    assert want.evaluations != by_samples.evaluations
    for samples in (5_000, 8_000):
        out = theorem2_ratio(pts, 0.5, samples=samples, boundary_samples=8,
                             seed=3, budget=200_000)
        assert out["hull"] == want


def test_theorem2_ratio_carries_the_hull_flag():
    # a 4D quadrature hull short of its tolerance flags the ratio, although
    # the union's SE alone would pass
    pts = generate_points("clustered", 4, 8, seed=3, cluster_radius=1.0,
                          spread=0.3)
    out = theorem2_ratio(pts, 1.0, samples=200_000, boundary_samples=16,
                         budget=20_000, seed=3)
    assert out["hull"].low_confidence
    assert out["union"].std_error <= 0.05 * out["union"].value
    assert out["low_confidence"]


def test_theorem2_ratio_without_union_hits_is_infinite():
    # two tiny balls near the boundary: no union sample hits either, so
    # the union estimate is 0 and the ratio is inf, flagged, not an error
    # (in 4D: the planar and 3D unions are closed forms)
    t = math.tanh(5.0)
    out = theorem2_ratio(np.array([[-t, 0.0, 0.0, 0.0], [t, 0.0, 0.0, 0.0]]),
                         1e-3, samples=1000, boundary_samples=16)
    assert out["union"].value == 0.0
    assert out["hull"].value > 0.0
    assert out["ratio"] == math.inf
    assert out["low_confidence"]


# ---------------------------------------------------------------------------
# planar closed forms: the kept arcs of the eps-circles


def _planar(pts, eps):
    """(hull, union) of A_eps in the plane, both by the kept-arc kernel."""
    out = theorem2_ratio(pts, eps)
    assert out["hull"].method == "kept_arcs_hull"
    assert out["union"].method == "kept_arcs_union"
    return out["hull"], out["union"]


def _two_points(d):
    p = math.tanh(d / 2.0)
    return np.array([[-p, 0.0], [p, 0.0]])


def _ring(count, radius):
    """`count` centers evenly spaced at hyperbolic radius `radius`."""
    a = 2.0 * math.pi * np.arange(count) / count
    return math.tanh(radius) * np.column_stack([np.cos(a), np.sin(a)])


# 12 discs of radius 0.75 at radius 1.5: neighbours overlap, the origin is
# 1.5 from every center, so the union has a hole
HOLED_RING = (_ring(12, 1.5), 0.75)


def _criterion8_planar():
    """The 25 planar instances of acceptance criterion 8."""
    for j in range(0, 50, 2):
        family = ("uniform-ball", "clustered", "chain")[j % 3]
        eps = (0.4, 0.7, 1.0, 1.3)[j % 4]
        if family == "chain":
            pts = generate_points("chain", 2, 8, seed=800 + j, chain_spacing=0.6)
        else:
            pts = generate_points(family, 2, 10 + (j % 3) * 3, seed=800 + j)
        yield pts, eps, 800 + j


@pytest.mark.parametrize("d", [0.0, 1.5, 3.0, 6.0, 10.0])
def test_planar_hull_matches_two_ball_closed_form(d):
    hull, _ = _planar(_two_points(d), 1.0)
    assert abs(hull.value - two_ball_hull_area(d, 1.0)) <= 1e-12


@pytest.mark.parametrize("pts", [
    _ring(5, 3.0),
    generate_points("clustered", 2, 20, 7),
    generate_points("chain", 2, 8, 7),
    generate_points("uniform-ball", 2, 16, 7),
], ids=["pentagon", "clustered", "chain", "uniform-ball"])
def test_planar_hull_above_ring_hulls(pts):
    # ring hulls are inner approximations; their gap to the closed form
    # shrinks about as k^-2 in the ring size k (256x from 512 to 8192)
    hull, _ = _planar(pts, 1.0)
    gaps = [hull.value - polytope_volume(hull_of_extension(pts, 1.0, k),
                                         "exact_2d").value
            for k in (512, 8192)]
    assert gaps[0] > gaps[1] > 0.0
    assert 256 / 3 < gaps[0] / gaps[1] < 256 * 3


def test_planar_union_pulls_against_region_mc():
    # region Monte Carlo is the independent route: its pulls about the
    # closed form must look standard normal
    assert not UnionOfBalls(*HOLED_RING).membership(np.zeros((1, 2))).any()
    cases = list(_criterion8_planar()) + [(*HOLED_RING, 7)]
    pulls = []
    for pts, eps, seed in cases:
        _, union = _planar(pts, eps)
        mc = region_volume_mc(UnionOfBalls(pts, eps).region(),
                              samples=200_000, seed=seed)
        pulls.append((mc.value - union.value) / mc.std_error)
    assert len(pulls) == 26
    assert max(abs(p) for p in pulls) <= 3.0, pulls
    assert abs(np.mean(pulls)) <= 3.0 / math.sqrt(len(pulls)), pulls


def test_extension_volume_planar_route():
    pts = generate_points("clustered", 2, 20, 3)
    est = extension_volume(pts, 1.0)
    assert est.method == "kept_arcs_union"
    assert est.std_error > 0.0
    assert est.achieved_rel_tol == est.std_error / est.value
    assert not est.low_confidence
    # the estimate uses none of samples, seed and workers in the plane;
    # seed orders only the packing behind the floor check
    assert extension_volume(pts, 1.0, samples=10, seed=5, workers=2) == est


def _mp_planar(pts, eps):
    """Hull and union areas by the kept-arc construction in 50 digits.

    The same formulas as the library, evaluated at the float centers taken
    as exact, so the difference is the library's rounding.
    """
    mp = mpmath.mp
    mp.dps = 50
    centers = []
    for x, y in pts:
        q = (mp.mpf(float(x)), mp.mpf(float(y)))
        if q not in centers:
            centers.append(q)
    e = mp.mpf(float(eps))
    two_pi = 2 * mp.pi
    s = [mp.sqrt(1 - x * x - y * y) for x, y in centers]

    def seen_from(i, k):
        (cx, cy), (qx, qy) = centers[i], centers[k]
        dx, dy = qx - cx, qy - cy
        f = (cx * dx + cy * dy) / (s[i] * (1 + s[i]))
        lx, ly = dx + f * cx, dy + f * cy
        sinh_d = mp.sqrt(lx * lx + ly * ly) / s[k]
        cosh_d = (1 - cx * qx - cy * qy) / (s[i] * s[k])
        return sinh_d / (1 + cosh_d), mp.atan2(ly, lx)

    def kept(scale):
        arcs = []
        for i in range(len(centers)):
            cuts = []
            for k in range(len(centers)):
                half, phi = seen_from(i, k) if k != i else (mp.inf, 0)
                if scale * half >= 1:
                    continue
                h = mp.acos(scale * half)
                lo = (phi - h) % two_pi
                hi = lo + 2 * h
                if hi > two_pi:
                    cuts += [(lo, two_pi), (mp.mpf(0), hi - two_pi)]
                else:
                    cuts.append((lo, hi))
            reach = mp.mpf(0)
            for lo, hi in sorted(cuts) + [(two_pi, two_pi)]:
                if lo > reach:
                    arcs.append((i, reach, lo))
                reach = max(reach, hi)
        return arcs

    ch, sh = mp.cosh(e), mp.sinh(e)
    hull = ch * sum(b - a for _, a, b in kept(mp.tanh(e))) - two_pi
    t = mp.tanh(e / 2) ** 2
    union = mp.mpf(0)
    for i, a, b in kept(1 / mp.tanh(e)):
        theta = b - a
        union += (ch - 1) * theta
        if theta == two_pi:
            continue
        x0 = 1 / s[i]
        xs = (centers[i][0] * x0, centers[i][1] * x0)

        def lift(angle):
            ex, ey = mp.cos(angle), mp.sin(angle)
            xe = xs[0] * ex + xs[1] * ey
            return (x0 * ch + sh * xe,
                    xs[0] * ch + sh * (ex + xs[0] * xe / (x0 + 1)),
                    xs[1] * ch + sh * (ey + xs[1] * xe / (x0 + 1)))

        p, q = lift(a), lift(b)
        minkowski = p[0] * q[0] - p[1] * q[1] - p[2] * q[2]
        fan = 2 * mp.atan2(p[1] * q[2] - p[2] * q[1], 1 + p[0] + q[0] + minkowski)
        union += fan - 2 * mp.atan2(t * mp.sin(theta), 1 - t * mp.cos(theta))
    return hull, union


@pytest.mark.parametrize("pts, eps", [
    (_two_points(2.0 * (1 + 1e-12)), 1.0),
    (_two_points(2.0 * (1 - 1e-12)), 1.0),
    (_two_points(1.3 * (1 - 1e-12)), 0.65),
    # off the axis the two circles' half-widths would round apart
    (random_isometry(2, 0).apply_array(_two_points(2.0 * (1 - 1e-12))), 1.0),
    HOLED_RING,
    (generate_points("uniform-ball", 2, 40, 5), 1.0),
    (generate_points("clustered", 2, 20, 2), 1.0),
    (generate_points("chain", 2, 8, 3), 1.0),
    (_two_points(10.0), 1.0),
], ids=["tangent-apart", "tangent-overlap", "tangent-small", "tangent-moved",
        "holed-ring", "dense-ball", "clustered", "chain", "far-apart"])
def test_planar_areas_within_their_rounding_bound(pts, eps):
    hull, union = _planar(pts, eps)
    mp_hull, mp_union = _mp_planar(pts, eps)
    assert abs(hull.value - float(mp_hull)) <= hull.std_error
    assert abs(union.value - float(mp_union)) <= union.std_error
    assert union.achieved_rel_tol == union.std_error / union.value < 1e-9


@pytest.mark.parametrize("eps, flagged", [(1e-6, True), (1e-2, False)],
                         ids=["eps-1e-6", "eps-1e-2"])
def test_planar_areas_flag_small_eps(eps, flagged):
    # the arc terms cancel down to an area of order eps^2: at eps = 1e-6
    # both areas state 6.3e-3 relative, past the 1e-4 of every stated route
    pts = generate_points("uniform-ball", 2, 6, 23, radius=1.2 * eps)
    for est in _planar(pts, eps):
        assert est.low_confidence is flagged
        assert (est.achieved_rel_tol > 1e-4) is flagged


@pytest.mark.parametrize("n, eps", [(2, 1e-6), (3, 1e-4)])
def test_theorem2_flag_is_either_estimates(n, eps):
    pts = generate_points("uniform-ball", n, 6, 23, radius=1.2 * eps)
    out = theorem2_ratio(pts, eps, boundary_samples=16)
    assert out["union"].low_confidence
    assert out["low_confidence"] == (out["hull"].low_confidence
                                     or out["union"].low_confidence)


_PLANAR = dict(k=st.integers(1, 14), eps=st.floats(0.05, 2.0),
               radius=st.floats(0.2, 3.0), seed=st.integers(0, 2**20))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PLANAR)
def test_planar_areas_are_invariant(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 2, k, seed, radius=radius)
    base = _planar(pts, eps)
    moved = random_isometry(2, seed).apply_array(pts)
    shuffled = pts[np.random.default_rng(seed).permutation(k)]
    for other in (_planar(moved, eps), _planar(shuffled, eps)):
        for a, b in zip(base, other):
            assert abs(a.value - b.value) <= a.std_error + b.std_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PLANAR)
def test_planar_repeated_centers_count_once(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 2, k, seed, radius=radius)
    extra = pts[np.random.default_rng(seed).integers(0, k, size=3)]
    for a, b in zip(_planar(pts, eps), _planar(np.vstack([pts, extra]), eps)):
        assert a.value == b.value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PLANAR)
def test_planar_hull_holds_the_union(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 2, k, seed, radius=radius)
    hull, union = _planar(pts, eps)
    assert hull.value >= union.value - hull.std_error - union.std_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(count=st.integers(1, 6), eps=st.floats(0.05, 1.0),
       gap=st.floats(1e-3, 1.0), seed=st.integers(0, 2**20))
def test_planar_isolated_discs_are_exact(count, eps, gap, seed):
    # centers more than 2 eps apart along a moved geodesic: N whole discs
    step = 2.0 * eps + gap
    pos = step * (np.arange(count) - (count - 1) / 2.0)
    line = np.column_stack([np.tanh(pos), np.zeros(count)])
    pts = random_isometry(2, seed).apply_array(line)
    _, union = _planar(pts, eps)
    assert union.value == count * (2.0 * math.pi * (math.cosh(eps) - 1.0))


# ---------------------------------------------------------------------------
# spatial closed form: eps-balls clipped to their Voronoi cells


def _spatial(pts, eps, **kw):
    """The 3D union by `extension_volume`'s closed route."""
    est = extension_volume(pts, eps, check_lower_bound=False, **kw)
    assert est.method == "voronoi_cells_union"
    return est


def _m(r):
    """M(r) = integral of sinh^2 from 0 to r."""
    return (math.sinh(2.0 * r) - 2.0 * r) / 4.0


def _two_points_3d(d):
    p = math.tanh(d / 2.0)
    return np.array([[-p, 0.0, 0.0], [p, 0.0, 0.0]])


def _criterion8_spatial():
    """The 25 3D instances of acceptance criterion 8."""
    for j in range(1, 50, 2):
        family = ("uniform-ball", "clustered", "chain")[j % 3]
        eps = (0.4, 0.7, 1.0, 1.3)[j % 4]
        if family == "chain":
            pts = generate_points("chain", 3, 8, seed=800 + j, chain_spacing=0.6)
        else:
            pts = generate_points(family, 3, 10 + (j % 3) * 3, seed=800 + j)
        yield pts, eps, 800 + j


@pytest.mark.parametrize("eps", [0.4, 1.0, 1.3])
@pytest.mark.parametrize("d_of", [lambda e: 0.05, lambda e: 1.0, lambda e: 1.9,
                                  lambda e: 2.0 * e * (1.0 - 1e-9)],
                         ids=["d0.05", "d1", "d1.9", "tangent"])
def test_two_ball_union_matches_cap_quadrature(eps, d_of):
    # each ball loses the cap of directions that leave through the
    # bisector inside it: M(eps) - M(rho) over theta < theta_0
    d = d_of(eps)
    if d >= 2.0 * eps:
        want = 2.0 * ball_volume(3, eps)
    else:
        t = math.tanh(d / 2.0)
        cap, _ = integrate.quad(
            lambda th: (_m(eps) - _m(math.atanh(t / math.cos(th)))) * math.sin(th),
            0.0, math.acos(t / math.tanh(eps)), epsabs=1e-15, epsrel=1e-13,
            limit=200)
        want = 2.0 * (ball_volume(3, eps) - 2.0 * math.pi * cap)
    assert abs(_spatial(_two_points_3d(d), eps).value - want) <= 1e-13


def _cell_cubature(pts, eps, rows=400, cols=800):
    """Sum over balls of the integral of M(min(eps, rho(u))) over directions.

    Each ball is moved to the origin, where the bisector with a moved
    center q is the plane x . q = 1 - sqrt(1 - |q|^2); Gauss-Legendre in
    cos(theta) times the midpoint rule in phi.
    """
    x, w = np.polynomial.legendre.leggauss(rows)
    phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    total = 0.0
    for i, q in enumerate(pts):
        others = translation_to(-q).apply_array(np.delete(pts, i, axis=0))
        foot = 1.0 - np.sqrt(1.0 - np.sum(others ** 2, axis=1))
        for ct, wt in zip(x, w):
            st = math.sqrt(1.0 - ct * ct)
            u = np.column_stack([st * np.cos(phi), st * np.sin(phi),
                                 np.full(cols, ct)])
            along = u @ others.T
            reach = np.where(along > 0.0,
                             foot / np.where(along > 0.0, along, 1.0), np.inf)
            r = np.arctanh(np.minimum(math.tanh(eps), reach.min(axis=1)))
            total += wt * (2.0 * math.pi / cols) * np.sum((np.sinh(2 * r) - 2 * r) / 4)
    return total


def test_four_balls_with_a_voronoi_vertex_inside_match_cubature():
    # a skewed tetrahedron of centers about 0.9 from its Voronoi vertex
    tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
    skew = np.random.default_rng(1).normal(scale=0.05, size=(4, 3))
    pts = random_isometry(3, 1).apply_array(math.tanh(0.9) * tet + skew)
    eps = 1.0
    # the vertex solves (q_i / s_i - q_0 / s_0) . x = 1 / s_i - 1 / s_0
    s = np.sqrt(1.0 - np.sum(pts ** 2, axis=1))
    vertex = np.linalg.solve(pts[1:] / s[1:, None] - pts[0] / s[0],
                             1.0 / s[1:] - 1.0 / s[0])
    near = dist_matrix(vertex[None, :], pts)[0]
    assert np.ptp(near) < 1e-12 and near[0] < eps
    est = _spatial(pts, eps)
    assert abs(est.value - _cell_cubature(pts, eps)) <= 2e-7 * est.value


def test_spatial_union_pulls_against_region_mc():
    # region Monte Carlo is the independent route; these are the samples
    # and seeds criterion 8 ran through it
    pulls = []
    for pts, eps, seed in _criterion8_spatial():
        union = _spatial(pts, eps)
        mc = region_volume_mc(UnionOfBalls(pts, eps).region(),
                              samples=600_000, seed=seed)
        pulls.append((mc.value - union.value) / mc.std_error)
    pulls = np.array(pulls)
    within = float(np.mean(np.abs(pulls) <= 2.0))
    print(f"25 3D pulls: mean {pulls.mean():+.3f}, sd {pulls.std(ddof=1):.3f}, "
          f"|pull| <= 2 in {within:.0%}")
    assert len(pulls) == 25
    assert np.max(np.abs(pulls)) <= 3.5, pulls
    assert abs(pulls.mean()) <= 3.0 / math.sqrt(len(pulls)), pulls
    assert 0.5 <= pulls.std(ddof=1) <= 1.6, pulls
    assert within >= 0.8, pulls


def test_extension_volume_spatial_route():
    pts = generate_points("clustered", 3, 20, 3)
    est = extension_volume(pts, 1.0)
    assert est.method == "voronoi_cells_union"
    assert est.std_error > 0.0
    assert est.achieved_rel_tol == est.std_error / est.value < 1e-9
    assert est.evaluations > 0
    assert not est.low_confidence
    # nor does the 3D estimate (seed orders only the floor's packing)
    assert extension_volume(pts, 1.0, samples=10, seed=5, workers=2) == est
    assert extension_volume(np.zeros((1, 3)), 0.8).value == ball_volume(3, 0.8)


def _mp_spatial(pts, eps):
    """The Voronoi-cell union volume in 50 digits.

    The same construction as the library, at the float centers taken as
    exact: each face's rim arcs in closed form and its straight sides by
    mpmath quadrature.  Every neighbour of ball i clips every face of it,
    where the library keeps only the neighbours of both balls.
    """
    mp = mpmath.mp
    mp.dps = 50
    centers = []
    for row in pts:
        q = tuple(mp.mpf(float(v)) for v in row)
        if q not in centers:
            centers.append(q)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    e = mp.mpf(float(eps))
    te = mp.tanh(e)
    m_eps = (mp.sinh(2 * e) - 2 * e) / 4
    two_pi = 2 * mp.pi
    s = [mp.sqrt(1 - dot(q, q)) for q in centers]

    def seen_from(i, k):
        ci, ck = centers[i], centers[k]
        delta = [b - a for a, b in zip(ci, ck)]
        f = dot(ci, delta) / (s[i] * (1 + s[i]))
        loc = [dd + f * a for dd, a in zip(delta, ci)]
        norm = mp.sqrt(dot(loc, loc))
        cosh_d = (1 - dot(ci, ck)) / (s[i] * s[k])
        return norm / s[k] / (1 + cosh_d), [v / norm for v in loc]

    def g(t, cos_t):
        return m_eps * (1 - cos_t) - (cos_t * mp.atanh(t / cos_t) - mp.atanh(t)) / 2

    total = 0
    for i in range(len(centers)):
        seen = {k: seen_from(i, k) for k in range(len(centers)) if k != i}
        near = [k for k in seen if seen[k][0] < te]
        total += 4 * mp.pi * m_eps
        for k in near:
            t, u = seen[k]
            axis = min(range(3), key=lambda j: abs(u[j]))
            e1 = [mp.mpf(j == axis) - u[axis] * u[j] for j in range(3)]
            e1 = [a / mp.sqrt(dot(e1, e1)) for a in e1]
            e2 = [u[1] * e1[2] - u[2] * e1[1], u[2] * e1[0] - u[0] * e1[2],
                  u[0] * e1[1] - u[1] * e1[0]]
            c0 = t / te
            rim = mp.sqrt(1 - c0 * c0) / c0
            lines = []
            for l in near:
                if l != k:
                    tl, ul = seen[l]
                    a = (dot(ul, e1), dot(ul, e2))
                    na = mp.sqrt(a[0] ** 2 + a[1] ** 2)
                    n, p = (a[0] / na, a[1] / na), (tl / t - dot(ul, u)) / na
                    # co-circular centers cut a face along one line twice
                    if all(abs(n[0] - m[0]) + abs(n[1] - m[1]) + abs(p - pm) > 1e-30
                           for m, pm in lines):
                        lines.append((n, p))
            if any(p <= -rim for _, p in lines):
                continue
            cuts = []
            for n, p in lines:
                if p < rim:
                    phi, h = mp.atan2(n[1], n[0]) % two_pi, mp.acos(p / rim)
                    for shift in (-two_pi, 0, two_pi):
                        if phi + h + shift > 0 and phi - h + shift < two_pi:
                            cuts.append((max(phi - h + shift, 0),
                                         min(phi + h + shift, two_pi)))
            reach, kept = mp.mpf(0), mp.mpf(0)
            for lo, hi in sorted(cuts) + [(two_pi, two_pi)]:
                kept += max(lo - reach, 0)
                reach = max(reach, hi)
            face = g(t, c0) * kept
            for j, (n, p) in enumerate(lines):
                if abs(p) >= rim or p == 0:
                    continue
                low, up = -mp.sqrt(rim * rim - p * p), mp.sqrt(rim * rim - p * p)
                for jj, (m, pm) in enumerate(lines):
                    alpha, beta = m[1] * n[0] - m[0] * n[1], pm - p * dot(m, n)
                    if jj == j:
                        continue
                    if alpha > 0:
                        up = min(up, beta / alpha)
                    elif alpha < 0:
                        low = max(low, beta / alpha)
                    elif beta < 0:
                        up = low
                if low < up:
                    pa = abs(p)
                    face += mp.sign(p) * mp.quad(
                        lambda v: g(t, 1 / mp.sqrt(1 + (pa * mp.cosh(v)) ** 2)) / mp.cosh(v),
                        [mp.asinh(low / pa), mp.asinh(up / pa)])
            total -= face
    return total


def _ring_3d(count, radius):
    """`count` centers evenly spaced at hyperbolic radius `radius` in z = 0."""
    return np.column_stack([_ring(count, radius), np.zeros(count)])


_CUBE = math.tanh(0.7) * np.array(
    [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) / math.sqrt(3.0)


@pytest.mark.parametrize("pts, eps", [
    (_ring_3d(8, 0.5), 1.0),
    (_ring_3d(12, 0.8), 0.9),
    (_CUBE, 1.0),
    (np.array([[x, y, z] for x in (-.3, 0, .3) for y in (-.3, 0, .3)
               for z in (-.3, 0, .3)]), 0.5),
], ids=["ring-8", "ring-12", "cube", "grid"])
def test_spatial_union_of_cospherical_centers(pts, eps):
    # co-circular centers make several neighbours cut a face along one
    # line; the result must match a copy nudged off that degeneracy, and
    # a copy moved far out, where rounding splits the line
    est = _spatial(pts, eps)
    nudged = pts + 1e-10 * np.random.default_rng(0).standard_normal(pts.shape)
    assert abs(est.value - _spatial(nudged, eps).value) <= 1e-8 * est.value
    far = _spatial(translation_to(np.array([math.tanh(5.0), 0.0, 0.0]))
                   .apply_array(pts), eps)
    assert abs(est.value - far.value) <= est.std_error + far.std_error


@pytest.mark.parametrize("pts, eps", [
    (_two_points_3d(2.0 * (1 + 1e-12)), 1.0),
    (_two_points_3d(2.0 * (1 - 1e-12)), 1.0),
    (random_isometry(3, 0).apply_array(_two_points_3d(2.0 * (1 - 1e-12))), 1.0),
    (random_isometry(3, 1).apply_array(math.tanh(0.9) * np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)), 1.0),
    (_ring_3d(4, 0.6), 1.0),
    # centers about 5 from the origin: kappa ~ 6e3
    (translation_to(np.array([math.tanh(5.0), 0.0, 0.0])).apply_array(
        generate_points("uniform-ball", 3, 6, 2, radius=0.8)), 0.7),
    (generate_points("uniform-ball", 3, 6, 11, radius=0.06), 0.05),
    # rim arcs only, whose terms cancel at small eps
    (generate_points("uniform-ball", 3, 7, 1, radius=0.25), 0.0546875),
    # large eps, where G's log singularity comes close to the rim
    (generate_points("uniform-ball", 3, 6, 12, radius=1.5), 2.0),
    (generate_points("uniform-ball", 3, 6, 12, radius=1.5), 3.0),
    (generate_points("uniform-ball", 3, 6, 14, radius=1.0), 5.0),
], ids=["tangent-apart", "tangent-overlap", "tangent-moved", "tetrahedron",
        "square", "far-out", "small-eps", "rim-only", "eps-2", "eps-3", "eps-5"])
def test_spatial_union_within_its_stated_bound(pts, eps):
    est = _spatial(pts, eps)
    assert abs(est.value - float(_mp_spatial(pts, eps))) <= est.std_error
    assert est.achieved_rel_tol == est.std_error / est.value < 1e-9


@pytest.mark.parametrize("seed, eps, radius, flagged", [
    (23, 1e-4, 1.2e-4, True),
    (22, 1e-3, 1.2e-3, False),
], ids=["eps-1e-4", "eps-1e-3"])
def test_spatial_union_flags_small_eps(seed, eps, radius, flagged):
    # the sides' Lobachevsky terms cancel deeply at small eps, as in
    # exact_3d: the bound still holds, and past 1e-4 relative it is flagged
    pts = generate_points("uniform-ball", 3, 6, seed, radius=radius)
    est = _spatial(pts, eps)
    assert abs(est.value - float(_mp_spatial(pts, eps))) <= est.std_error
    assert est.low_confidence is flagged
    assert (est.achieved_rel_tol > 1e-4) is flagged


_SPATIAL = dict(k=st.integers(1, 10), eps=st.floats(0.05, 2.0),
                radius=st.floats(0.2, 3.0), seed=st.integers(0, 2**20))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_SPATIAL)
# a rim-only union whose rounding bound once undercounted its rim terms
@example(k=7, eps=0.0546875, radius=0.25, seed=1)
def test_spatial_union_is_invariant(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 3, k, seed, radius=radius)
    base = _spatial(pts, eps)
    moved = random_isometry(3, seed).apply_array(pts)
    shuffled = pts[np.random.default_rng(seed).permutation(k)]
    for other in (_spatial(moved, eps), _spatial(shuffled, eps)):
        assert abs(base.value - other.value) <= base.std_error + other.std_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_SPATIAL)
def test_spatial_repeated_centers_count_once(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 3, k, seed, radius=radius)
    extra = pts[np.random.default_rng(seed).integers(0, k, size=3)]
    assert _spatial(pts, eps).value == _spatial(np.vstack([pts, extra]), eps).value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_SPATIAL)
def test_spatial_union_below_the_ball_sum(k, eps, radius, seed):
    pts = generate_points("uniform-ball", 3, k, seed, radius=radius)
    union = _spatial(pts, eps)
    assert union.value <= k * ball_volume(3, eps) + union.std_error
    assert union.value >= ball_volume(3, eps) - union.std_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(count=st.integers(1, 6), eps=st.floats(0.05, 1.0),
       gap=st.floats(1e-3, 1.0), seed=st.integers(0, 2**20))
def test_spatial_isolated_balls_are_exact(count, eps, gap, seed):
    # centers more than 2 eps apart along a moved geodesic: N whole balls
    step = 2.0 * eps + gap
    pos = step * (np.arange(count) - (count - 1) / 2.0)
    line = np.column_stack([np.tanh(pos), np.zeros(count), np.zeros(count)])
    pts = random_isometry(3, seed).apply_array(line)
    assert _spatial(pts, eps).value == count * ball_volume(3, eps)
