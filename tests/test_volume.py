"""Volume estimators cross-checked against each other and closed forms.

Three independent routes exist (closed forms in 2D and 3D, facet-cone
quadrature, Monte Carlo) plus the ball closed form; every test here plays
at least two of them against each other.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from hypervol import (
    BOUNDARY_TOL,
    IdealPoint,
    Region,
    Simplex,
    UnionOfBalls,
    VolumeEstimate,
    ball_volume,
    cone_sections,
    cone_volume,
    convex_hull,
    extension_volume,
    generate_points,
    polytope_volume,
    random_isometry,
    region_volume_mc,
    simplex_volume,
    sinh_power_integral,
    theorem2_ratio,
    triangle_area_2d,
)
from hypervol.experiments import _fmt
from hypervol.hull import apex_triangulation
from hypervol.klein import _radial_table
from hypervol.volume import (
    _CHILDREN,
    _KID_POINTS,
    _M3_SWITCH,
    _RULES,
    _children,
    _radial_mass_ratio,
    lobachevsky,
    preferred_method,
)

TRI = np.array([[0.3, 0.0], [0.0, 0.3], [-0.25, -0.2]])
TET = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
OCT = np.vstack([np.eye(3), -np.eye(3)])


def test_tiny_simplex_is_euclidean():
    # at scale 1e-3 the density is 1 + O(1e-6); volumes must agree to 1e-5
    verts = 1e-3 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    s = Simplex(verts)
    est = simplex_volume(s, budget=20_000)
    assert est.value == pytest.approx(s.euclidean_volume(), rel=1e-5)
    assert est.std_error == 0.0


def test_triangle_angle_defect_vs_quadrature():
    exact = triangle_area_2d(*TRI)
    est = simplex_volume(Simplex(TRI), budget=60_000)
    # the reported error bound must cover the true error
    assert abs(est.value - exact) <= est.achieved_rel_tol * exact
    assert est.value == pytest.approx(exact, rel=2e-4)


def test_triangle_exact_2d_route():
    est = simplex_volume(Simplex(TRI), method="exact_2d")
    assert est.method == "exact_2d"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(triangle_area_2d(*TRI), rel=1e-13)
    with pytest.raises(ValueError):
        simplex_volume(Simplex(np.eye(3) * 0.2), method="exact_2d")


def klein_angle(p, q, r) -> float:
    """Riemannian angle at the interior point p between the geodesics
    toward q and r: the reference route for the angle defects.

    The metric tensor at p is g = I/(1-|p|^2) + p p^T/(1-|p|^2)^2; chords
    are geodesics, so the chord directions are the geodesic directions,
    and the angle is an acos, one vertex at a time.
    """
    p, q, r = (np.asarray(x, dtype=float) for x in (p, q, r))
    u, v = q - p, r - p
    s = 1.0 - float(p @ p)

    def g(a, b):
        return float(a @ b) / s + float(p @ a) * float(p @ b) / (s * s)

    return math.acos(min(1.0, max(-1.0, g(u, v) / math.sqrt(g(u, u) * g(v, v)))))


def test_angle_defect_identity():
    a, b, c = TRI
    defect = math.pi - (klein_angle(a, b, c) + klein_angle(b, c, a)
                        + klein_angle(c, a, b))
    assert triangle_area_2d(a, b, c) == pytest.approx(defect, rel=1e-12)


def test_degenerate_triangle_has_zero_area():
    assert triangle_area_2d([0.0, 0.0], [0.2, 0.2], [0.4, 0.4]) == 0.0


def test_planar_angle_and_area_admit_only_the_closed_ball():
    with pytest.raises(ValueError, match="closed unit ball"):
        triangle_area_2d([0.0, 0.0], [0.5, 0.0], [1.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        triangle_area_2d([0.0, 0.0], [0.5, 0.0], [math.nan, 0.5])
    # ideal vertices stay admitted, as IdealPoint or as rows on the sphere
    assert triangle_area_2d([1.0, 0.0], [0.0, 1.0], [0.0, 0.0]) \
        == pytest.approx(math.pi / 2, rel=1e-12)
    assert triangle_area_2d(IdealPoint([1.0, 0.0]), [0.0, 1.0], [0.0, 0.0]) \
        == pytest.approx(math.pi / 2, rel=1e-12)


def test_simplex_mc_agrees_with_quadrature():
    rng = np.random.default_rng(13)
    for trial in range(4):
        verts = rng.uniform(-0.45, 0.45, size=(4, 3))
        s = Simplex(verts)
        quad = simplex_volume(s, budget=40_000)
        mc = simplex_volume(s, method="monte_carlo", budget=80_000,
                            seed=trial)
        assert mc.method == "monte_carlo"
        assert mc.std_error > 0
        assert abs(mc.value - quad.value) < 4 * mc.std_error + 1e-9


def test_polytope_exact_2d_matches_quadrature():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.55, 0.55, size=(9, 2))
    poly = convex_hull(pts)
    exact = polytope_volume(poly, method="exact_2d")
    quad = polytope_volume(poly, budget=80_000)
    assert exact.method == "exact_2d"
    assert abs(quad.value - exact.value) <= quad.achieved_rel_tol * exact.value
    assert quad.value == pytest.approx(exact.value, rel=2e-4)


def test_polytope_mc_vs_quadrature_3d():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-0.5, 0.5, size=(12, 3))
    poly = convex_hull(pts)
    quad = polytope_volume(poly, budget=60_000)
    mc = polytope_volume(poly, method="monte_carlo", budget=120_000, seed=1)
    assert abs(mc.value - quad.value) < 4 * mc.std_error + 1e-9


_NEAR_IDEAL_TRI = [[0.0, 0.0], [0.999, 0.0], [0.0, 0.999]]
_IDEAL_HULL_3D = generate_points("uniform-ideal", 3, 12, 5)


@pytest.mark.parametrize("simplex_budget, polytope_budget, flagged", [
    (200, 2_000, True), (200_000, 200_000, False)])
def test_simplex_and_polytope_mc_flag_past_five_percent(
        simplex_budget, polytope_budget, flagged):
    # relative SEs of 0.069 and 0.062 at the small budgets, 0.012 and 0.015
    # at 200 000 samples
    ests = [
        simplex_volume(_NEAR_IDEAL_TRI, "monte_carlo", budget=simplex_budget,
                       seed=1),
        polytope_volume(convex_hull(_IDEAL_HULL_3D), "monte_carlo",
                        budget=polytope_budget, seed=1),
    ]
    for est in ests:
        assert est.low_confidence is flagged
        assert (est.std_error > 0.05 * est.value) is flagged


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        polytope_volume(convex_hull(TRI), method="auto")


def test_region_mc_ball_closed_form():
    # a region that fills its bounding ball
    r_e = 0.7
    region = Region(
        membership=lambda pts: np.linalg.norm(pts, axis=1) <= r_e,
        bounding_radius=r_e, dim=2,
    )
    exact = ball_volume(2, math.atanh(r_e))
    est = region_volume_mc(region, samples=200_000, seed=5)
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.std_error / exact < 0.02


def test_region_mc_radial_branch_ball():
    # near the boundary sphere, where the density is most singular
    r_e = 0.995
    region = Region(
        membership=lambda pts: np.linalg.norm(pts, axis=1) <= r_e,
        bounding_radius=r_e, dim=3,
    )
    exact = ball_volume(3, math.atanh(r_e))
    est = region_volume_mc(region, samples=300_000, seed=9)
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.std_error / exact < 0.03


_TABLE_RADII = (0.9, 0.99, 0.995, 0.9999, 1 - 1e-9, 1 - 1e-12)


@pytest.mark.parametrize("n", range(2, 17))
def test_radial_table_is_nondecreasing(n):
    # the table is the raw sinh-power integrals, with no running maximum
    for r_e in _TABLE_RADII:
        radii, cdf = _radial_table(n, math.atanh(r_e))
        assert np.array_equal(cdf, sinh_power_integral(n - 1, radii))
        assert np.all(np.diff(cdf) >= 0.0)


def _centred_ball(n):
    # a centred ball of Euclidean radius 0.6 in a bounding radius of 0.8
    region = Region(
        membership=lambda pts: np.linalg.norm(pts, axis=1) <= 0.6,
        bounding_radius=0.8, dim=n,
    )
    return region, ball_volume(n, math.atanh(0.6))


def _off_centre_ball(n):
    # one ball of radius 1.2 around a point at Euclidean norm 0.4: its
    # bounding radius tanh(atanh 0.4 + 1.2) = 0.925 is hit only in part
    centre = np.full((1, n), 0.4 / math.sqrt(n))
    region = UnionOfBalls(centre, 1.2).region()
    assert 0.9 < region.bounding_radius < 0.99
    return region, ball_volume(n, 1.2)


@pytest.mark.parametrize("case, n", [
    (_centred_ball, 3), (_off_centre_ball, 2), (_off_centre_ball, 3),
], ids=["centred-3", "off_centre-2", "off_centre-3"])
def test_region_mc_seeded_loop_is_calibrated(case, n):
    # repeated seeds: the closed form must land within 4 sigma every time
    region, exact = case(n)
    for seed in range(6):
        est = region_volume_mc(region, samples=120_000, seed=seed)
        assert abs(est.value - exact) < 4 * est.std_error


def test_region_mc_workers_invariance():
    region = Region(
        membership=lambda pts: np.linalg.norm(pts - 0.2, axis=1) <= 0.3,
        bounding_radius=0.9, dim=3,
    )
    one = region_volume_mc(region, samples=150_000, seed=17, workers=1)
    four = region_volume_mc(region, samples=150_000, seed=17, workers=4)
    assert one.value == four.value
    assert one.std_error == four.std_error


def _mp_mass_ratio(n, x):
    """m_n(r)/r^n at r = sqrt(x) for the float x, in closed form; the terms
    cancel at small r, hence 80 digits."""
    with mpmath.workdps(80):
        x = mpmath.mpf(float(x))
        r, g = mpmath.sqrt(x), 1 - x
        m = {
            2: g ** -0.5 - 1,
            3: r / (2 * g) - mpmath.atanh(r) / 2,
            4: g ** -1.5 / 3 - g ** -0.5 + mpmath.mpf(2) / 3,
        }[n]
        return float(m / r ** n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_mass_ratio_at_small_r(n):
    # across 1e-3, where a two-term series once took over and lost 1e-12
    r = np.array([1e-9, 5e-4, 9.99e-4, 1.001e-3, 5e-3])
    got = _radial_mass_ratio(n, r * r)
    for xi, gi in zip(r * r, got):
        want = _mp_mass_ratio(n, xi)
        assert abs(gi - want) <= 1e-14 * want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_mass_ratio_over_the_whole_range(n):
    # r from 1e-9 to 1 - 1e-12, densest where the n = 3 closed form's terms
    # cancel, and on both sides of its series switch
    x = np.concatenate([
        np.geomspace(1e-9, 0.99, 240) ** 2,
        (1.0 - np.geomspace(1e-12, 1e-2, 120)) ** 2,
        np.linspace(0.2, 0.4, 101) ** 2,
        [np.nextafter(_M3_SWITCH, 0.0), _M3_SWITCH, np.nextafter(_M3_SWITCH, 1.0)],
    ])
    got = _radial_mass_ratio(n, x)
    want = np.array([_mp_mass_ratio(n, xi) for xi in x])
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    # the limit at the center, m_n(r)/r^n -> 1/n
    assert _radial_mass_ratio(n, np.zeros(1))[0] == 1.0 / n


def test_radial_mass_ratio_rejects_other_dimensions():
    with pytest.raises(ValueError, match="n = 2, 3, 4"):
        _radial_mass_ratio(5, np.array([0.25]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_children_are_the_per_child_products(d):
    # every child weight is 0, 1/2 or 1, so one stacked product is exact
    cells = np.random.default_rng(d).uniform(-0.6, 0.6, (64, d + 1, d + 1))
    per_child = _CHILDREN[d] @ cells[:, None]
    assert _children(cells).tobytes() == per_child.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_precomposed_rule_points_within_a_few_ulp(d):
    cells = np.random.default_rng(10 + d).uniform(-0.6, 0.6, (64, d + 1, d + 1))
    composed = _RULES[d][0] @ (_CHILDREN[d] @ cells[:, None])
    direct = (_KID_POINTS[d] @ cells).reshape(composed.shape)
    scale = np.abs(cells).max(axis=(1, 2))[:, None, None, None]
    assert np.all(np.abs(direct - composed) <= 4 * np.spacing(scale))


def test_region_mc_zero_hits_low_confidence():
    region = Region(
        membership=lambda pts: np.zeros(len(pts), dtype=bool),
        bounding_radius=0.5, dim=2,
    )
    est = region_volume_mc(region, samples=10_000, seed=0)
    assert est.value == 0.0
    assert est.low_confidence
    assert est.std_error > 0  # rule-of-three bound, not a false certainty


def test_volume_estimate_validation_and_json():
    est = VolumeEstimate(1.5, 0.01, 1000, "monte_carlo")
    d = est.to_json_dict()
    assert d == {"value": 1.5, "std_error": 0.01, "evaluations": 1000,
                 "method": "monte_carlo", "low_confidence": False,
                 "achieved_rel_tol": None}
    # numpy scalars from the estimators serialize as JSON-native values
    quad = VolumeEstimate(2.0, 0.0, 10, "quadrature",
                          low_confidence=np.bool_(True),
                          achieved_rel_tol=np.float64(3e-3))
    d = json.loads(json.dumps(quad.to_json_dict()))
    assert d["low_confidence"] is True
    assert d["achieved_rel_tol"] == 3e-3
    assert type(quad.to_json_dict()["achieved_rel_tol"]) is float
    with pytest.raises(ValueError):
        VolumeEstimate(-1.0, 0.0, 1, "quadrature")
    with pytest.raises(ValueError):
        Region(membership=None, bounding_radius=1.5, dim=2)


@pytest.mark.parametrize("value, std_error", [(math.nan, 0.0), (1.0, math.nan)])
def test_volume_estimate_rejects_nan(value, std_error):
    with pytest.raises(ValueError, match="nonnegative"):
        VolumeEstimate(value, std_error, 1, "monte_carlo")


def test_estimate_fields_are_plain_python_types():
    # one estimate from every route that sets low_confidence; numpy
    # scalars would reach the CSV writer as "False" and as
    # "np.float64(...)" instead of 0 and a plain float repr
    ideal3 = convex_hull(generate_points("uniform-ideal", 3, 32, 1))
    square = convex_hull(0.95 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))
    octahedron = convex_hull(0.999 * OCT)
    planar = generate_points("clustered", 2, 20, 3)
    ests = [
        simplex_volume(TRI, "exact_2d"),
        simplex_volume(1e-5 * TRI, "exact_2d"),
        polytope_volume(ideal3, "exact_3d"),
        simplex_volume(TRI, budget=2_000),
        simplex_volume(TRI, "monte_carlo", budget=2_000),
        polytope_volume(ideal3, "monte_carlo", budget=2_000),
        region_volume_mc(UnionOfBalls(planar, 1.0).region(), samples=2_000),
        cone_volume(cone_sections(square, square.vertices[0], 16)),
        cone_volume(cone_sections(octahedron, octahedron.vertices[0], 8)),
        theorem2_ratio(planar, 1.0)["hull"],
        extension_volume(planar, 1.0),
        extension_volume(generate_points("clustered", 3, 12, 3), 1.0),
    ]
    assert {e.method for e in ests} >= {
        "exact_2d", "exact_3d", "quadrature", "monte_carlo",
        "kept_arcs_hull", "kept_arcs_union", "voronoi_cells_union",
        "closed_sections"}
    assert {e.low_confidence for e in ests} == {False, True}
    for est in ests:
        assert type(est.low_confidence) is bool
        assert _fmt(est.low_confidence) in ("0", "1")
        assert est.achieved_rel_tol is None or type(est.achieved_rel_tol) is float
        assert "np." not in _fmt(est.achieved_rel_tol)


def test_quadrature_reports_achieved_tolerance():
    # default target is 1e-4 relative to the whole; the summed bound stays near it
    est = simplex_volume(Simplex(TRI), budget=60_000)
    assert est.achieved_rel_tol is not None
    assert est.achieved_rel_tol < 2e-4


def test_degenerate_polytope_volume_zero():
    # rank-deficient vertex set short-circuits to the zero estimate
    from hypervol.hull import Polytope

    verts = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0],
                      [0.1, 0.1, 0.0]])
    poly = Polytope(verts, [(0, 1, 2)], np.array([[0.0, 0.0, 1.0]]),
                    np.array([0.0]))
    est = polytope_volume(poly)
    assert est.value == 0.0


@pytest.mark.parametrize("method, budget, match", [
    ("auto", None, "unknown method"),
    ("quadrature", -5, "budget"),
    ("monte_carlo", -5, "budget"),
    ("exact_3d", None, "needs n = 3"),
])
def test_degenerate_polytope_checks_arguments_first(method, budget, match):
    # the volume-0 short cut comes after the checks a full polytope gets
    from hypervol.hull import Polytope

    flat = Polytope([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], [(0, 2)],
                    np.array([[0.0, 1.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match=match):
        polytope_volume(flat, method, budget=budget)


@pytest.mark.parametrize("method, verts", [
    ("exact_2d", [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]]),
    ("exact_3d", [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.1, 0.0]]),
    ("quadrature", [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.1, 0.0]]),
    ("monte_carlo", [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.1, 0.0]]),
])
def test_flat_simplex_gets_the_flat_polytope_estimate(method, verts):
    # one rule for degenerate bodies: no rounding noise, no evaluations
    assert simplex_volume(verts, method) == VolumeEstimate(0.0, 0.0, 0, method)


def test_quadrature_flags_missed_tolerance():
    # near-ideal hull at the sweep budget: ends near 1.2e-2, far from 1e-4
    pts = generate_points("uniform-ideal", 3, 64, seed=64)
    est = polytope_volume(convex_hull(pts), budget=400_000)
    assert est.achieved_rel_tol > 1e-3
    assert est.low_confidence
    est = simplex_volume(Simplex((1.0 - 1e-6) * TET), budget=4_000)
    assert est.achieved_rel_tol > 1e-4
    assert est.low_confidence
    # a converged triangle meets the tolerance and is not flagged
    for est in (simplex_volume(Simplex(TRI), budget=60_000),
                polytope_volume(convex_hull(TRI), budget=60_000)):
        assert est.achieved_rel_tol <= 1e-4
        assert not est.low_confidence


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 4]), extra=st.integers(2, 14),
       family=st.sampled_from(["uniform-ideal", "uniform-ball", "clustered"]),
       seed=st.integers(0, 2**20), budget=st.integers(2_000, 200_000))
def test_quadrature_budget_and_stated_tolerance(n, extra, family, seed, budget):
    # one budget for the whole call: only the first pass over each facet,
    # its root cell and children (q (1 + C) = n (1 + 2^(n-1)) evaluations),
    # may exceed it; the flag is the tolerance test, and the stated
    # tolerance covers the true error where a closed form gives it
    poly = convex_hull(generate_points(family, n, n + extra, seed=seed))
    est = polytope_volume(poly, "quadrature", budget=budget)
    first_pass = len(poly.facets) * n * (1 + 2 ** (n - 1))
    assert est.evaluations <= max(budget, first_pass)
    assert est.low_confidence == (est.achieved_rel_tol > 1e-4)
    if n < 4:
        exact = polytope_volume(poly, preferred_method(n)).value
        assert abs(est.value - exact) <= est.achieved_rel_tol * exact


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_budget_edges(n):
    # the first pass over each facet, q (1 + C) evaluations with q = n and
    # C = 2^(n-1), always runs; a refinement runs only once the budget pays
    # its whole C^2 q, and these near-ideal hulls miss 1e-4 either way
    poly = convex_hull(generate_points("uniform-ideal", n, n + 4, seed=n))
    kids = 2 ** (n - 1)
    first, cost = len(poly.facets) * n * (1 + kids), kids * kids * n
    for budget, spent in ((1, first), (first + cost - 1, first),
                          (first + cost, first + cost)):
        est = polytope_volume(poly, "quadrature", budget=budget)
        assert est.evaluations == spent
        assert est.achieved_rel_tol > 1e-4
        assert est.low_confidence


def test_quadrature_budget_is_total_on_4d_hull():
    # 54 facets, where per-facet budget shares once spent 1,011,096 of 400k
    poly = convex_hull(generate_points("uniform-ideal", 4, 16, seed=16))
    est = polytope_volume(poly, "quadrature", budget=400_000)
    fine = polytope_volume(poly, "quadrature", budget=4_000_000)
    assert est.evaluations <= 400_000
    assert fine.evaluations <= 4_000_000
    assert abs(est.value - fine.value) <= est.achieved_rel_tol * est.value


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_budget_below_one_raises(method, budget):
    with pytest.raises(ValueError, match="budget"):
        simplex_volume(Simplex(TRI), method, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        polytope_volume(convex_hull(TRI), method, budget=budget)


def test_polytope_mc_splits_budget_exactly():
    # k simplices get budget // k samples each, with no per-simplex floor
    square = convex_hull(0.4 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))
    k = len(apex_triangulation(square, square.interior_point()))
    assert k == 4
    assert polytope_volume(square, "monte_carlo", budget=3_000).evaluations == 3_000
    assert polytope_volume(square, "monte_carlo", budget=k).evaluations == k
    with pytest.raises(ValueError, match="budget"):
        polytope_volume(square, "monte_carlo", budget=k - 1)


def _lobachevsky_spence(x):
    """Independent oracle: L(x) = Im Li2(e^{2ix}) / 2, Li2(w) = spence(1 - w)."""
    return 0.5 * special.spence(1.0 - np.exp(2j * np.asarray(x))).imag


def test_lobachevsky_series_matches_spence():
    xs = np.concatenate([np.linspace(-7.0, 7.0, 4001),
                         [0.0, 1e-12, math.pi / 6, math.pi / 4, math.pi / 3,
                          math.pi / 2, math.pi, -math.pi / 2 + 1e-9]])
    assert np.max(np.abs(lobachevsky(xs) - _lobachevsky_spence(xs))) < 1e-13
    assert lobachevsky(0.0) == 0.0


def test_ideal_solids_tend_to_their_closed_forms():
    # regular ideal tetrahedron 3 L(pi/3) and octahedron 8 L(pi/4); the
    # truncated solids sit below them and close the gap as the radius -> 1
    for verts, closed in ((TET, 3.0 * _lobachevsky_spence(math.pi / 3)),
                          (OCT, 8.0 * _lobachevsky_spence(math.pi / 4))):
        gaps = []
        for cut in (1e-6, 1e-9):
            est = polytope_volume(convex_hull((1.0 - cut) * verts), "exact_3d")
            assert est.method == "exact_3d"
            gaps.append((closed - est.value) / closed)
        assert 0.0 < gaps[1] < 1e-7
        assert gaps[1] < gaps[0] / 10.0
    spx = simplex_volume((1.0 - 1e-9) * TET, method="exact_3d")
    assert spx.value == pytest.approx(1.01494158, abs=5e-9)


def test_exact_3d_matches_quadrature():
    for k, size in enumerate((8, 16, 40)):
        poly = convex_hull(generate_points("uniform-ball", 3, size, seed=70 + k))
        exact = polytope_volume(poly, "exact_3d")
        quad = polytope_volume(poly, budget=4_000_000)
        assert not quad.low_confidence
        assert abs(exact.value - quad.value) <= quad.achieved_rel_tol * quad.value
    rng = np.random.default_rng(31)
    verts = rng.uniform(-0.6, 0.6, size=(4, 3))
    exact = simplex_volume(verts, "exact_3d")
    quad = simplex_volume(verts, budget=4_000_000)
    assert abs(exact.value - quad.value) <= quad.achieved_rel_tol * quad.value


def test_exact_3d_simplex_mc_pulls():
    # against the exact value, MC pulls must look standard normal
    rng = np.random.default_rng(57)
    pulls = []
    for k in range(40):
        verts = rng.uniform(-0.55, 0.55, size=(4, 3))
        exact = simplex_volume(verts, "exact_3d").value
        mc = simplex_volume(verts, "monte_carlo", budget=200_000, seed=k)
        pulls.append((mc.value - exact) / mc.std_error)
    assert abs(np.mean(pulls)) < 0.5
    assert 0.7 < np.std(pulls) < 1.3


def test_exact_3d_rounding_bound_covers_tiny_bodies():
    # the Lobachevsky terms cancel down to the volume, so the stated
    # tolerance grows as the body shrinks and must cover the real error
    corner = np.vstack([np.zeros(3), np.eye(3)])
    for scale in (1e-3, 1e-2):
        exact = simplex_volume(scale * corner, "exact_3d")
        quad = simplex_volume(scale * corner, budget=4_000_000)
        gap = abs(exact.value - quad.value) / quad.value
        assert gap <= exact.achieved_rel_tol
        assert not exact.low_confidence
    tiny = simplex_volume(1e-4 * corner, "exact_3d")
    assert tiny.achieved_rel_tol > 1e-4
    assert tiny.low_confidence
    big = polytope_volume(convex_hull(generate_points("uniform-ideal", 3, 64,
                                                      seed=64)), "exact_3d")
    assert big.achieved_rel_tol < 1e-12
    assert not big.low_confidence


@settings(max_examples=25, deadline=None, derandomize=True)
@given(size=st.integers(4, 30), seed=st.integers(0, 2**20))
def test_exact_3d_isometry_invariant(size, seed):
    pts = generate_points("uniform-ball", 3, size, seed=seed, radius=2.0)
    moved = random_isometry(3, seed=seed + 1).apply_array(pts)
    a = polytope_volume(convex_hull(pts), "exact_3d").value
    b = polytope_volume(convex_hull(moved), "exact_3d").value
    assert a == pytest.approx(b, rel=1e-9)


def _scalar_triangle_area(a, b, c):
    """The per-vertex angle-defect loop that exact_2d replaced."""
    angle_sum = 0.0
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        xc = np.asarray(x, dtype=float)
        if float(xc @ xc) >= (1.0 - BOUNDARY_TOL) ** 2:
            continue
        angle_sum += klein_angle(xc, y, z)
    return max(math.pi - angle_sum, 0.0)


def test_vectorized_exact_2d_matches_scalar_loop():
    rng = np.random.default_rng(8)
    for _ in range(200):
        tri = generate_points("uniform-ball", 2, 3, seed=int(rng.integers(1 << 30)),
                              radius=3.0)
        assert triangle_area_2d(*tri) == pytest.approx(
            _scalar_triangle_area(*tri), abs=1e-12)
    corners = np.array([[1.0, 0.0], [0.0, 1.0], [-0.3, -0.2]])
    ideal = (IdealPoint(corners[0]), IdealPoint(corners[1]), corners[2])
    assert triangle_area_2d(*ideal) == pytest.approx(
        _scalar_triangle_area(*corners), abs=1e-12)
    for size in (5, 40, 200):
        poly = convex_hull(generate_points("uniform-ideal", 2, size, seed=size))
        loop = sum(_scalar_triangle_area(*spx)
                   for spx in apex_triangulation(poly, poly.interior_point()))
        assert polytope_volume(poly, "exact_2d").value == pytest.approx(
            loop, rel=1e-12)


def _mp_fan_area(fan) -> float:
    """Summed areas of a (k, 3, 2) batch of triangles in 50-digit arithmetic.

    Vertices within BOUNDARY_TOL of the sphere are ideal (angle 0), as in
    exact_2d; every other angle is the same arctan2 on the exact inputs.
    """
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for tri in fan:
            total += mpmath.pi
            for i in range(3):
                if float(tri[i] @ tri[i]) >= (1.0 - BOUNDARY_TOL) ** 2:
                    continue
                p, q, r = ([mpmath.mpf(float(x)) for x in tri[(i + j) % 3]]
                           for j in range(3))
                s = 1 - p[0] ** 2 - p[1] ** 2
                u = [q[0] - p[0], q[1] - p[1]]
                v = [r[0] - p[0], r[1] - p[1]]
                cos = (s * (u[0] * v[0] + u[1] * v[1])
                       + (p[0] * u[0] + p[1] * u[1]) * (p[0] * v[0] + p[1] * v[1]))
                total -= mpmath.atan2(
                    mpmath.sqrt(s) * abs(u[0] * v[1] - u[1] * v[0]), cos)
        return total


@pytest.mark.parametrize("family, size, radius, stated", [
    ("uniform-ideal", 8, 1.5, 2e-9),
    ("uniform-ideal", 64, 1.5, 2e-9),
    ("uniform-ideal", 256, 1.5, 2e-9),
    ("uniform-ball", 12, 1.5, 1e-13),
    ("uniform-ball", 40, 1.5, 1e-13),
    ("uniform-ball", 12, 1e-3, 1e-7),
    ("uniform-ball", 40, 1e-3, 1e-7),
    ("clustered", 20, 1.5, 1e-12),
])
def test_exact_2d_bound_covers_50_digit_areas(family, size, radius, stated):
    # the largest error seen across these 24 fans was 0.016 of the bound
    for seed in (1, 2, 3):
        poly = convex_hull(generate_points(family, 2, size, seed, radius=radius))
        est = polytope_volume(poly, "exact_2d")
        exact = _mp_fan_area(apex_triangulation(poly, poly.interior_point()))
        assert abs(float(exact - est.value)) <= 0.05 * est.achieved_rel_tol * est.value
        assert est.achieved_rel_tol < stated
        assert not est.low_confidence


@pytest.mark.parametrize("scale, error, flagged", [
    (1e-3, 1.5e-9, False), (1e-5, 9.95e-6, True), (1e-7, 0.21, True)])
def test_exact_2d_bound_covers_tiny_triangles(scale, error, flagged):
    # the angles stay O(1) and cancel down to an area of order scale^2,
    # so the stated error grows as the triangle shrinks, and is flagged
    tri = scale * TRI
    est = simplex_volume(tri, "exact_2d")
    exact = _mp_fan_area(tri[None])
    gap = abs(float(exact - est.value)) / float(exact)
    assert gap == pytest.approx(error, rel=0.01)
    assert gap <= est.achieved_rel_tol
    assert est.low_confidence is flagged


def test_preferred_method_by_dimension():
    assert [preferred_method(n) for n in (2, 3, 4, 5, 6)] == [
        "exact_2d", "exact_3d", "quadrature", "monte_carlo", "monte_carlo"]
    with pytest.raises(ValueError):
        polytope_volume(convex_hull(TRI), method="exact_3d")
    with pytest.raises(ValueError):
        simplex_volume(TRI, method="exact_3d")


def test_quadrature_refuses_n5():
    # from n = 5 on Monte Carlo is chosen explicitly, never by a fallback
    spx = np.vstack([np.zeros(5), 0.5 * np.eye(5)])
    with pytest.raises(ValueError, match="quadrature"):
        simplex_volume(spx, method="quadrature")
    with pytest.raises(ValueError, match="quadrature"):
        polytope_volume(convex_hull(spx), method="quadrature")
    est = simplex_volume(spx, preferred_method(5), budget=20_000, seed=1)
    assert est.method == "monte_carlo"
    assert est.std_error > 0
