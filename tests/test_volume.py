"""Volume estimators cross-checked against each other and closed forms.

Three independent routes exist (closed forms in 2D and 3D, facet-cone
quadrature, Monte Carlo) plus the ball closed form; every test here plays
at least two of them against each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from hypervol import (
    BOUNDARY_TOL,
    IdealPoint,
    Region,
    Simplex,
    VolumeEstimate,
    ball_volume,
    convex_hull,
    generate_points,
    klein_angle,
    polytope_volume,
    random_isometry,
    region_volume_mc,
    simplex_volume,
    triangle_area_2d,
)
from hypervol.hull import apex_triangulation
from hypervol.volume import lobachevsky, preferred_method

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


def test_angle_defect_identity():
    a, b, c = TRI
    defect = math.pi - (klein_angle(a, b, c) + klein_angle(b, c, a)
                        + klein_angle(c, a, b))
    assert triangle_area_2d(a, b, c) == pytest.approx(defect, rel=1e-12)


def test_degenerate_triangle_has_zero_area():
    assert triangle_area_2d([0.0, 0.0], [0.2, 0.2], [0.4, 0.4]) == 0.0


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


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        polytope_volume(convex_hull(TRI), method="auto")


def test_region_mc_ball_closed_form():
    # Euclidean-proposal branch (bounding radius below the switch)
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
    # bounding radius past 0.99 exercises the hyperbolic-radial sampler
    r_e = 0.995
    region = Region(
        membership=lambda pts: np.linalg.norm(pts, axis=1) <= r_e,
        bounding_radius=r_e, dim=3,
    )
    exact = ball_volume(3, math.atanh(r_e))
    est = region_volume_mc(region, samples=300_000, seed=9)
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.std_error / exact < 0.03


def test_region_mc_seeded_loop_is_calibrated():
    # repeated seeds: the closed form must land within 4 sigma every time
    r_e = 0.6
    exact = ball_volume(3, math.atanh(r_e))
    region = Region(
        membership=lambda pts: np.linalg.norm(pts, axis=1) <= r_e,
        bounding_radius=0.8, dim=3,
    )
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
                 "method": "monte_carlo"}
    assert est.dumps() == VolumeEstimate(1.5, 0.01, 1000,
                                         "monte_carlo").dumps()
    with pytest.raises(ValueError):
        VolumeEstimate(-1.0, 0.0, 1, "quadrature")
    with pytest.raises(ValueError):
        Region(membership=None, bounding_radius=1.5, dim=2)


def test_quadrature_reports_achieved_tolerance():
    # default target is 1e-4 relative per facet; the summed bound stays near it
    est = simplex_volume(Simplex(TRI), budget=60_000)
    assert est.achieved_rel_tol is not None
    assert est.achieved_rel_tol < 2e-4


def test_degenerate_polytope_volume_zero():
    # rank-deficient vertex set short-circuits to the zero estimate
    from hypervol.hull import Polytope

    verts = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0],
                      [0.1, 0.1, 0.0]])
    poly = Polytope(verts, [(0, 1, 2)], np.array([[0.0, 0.0, 1.0]]),
                    np.array([0.0]), 0.0)
    est = polytope_volume(poly)
    assert est.value == 0.0


def test_quadrature_flags_missed_tolerance():
    # near-ideal hull at the sweep budget: ends near 2e-2, far from 1e-4
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
        loop = sum(_scalar_triangle_area(*spx.vertices)
                   for spx in apex_triangulation(poly, poly.interior_point()))
        assert polytope_volume(poly, "exact_2d").value == pytest.approx(
            loop, rel=1e-12)


def test_preferred_method_by_dimension():
    assert [preferred_method(n) for n in (2, 3, 4, 5)] == [
        "exact_2d", "exact_3d", "quadrature", "quadrature"]
    with pytest.raises(ValueError):
        polytope_volume(convex_hull(TRI), method="exact_3d")
    with pytest.raises(ValueError):
        simplex_volume(TRI, method="exact_3d")
