"""Epsilon-extensions, packings, and the two-ball closed forms.

The two-ball configuration has an exact hull area from the angle defect
of the bounding curve, so it anchors all the Monte Carlo machinery here.
"""

import math

import numpy as np
import pytest

from hypervol import (
    PackingResult,
    UnionOfBalls,
    ball_volume,
    covering_centers,
    dist,
    euclidean_capsule_ratio,
    extension_volume,
    greedy_packing,
    hull_of_extension,
    polytope_volume,
    sandwich_check,
    theorem2_ratio,
    triangle_area_2d,
    two_ball_hull_area,
    two_ball_ratio,
)
from hypervol.klein import KleinPoint


def chain_points(n: int, count: int, step: float) -> np.ndarray:
    """Collinear points along the first axis at equal hyperbolic spacing."""
    rs = np.tanh(step * np.arange(count))
    pts = np.zeros((count, n))
    pts[:, 0] = rs
    return pts


def test_packing_result_validation():
    pts = chain_points(2, 3, 0.5)  # pairwise >= 0.5 apart
    PackingResult(pts, 0.4, 3)
    with pytest.raises(ValueError):
        PackingResult(pts, 0.6, 3)  # adjacent pairs are only 0.5 apart


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


def test_covering_centers_cover():
    rng = np.random.default_rng(8)
    pts = 0.4 * rng.uniform(-1, 1, size=(40, 3))
    centers = covering_centers(pts, 0.25, seed=2)
    for p in pts:
        assert min(dist(KleinPoint(p), KleinPoint(c))
                   for c in centers) <= 0.25 + 1e-12


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


def test_sandwich_check_clean_packing():
    rng = np.random.default_rng(19)
    pts = 0.45 * rng.uniform(-1, 1, size=(30, 2))
    pack = greedy_packing(pts, 0.35, seed=5)
    out = sandwich_check(pack, pts, probes=20_000, seed=1)
    assert out["passed"]
    assert out["inner_violations"] == 0
    assert out["outer_violations"] == 0
    assert out["probes"] == 20_000


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
