"""Tests of the benchmark's independent references against published values.

Run with `python -m pytest perfbench/test_refs.py`.
"""

import math
import os
import sys

import numpy as np
from scipy import integrate

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402


def test_lobachevsky_published_constants():
    # Milnor's values for the regular ideal tetrahedron and octahedron
    assert abs(refs.ideal_tetrahedron_volume() - 1.0149416064096536) < 1e-12
    assert abs(refs.ideal_octahedron_volume() - 3.6638623767088760) < 1e-12
    assert abs(refs.lobachevsky(math.pi / 2)) < 1e-15
    # Л(2x) = 2Л(x) + 2Л(x + π/2)
    x = 0.37
    lhs = refs.lobachevsky(2 * x)
    rhs = 2 * refs.lobachevsky(x) + 2 * refs.lobachevsky(x + math.pi / 2)
    assert abs(lhs - rhs) < 1e-13


def test_hull3_bound():
    assert refs.hull3_volume_bound(4) == refs.ideal_tetrahedron_volume()
    assert refs.ideal_octahedron_volume() < refs.hull3_volume_bound(6)


def test_ball_volumes_against_radial_integral():
    for r in (0.3, 1.0, 2.5):
        i1, _ = integrate.quad(math.sinh, 0, r, epsrel=1e-13)
        i2, _ = integrate.quad(lambda t: math.sinh(t) ** 2, 0, r, epsrel=1e-13)
        assert math.isclose(refs.ball_volume(2, r), 2 * math.pi * i1, rel_tol=1e-12)
        assert math.isclose(refs.ball_volume(3, r), 4 * math.pi * i2, rel_tol=1e-12)


def test_polygon_area_against_density_integral():
    pts = np.array([[0.1, 0.05], [0.6, -0.2], [0.2, 0.7]])
    area, k = refs.polygon_area(pts)

    def density(y, x):
        return (1 - x * x - y * y) ** -1.5

    a, b, c = pts
    total = 0.0
    # split at b's x-coordinate; edges a-b, a-c below, b-c above
    def line(p, q):
        return lambda x: p[1] + (q[1] - p[1]) * (x - p[0]) / (q[0] - p[0])
    total += integrate.dblquad(density, a[0], c[0], line(a, b), line(a, c),
                               epsabs=1e-12, epsrel=1e-11)[0]
    total += integrate.dblquad(density, c[0], b[0], line(a, b), line(c, b),
                               epsabs=1e-12, epsrel=1e-11)[0]
    assert k == 3
    assert math.isclose(area, total, rel_tol=1e-8)


def test_near_ideal_triangle_area_tends_to_pi():
    ang = np.array([0.0, 2.1, 4.0])
    pts = (1 - 1e-9) * np.column_stack([np.cos(ang), np.sin(ang)])
    area, _ = refs.polygon_area(pts)
    assert abs(area - math.pi) < 1e-3


def test_two_disc_hull_area_limits():
    eps = 0.8
    # coincident centers: the hull is the disc itself
    assert math.isclose(refs.two_disc_hull_area(0.0, eps), refs.ball_volume(2, eps),
                        rel_tol=1e-12)
    # far apart, the hull grows linearly in d with slope 2 sinh(eps)
    slope = refs.two_disc_hull_area(41.0, eps) - refs.two_disc_hull_area(40.0, eps)
    assert abs(slope) < 1e-6  # the area saturates: hull of a thin strip


def test_distance_and_boost():
    t = 1.3
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[math.tanh(t), 0.0, 0.0]])
    assert math.isclose(refs.distance(p, q)[0, 0], t, rel_tol=1e-12)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3))
    pts *= 0.9 / np.max(np.linalg.norm(pts, axis=1))
    moved = refs.boost(pts, np.array([0.3, -0.4, 0.2]))
    off = ~np.eye(6, dtype=bool)  # acosh is ill-conditioned at distance 0
    assert np.allclose(refs.distance(pts, pts)[off], refs.distance(moved, moved)[off],
                       rtol=1e-10)
    assert np.allclose(refs.boost(p, q[0]), q, atol=1e-15)
