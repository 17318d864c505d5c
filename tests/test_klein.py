import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import integrate

import hypervol as hv
from hypervol.klein import (
    KleinPoint,
    IdealPoint,
    _row_sum,
    _row_sumsq,
    as_coords,
    boost_to,
    translation_to,
)


def line_element_distance(p, q, epsrel=1e-10):
    """Independent distance oracle: integrate ds along the straight chord."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def speed(t):
        x = p + t * (q - p)
        v = q - p
        s = 1.0 - float(x @ x)
        quad_form = float(v @ v) / s + float(x @ v) ** 2 / (s * s)
        return math.sqrt(quad_form)

    val, _ = integrate.quad(speed, 0.0, 1.0, epsrel=epsrel, epsabs=1e-14, limit=200)
    return val


def test_point_validation():
    with pytest.raises(ValueError):
        KleinPoint([1.0, 0.0])
    with pytest.raises(ValueError):
        KleinPoint([0.999999999999999, 0.0])   # inside BOUNDARY_TOL shell
    p = KleinPoint([0.25, -0.5])
    assert p.coords.flags.writeable is False
    ip = IdealPoint([3.0, 4.0])
    assert_allclose(np.linalg.norm(ip.direction), 1.0, rtol=0, atol=1e-15)


def test_dist_against_radial_formula():
    # dist(0, p) = atanh(|p|)
    assert_allclose(
        hv.dist(KleinPoint([0.5, 0.0]), KleinPoint([0.0, 0.0])),
        0.5493061443340549, rtol=1e-14,
    )
    assert hv.dist(KleinPoint([0.3, 0.1]), KleinPoint([0.3, 0.1])) == 0.0


def test_dist_against_line_element():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        p = rng.uniform(-0.5, 0.5, n)
        q = rng.uniform(-0.5, 0.5, n)
        d = hv.dist(KleinPoint(p), KleinPoint(q))
        assert abs(d - line_element_distance(p, q)) < 1e-8


def test_dist_matrix_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.4, 0.4, (6, 3))
    b = rng.uniform(-0.4, 0.4, (4, 3))
    dm = hv.dist_matrix(a, b)
    assert dm.shape == (6, 4)
    for i in (0, 3, 5):
        for j in (0, 2):
            assert_allclose(
                dm[i, j], hv.dist(KleinPoint(a[i]), KleinPoint(b[j])), rtol=1e-12
            )


def test_density():
    assert hv.density(KleinPoint([0.0, 0.0])) == 1.0
    # closed form at |x| = 0.6 in n = 2: (1 - 0.36)^(-1.5)
    assert_allclose(hv.density(KleinPoint([0.6, 0.0])), 0.64 ** -1.5, rtol=1e-14)
    vals = hv.density_array(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert_allclose(vals, [1.0, 0.75 ** -2], rtol=1e-14)


def test_translation_moves_origin():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        target = rng.uniform(-0.5, 0.5, n)
        iso = translation_to(KleinPoint(target))
        img = iso.apply_array(np.zeros((1, n)))[0]
        assert_allclose(img, target, atol=1e-14)
        # M^T eta M = eta: the Lorentz matrix preserves the Minkowski form
        eta = np.diag([-1.0] + [1.0] * n)
        assert_allclose(iso.matrix.T @ eta @ iso.matrix, eta, rtol=0, atol=1e-12)


def _ball_rows(rng, rows, n, low, high):
    """Rows with Euclidean norms uniform in [low, high], directions uniform."""
    g = rng.standard_normal((rows, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * rng.uniform(low, high, rows)[:, None]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), rows=st.integers(1, 12),
       per_row=st.booleans(), seed=st.integers(0, 2**20))
def test_boost_to_matches_translation_and_keeps_distance(n, rows, per_row, seed):
    rng = np.random.default_rng(seed)
    centers = _ball_rows(rng, rows if per_row else 1, n, 0.0, 0.95)
    local = _ball_rows(rng, rows, n, 0.05, 0.95)
    out = boost_to(centers if per_row else centers[0], local)
    assert out.shape == (rows, n)
    for i in range(rows):
        c = centers[i if per_row else 0]
        ref = translation_to(c).apply_array(local[i][None, :])[0]
        assert_allclose(out[i], ref, rtol=0, atol=1e-12)
        assert_allclose(hv.dist(c, out[i]), math.atanh(np.linalg.norm(local[i])),
                        rtol=0, atol=1e-10)


def test_boost_to_identity_and_broadcast():
    rng = np.random.default_rng(3)
    local = _ball_rows(rng, 7, 3, 0.0, 0.9)
    assert np.array_equal(boost_to(np.zeros(3), local), local)
    centers = _ball_rows(rng, 4, 3, 0.0, 0.9)
    grid = boost_to(centers[:, None, :], local[None, :, :])
    assert grid.shape == (4, 7, 3)
    for k in range(4):
        assert np.array_equal(grid[k], boost_to(centers[k], local))


def test_boost_to_rejects_bad_centers_like_kleinpoint():
    bad = [
        [np.nan, 0.0],
        [np.inf, 0.0],
        [0.5],
        np.full(17, 0.01),
        [1.0 - 1e-13, 0.0],
        [0.6, 0.8],
    ]
    for c in bad:
        c = np.asarray(c, dtype=float)
        with pytest.raises(ValueError):
            KleinPoint(c)
        with pytest.raises(ValueError):
            boost_to(c, np.zeros(c.size))
        with pytest.raises(ValueError):
            boost_to(np.vstack([np.zeros(c.size), c]), np.zeros((2, c.size)))
    with pytest.raises(ValueError):
        boost_to([0.1, 0.2], [1.0, 0.0])          # offset on the sphere
    with pytest.raises(ValueError):
        boost_to([0.1, 0.2], [0.1, 0.2, 0.3])     # dimension mismatch


def test_isometry_preserves_distances():
    rng = np.random.default_rng(11)
    for k in range(10):
        n = int(rng.integers(2, 5))
        iso = hv.random_isometry(n, seed=k)
        p = rng.uniform(-0.6, 0.6, n) * 0.9
        q = rng.uniform(-0.6, 0.6, n) * 0.9
        before = hv.dist(KleinPoint(p), KleinPoint(q))
        pq = iso.apply_array(np.vstack([p, q]))
        after = hv.dist(KleinPoint(pq[0]), KleinPoint(pq[1]))
        assert abs(before - after) < 1e-10


def test_translation_to_negative_point_inverts_translation():
    # the volume routes recentre a body at p with translation_to(-p)
    rng = np.random.default_rng(6)
    for n in (2, 3, 5):
        p = rng.uniform(-0.4, 0.4, n)
        pts = rng.uniform(-0.4, 0.4, (8, n))
        assert_allclose(translation_to(-p).apply_array(p[None])[0], 0.0,
                        atol=1e-14)
        back = translation_to(-p).apply_array(translation_to(p).apply_array(pts))
        assert_allclose(back, pts, atol=1e-12)


def test_random_isometry_deterministic():
    a = hv.random_isometry(3, seed=12)
    b = hv.random_isometry(3, seed=12)
    pts = np.full((2, 3), 0.1)
    assert np.array_equal(a.apply_array(pts), b.apply_array(pts))


def test_sinh_power_integral_against_quad():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(0, 8))
        w = float(rng.uniform(0.05, 3.0))
        direct, _ = integrate.quad(lambda t: math.sinh(t) ** m, 0.0, w, epsrel=1e-12)
        assert_allclose(float(hv.sinh_power_integral(m, w)), direct, rtol=1e-9)
    # tiny arguments hit the series branch; compare against mpmath-free quad
    for m in (2, 3, 5):
        w = 5e-3
        direct, _ = integrate.quad(lambda t: math.sinh(t) ** m, 0.0, w, epsabs=1e-30)
        assert_allclose(float(hv.sinh_power_integral(m, w)), direct, rtol=1e-10)


def _sinh_power_mp(m, w):
    """integral_0^w sinh^m in 50 digits, from the exponential sum
    sinh^m t = 2^-m sum_k (-1)^k C(m, k) e^((m - 2k) t).  Its terms cancel
    to about w^(m+1), so the working precision grows with that."""
    digits = 50 + int((m + 1) * max(0.0, -math.log10(w)))
    with mpmath.workdps(digits):
        w = mpmath.mpf(w)
        total = 0
        for k in range(m + 1):
            a = m - 2 * k
            total += ((-1) ** k * mpmath.binomial(m, k)
                      * (w if a == 0 else mpmath.expm1(a * w) / a))
        return total / 2 ** m


# 1e-8 to 30, around the old series switch at 1e-2 and the switch at 1
_MP_WS = sorted({0.0099, 0.0101, 0.999, 1.001, 1.0, *np.geomspace(1e-8, 30.0, 37)})


@pytest.mark.parametrize("m", range(16))
def test_sinh_power_integral_against_mpmath(m):
    ref = np.array([float(_sinh_power_mp(m, w)) for w in _MP_WS])
    assert_allclose(hv.sinh_power_integral(m, np.array(_MP_WS)), ref,
                    rtol=1e-13, atol=0.0)
    got = [hv.sinh_power_integral(m, w) for w in _MP_WS]
    assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("m", range(16))
def test_sinh_power_integral_float_branch_matches_arrays(m):
    # w on both sides of the series switch at 1 and far out on each side;
    # the two paths differ only in numpy's and libm's sinh, cosh and pow
    ws = np.array([0.0, 1e-8, 1e-4, 5e-3, 9.99e-3, 0.0101, 0.5, 0.999, 1.0,
                   1.001, 2.0, 7.5, 15.0, 30.0])
    arr = hv.sinh_power_integral(m, ws)
    for w, ref in zip(ws, arr):
        for scalar in (float(w), w):  # a Python float and an np.float64
            got = hv.sinh_power_integral(m, scalar)
            assert type(got) is float
            assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_sinh_power_integral_rejects_bad_arguments():
    for w in (-1e-3, -2.0, np.float64(-0.5), np.array([0.5, -0.5])):
        with pytest.raises(ValueError, match="negative"):
            hv.sinh_power_integral(3, w)
    for m in (-1, 16):
        with pytest.raises(ValueError, match="power"):
            hv.sinh_power_integral(m, 0.5)


def test_unit_sphere_area():
    assert_allclose(hv.unit_sphere_area(0), 2.0, rtol=0)
    assert_allclose(hv.unit_sphere_area(1), 2.0 * math.pi, rtol=1e-15)
    assert_allclose(hv.unit_sphere_area(2), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(hv.unit_sphere_area(3), 2.0 * math.pi ** 2, rtol=1e-15)


def test_ball_volume_2d_closed_form():
    for r in (0.25, 1.0, 2.0, 5.0):
        assert_allclose(
            hv.ball_volume(2, r), 2.0 * math.pi * (math.cosh(r) - 1.0), rtol=1e-12
        )
    # frozen value at r = 1
    assert_allclose(hv.ball_volume(2, 1.0), 3.412276265284902, rtol=1e-12)


def test_ball_volume_small_radius_euclidean():
    # ratio to the Euclidean ball volume tends to 1 as r -> 0
    r = 1e-3
    for n in (2, 3, 4):
        eucl = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n
        assert abs(hv.ball_volume(n, r) / eucl - 1.0) < 1e-2


@pytest.mark.parametrize("n", [1, 17])
def test_one_dimension_limit(n, tmp_path):
    # points, isometries, balls and point files share the range 2..16
    path = tmp_path / "cloud.csv"
    path.write_text(f"dim={n},model=klein\n" + ",".join(["0.0"] * n) + "\n")
    calls = [
        lambda: KleinPoint(np.zeros(n)),
        lambda: IdealPoint(np.ones(n)),
        lambda: boost_to(np.zeros(n), np.zeros(n)),
        lambda: hv.UnionOfBalls(np.zeros((1, n)), 0.5),
        lambda: hv.ball_volume(n, 1.0),
        lambda: hv.load_points(path),
        lambda: hv.density(np.zeros(n)),
        lambda: hv.dist(np.zeros(n), np.zeros(n)),
        lambda: translation_to(np.zeros(n)),
        lambda: hv.simplex_volume(np.zeros((n + 1, n)), "monte_carlo"),
        lambda: hv.greedy_packing(np.zeros((1, n)), 0.5),
        lambda: hv.Region(membership=lambda p: p[:, 0] < 0, bounding_radius=0.5,
                          dim=n),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"dimension must be in 2..16, got {n}"
    # the radial power of a ball in dimension n is n - 1 <= 15
    with pytest.raises(ValueError, match="power"):
        hv.sinh_power_integral(16, 1.0)


_BAD_ROWS = {
    "nan": ([float("nan"), 0.0], "coordinates must be finite"),
    "norm1.5": ([1.5, 0.0],
                "point too close to the boundary sphere (norm >= 1 - 1e-12)"),
}
_GOOD_ROWS = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]


def _write_klein_file(path, rows):
    path.write_text("dim=2,model=klein\n"
                    + "".join(",".join(repr(float(v)) for v in r) + "\n"
                              for r in rows))
    return path


# every entry point that takes coordinates from a caller, fed the bad row
# (beside good ones where it takes several rows)
_ENTRY_POINTS = {
    "KleinPoint": lambda bad, tmp: KleinPoint(bad),
    "density": lambda bad, tmp: hv.density(bad),
    "dist": lambda bad, tmp: hv.dist(_GOOD_ROWS[1], bad),
    "translation_to": lambda bad, tmp: translation_to(bad),
    "boost_to": lambda bad, tmp: boost_to(bad, np.zeros(2)),
    "UnionOfBalls": lambda bad, tmp: hv.UnionOfBalls(_GOOD_ROWS[:2] + [bad], 0.5),
    "ball_boundary_array": lambda bad, tmp: hv.ball_boundary_array(bad, 0.5, 4, 0),
    "simplex_volume": lambda bad, tmp: hv.simplex_volume(_GOOD_ROWS[:2] + [bad]),
    "convex_hull": lambda bad, tmp: hv.convex_hull(_GOOD_ROWS + [bad]),
    "greedy_packing": lambda bad, tmp: hv.greedy_packing(_GOOD_ROWS + [bad], 0.5),
    "load_points": lambda bad, tmp: hv.load_points(
        _write_klein_file(tmp / "cloud.csv", _GOOD_ROWS + [bad])),
    "save_points": lambda bad, tmp: hv.save_points(
        tmp / "cloud.csv", np.array(_GOOD_ROWS + [bad]), model="poincare"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_ROWS))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_one_interior_point_check(entry, bad, tmp_path):
    row, message = _BAD_ROWS[bad]
    with pytest.raises(ValueError) as exc:
        _ENTRY_POINTS[entry](np.array(row), tmp_path)
    assert str(exc.value) == message
    if entry == "save_points":
        assert not (tmp_path / "cloud.csv").exists()


def _ball_volume_by_quad(n, r):
    """The oracle for ball_volume: sigma_(n-1) times QUADPACK's integral
    of sinh^(n-1) over [0, r]."""
    val, _ = integrate.quad(lambda t: math.sinh(t) ** (n - 1), 0.0, r,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return hv.unit_sphere_area(n - 1) * val


_ORACLE_RADII = (1e-3, 0.05, 0.5, 1.0, 2.0, 7.25)


@pytest.mark.parametrize("n", range(2, 9))
def test_ball_volume_low_dimensions(n):
    for r in _ORACLE_RADII:
        assert_allclose(hv.ball_volume(n, r), _ball_volume_by_quad(n, r),
                        rtol=1e-12)


@pytest.mark.parametrize("n", range(9, 17))
def test_ball_volume_high_dimensions(n):
    for r in _ORACLE_RADII:
        assert_allclose(hv.ball_volume(n, r), _ball_volume_by_quad(n, r),
                        rtol=1e-12)


def test_ball_boundary_points():
    center = [0.2, -0.1, 0.3]
    pts = hv.ball_boundary_array(center, 0.7, 50, seed=9)
    assert pts.shape == (50, 3)
    assert_allclose(hv.dist_matrix(np.array([center]), pts), 0.7, atol=1e-10)
    # prefix stability: first 10 of a longer draw match the shorter draw
    again = hv.ball_boundary_array(center, 0.7, 10, seed=9)
    assert np.array_equal(again, pts[:10])
    # centered at origin all have Euclidean norm tanh(r)
    ring = hv.ball_boundary_array([0.0, 0.0], 1.3, 8, seed=1)
    assert_allclose(np.linalg.norm(ring, axis=1), math.tanh(1.3), atol=1e-14)
    # a sphere that rounds onto the boundary is refused, not returned
    with pytest.raises(ValueError):
        hv.ball_boundary_array(center, 40.0, 4, seed=0)


def test_as_coords_accepts_wrappers():
    p = KleinPoint([0.1, 0.2])
    assert np.array_equal(as_coords(p), p.coords)
    assert np.array_equal(as_coords([0.1, 0.2]), np.array([0.1, 0.2]))


_MAGNITUDES = st.floats(1e-300, 1e300)
_ENTRIES = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda x: -x),
                     st.sampled_from([0.0, -0.0]))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lead=st.sampled_from([(), (1,), (5,), (3, 4)]),
       width=st.integers(1, 12), data=st.data())
def test_row_sums_match_numpy_bitwise(lead, width, data):
    # below 8 columns the helpers add columns; from 8 on they are np.sum
    x = data.draw(hnp.arrays(float, lead + (width,), elements=_ENTRIES))
    with np.errstate(over="ignore", under="ignore"):
        assert _same_bits(_row_sum(x), np.sum(x, axis=-1))
        assert _same_bits(_row_sumsq(x), np.sum(x * x, axis=-1))
        if x.ndim > 1:
            assert _same_bits(np.sqrt(_row_sumsq(x)), np.linalg.norm(x, axis=-1))


@pytest.mark.parametrize("width", range(1, 13))
def test_row_sum_of_negative_zeros(width):
    # numpy's sum starts from +0.0, so a row of -0.0 sums to +0.0
    x = np.full((2, width), -0.0)
    assert _same_bits(_row_sum(x), np.sum(x, axis=-1))
    assert _same_bits(_row_sum(x[0]), np.sum(x[0]))
