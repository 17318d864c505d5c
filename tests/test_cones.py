"""Vertex cones, their section integrals, and the explicit bounding chain.

The section integral has two independent charts (polar and an anchored
(u, v) chart), and at n = 3 a closed form that is tested against both and
against 50-digit mpmath; the bounding integral has frozen reference values
computed from the closed-form inner antiderivative.  Tests pit the
implementation against those references, against the polar chart of the
ideal section, against the 2D angle-defect area, and against the
inequality chain integral <= first summand + second summand.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypervol import (
    PHI_CAP,
    BarycentricPoint,
    ConeSection,
    IdealPoint,
    NoSectionError,
    RunConfig,
    Simplex,
    boundary_rays,
    cone_integral_bound,
    cone_report,
    cone_sections,
    cone_volume,
    convex_hull,
    first_summand_closed,
    first_summand_quad,
    lemma1_argmax,
    lemma1_det,
    lemma1_map,
    lemma1_matrix,
    majorant,
    second_summand,
    section_integral,
    t_function,
    tangent_grid,
    triangle_area_2d,
    unit_sphere_area,
    verify_facet_decomposition,
)
from hypervol import cones, experiments

R = 0.95
SQUARE = np.array([[R, 0.0], [0.0, R], [-R, 0.0], [0.0, -R]])
_ANG = 2.0 * math.pi * np.arange(5) / 5
# near-ideal hulls: every section is truncated just short of the sphere
PENTAGON = 0.999 * np.column_stack([np.cos(_ANG), np.sin(_ANG)])
OCTAHEDRON = 0.999 * np.vstack([np.eye(3), -np.eye(3)])


def ideal_section(n: int, phi: float, apex_radius: float = 1.0):
    """Planar section with apex e1 and prescribed origin angle."""
    apex = np.zeros(n)
    apex[0] = 1.0
    theta = np.zeros(n)
    theta[1] = 1.0
    far = math.cos(phi) * np.array(
        [math.cos(phi), math.sin(phi)] + [0.0] * (n - 2)
    )
    return ConeSection(
        apex=IdealPoint(apex), direction=theta, far_point=far,
        origin_angle=phi, apex_radius=apex_radius,
    )


# ---------------------------------------------------------------------------
# boundary rays

def _grazing_endpoints(poly, y, xh):
    """Far endpoints in the hull of the grazing rays from xh toward rows y.

    The reference clip: each ray is cut at the first plane it crosses among
    the facets that do not pass through xh; the facets through xh cannot
    cut it at a positive length.
    """
    d = y - xh
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    slack = poly.offsets - poly.normals @ xh
    rest = slack > 1e-9 * (1.0 + np.abs(poly.offsets))
    denom = poly.normals[rest] @ d.T
    with np.errstate(divide="ignore"):
        t = np.where(denom > 1e-12, slack[rest][:, None] / denom, np.inf)
    t_far = t.min(axis=0)
    assert np.all(np.isfinite(t_far)) and np.all(t_far > 1e-12)
    return xh + t_far[:, None] * d


def test_boundary_ray_square_geometry():
    poly = convex_hull(SQUARE)
    y, xh = boundary_rays(poly, np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
    assert np.array_equal(xh, [R, 0.0])
    # grazing ray runs along the edge toward the adjacent vertex
    z = _grazing_endpoints(poly, y, xh)
    assert np.allclose(z[0], [0.0, R], atol=1e-9)
    assert np.linalg.norm(y[0]) == pytest.approx(1.0, abs=1e-12)
    # y continues the same edge line x + y = R out to the sphere
    assert y[0, 0] + y[0, 1] == pytest.approx(R, abs=1e-9)


def test_boundary_rays_batch_matches_singles():
    poly = convex_hull(SQUARE)
    x = np.array([0.0, 1.0])
    thetas = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y, xh = boundary_rays(poly, x, thetas)
    # the edge leaves the hull before it reaches the sphere
    z = _grazing_endpoints(poly, y, xh)
    assert np.all(np.linalg.norm(z - xh, axis=1)
                  <= np.linalg.norm(y - xh, axis=1) + 1e-12)
    for k in range(2):
        yk, xhk = boundary_rays(poly, x, thetas[k:k + 1])
        assert np.allclose(y[k], yk[0], atol=1e-12)
        assert np.array_equal(xh, xhk)


def test_boundary_rays_requires_matching_vertex():
    poly = convex_hull(SQUARE)
    with pytest.raises(ValueError):
        boundary_rays(poly, np.array([1.0, 1.0]), np.array([[0.0, 1.0]]))


def test_boundary_rays_degenerate_rotation():
    # corner square: rotating toward the face through the vertex exits at
    # angle zero, which is a degenerate section
    corner = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    poly = convex_hull(corner)
    with pytest.raises(NoSectionError):
        boundary_rays(poly, np.array([1.0, 0.0]), np.array([[0.0, -1.0]]))


def test_tangent_grid_shapes_and_orthogonality():
    x2 = np.array([1.0, 0.0])
    g2 = tangent_grid(x2, 16)
    assert g2.shape == (2, 2)
    assert np.allclose(g2[0], -g2[1])
    x3 = np.array([0.0, 0.0, 1.0])
    g3 = tangent_grid(x3, 12)
    assert g3.shape == (12, 3)
    x4 = np.full(4, 0.5)
    g4 = tangent_grid(x4, 32)
    assert g4.shape == (32, 4)
    for x, g in ((x2, g2), (x3, g3), (x4, g4)):
        assert np.max(np.abs(g @ (x / np.linalg.norm(x)))) < 1e-12
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
    assert np.array_equal(g4, tangent_grid(x4, 32))
    with pytest.raises(ValueError):
        tangent_grid(x3, 4)


# ---------------------------------------------------------------------------
# sections and their integrals

def test_cone_section_validation():
    e1 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ConeSection(IdealPoint(e1), e1, e1 * 0.5, 0.3)  # direction not orthogonal
    with pytest.raises(ValueError):
        ConeSection(IdealPoint(np.array([1.0, 0.0, 0.0])),
                    np.array([0.0, 1.0, 0.0]),
                    np.array([0.3, 0.3, 0.3]), 0.3)  # out of the section plane
    with pytest.raises(ValueError, match="inside the unit ball"):
        ConeSection(IdealPoint(e1), [0.0, 1.0], [0.9, 0.5], 0.5)
    with pytest.raises(ValueError):
        ideal_section(2, 2.0)  # angle past pi/2
    with pytest.raises(ValueError):
        ideal_section(2, 0.3, apex_radius=1.5)


def test_section_flagged_at_cap():
    assert not ideal_section(2, 0.99 * PHI_CAP).flagged
    assert ideal_section(2, 1.01 * PHI_CAP).flagged


def test_polar_chart_matches_angle_defect_2d():
    # n = 2, ideal apex: the section integral is the area of a triangle
    # with one ideal vertex, known exactly from the angle defect
    for phi in (0.03, 0.08, 0.3):
        sec = ideal_section(2, phi)
        val, _ = section_integral(sec, 2, chart="polar")
        area = triangle_area_2d(np.zeros(2), sec.apex.direction,
                                sec.far_point)
        assert val == pytest.approx(area, rel=1e-10)


def test_charts_agree_ideal_and_truncated():
    for n in (2, 3, 4, 6):
        for phi in (0.02, 0.07, 0.25):
            for rad in (1.0, 0.999):
                sec = ideal_section(n, phi, apex_radius=rad)
                vp, _ = section_integral(sec, n, chart="polar")
                vu, _ = section_integral(sec, n, chart="uv")
                assert vp == pytest.approx(vu, rel=1e-11)
    with pytest.raises(ValueError):
        section_integral(ideal_section(2, 0.1), 2, chart="spherical")


def test_uv_chart_on_narrow_near_ideal_section():
    # two hull vertices 0.002 rad apart at radius 1 - 1e-6: a section
    # narrower than 1e-3 rad, where one quad call over the whole u-range
    # once came out 10x low
    far = np.array([0.9999984153626227, 0.0010414586890180385])
    sec = ConeSection(apex=IdealPoint([1.0, 0.0]), direction=[0.0, 1.0],
                      far_point=far, origin_angle=math.atan2(far[1], far[0]),
                      apex_radius=1.0 - 1e-6)
    for n in (2, 3):
        vp, _ = section_integral(sec, n, chart="polar")
        vu, _ = section_integral(sec, n, chart="uv")
        assert vu == pytest.approx(vp, rel=1e-8)
    area = triangle_area_2d(np.zeros(2), sec.apex_radius * sec.apex.direction,
                            far)
    assert section_integral(sec, 2, chart="uv")[0] == pytest.approx(area, rel=1e-8)


def test_truncation_only_reduces_the_integral():
    for n in (2, 3):
        full, _ = section_integral(ideal_section(n, 0.05), n)
        cut, _ = section_integral(ideal_section(n, 0.05, 0.998), n)
        assert cut < full
    # the closed 3D form, down to a truncation of 1e-9
    for phi in (0.001, 0.05, 0.25):
        full = cone_volume([ideal_section(3, phi)]).value
        for rad in (1.0 - 1e-9, 1.0 - 1e-6, 0.998, 0.9):
            cut = cone_volume([ideal_section(3, phi, rad)]).value
            assert cut < full
            full = cut


def _plane_section(far, apex_radius):
    """A 3D section with apex e1, direction e2 and the given far point."""
    far = np.asarray(far, dtype=float)
    return ConeSection(apex=IdealPoint([1.0, 0.0, 0.0]), direction=[0.0, 1.0, 0.0],
                       far_point=far, origin_angle=math.atan2(far[1], far[0]),
                       apex_radius=apex_radius)


def _mp_section_integral(sec):
    """The n = 3 section integral in 50 digits, by mpmath quadrature.

    The float section data are taken as exact.  The edge line through the
    apex point (a, 0) and the far point (a1, b1) meets the ray at angle
    alpha at r = a b1 / den, den = b1 cos(alpha) - (a1 - a) sin(alpha), and
    1 - r = num / den is formed without cancellation, so the integrand
    sin(alpha) M_2(atanh r), M_2(w) = (sinh(2w)/2 - w)/2, stays exact
    where the ideal apex sends r to 1.
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(sec.apex_radius)
        a1, b1 = (mpmath.mpf(v) for v in sec.plane_coords())

        def f(alpha):
            sin = mpmath.sin(alpha)
            den = b1 * mpmath.cos(alpha) - (a1 - a) * sin
            num = b1 * (1 - a - 2 * mpmath.sin(alpha / 2) ** 2) - (a1 - a) * sin
            plus = den + a * b1
            return sin * (a * b1 * den / (num * plus) - mpmath.log(plus / num) / 2) / 2

        phi = mpmath.mpf(sec.origin_angle)
        return mpmath.quad(f, [0, phi / 1000, phi / 30, phi])


# the 0.001-rad section of test_uv_chart_on_narrow_near_ideal_section, in 3D
NARROW_3D = ([0.9999984153626227, 0.0010414586890180385, 0.0], 1.0 - 1e-6)
# two edges tilt outward past the apex point, phi_c < 0: (0.02, 0.999) at
# phi_c = -0.030 and the last case at phi_c = -0.050
CLOSED_CASES = (
    [ideal_section(3, phi, rad) for phi in (0.02, 0.07, 0.25) for rad in (1.0, 0.999)]
    + [_plane_section(*NARROW_3D), _plane_section([0.952, 0.04, 0.0], 0.95)]
)


@pytest.mark.parametrize("sec", CLOSED_CASES)
def test_closed_section_against_mpmath_and_the_polar_chart(sec):
    want = _mp_section_integral(sec)
    est = cone_volume([sec])
    assert est.method == "closed_sections" and est.evaluations == 2
    value = est.value / (2.0 * math.pi)
    assert abs(value - want) <= 1e-12 * want
    assert abs(est.value - 2 * mpmath.pi * want) <= est.achieved_rel_tol * est.value
    assert not est.low_confidence
    # the polar chart agrees, though not always within QUADPACK's own
    # estimate: at the narrow section that states 7e-14 and is 1.3e-11 off
    polar, _ = section_integral(sec, 3, chart="polar")
    assert polar == pytest.approx(value, rel=1e-10)


def test_3d_cones_do_not_reach_quadpack(monkeypatch):
    def no_quadpack(*args, **kwargs):
        raise AssertionError("a 3D cone called QUADPACK")

    monkeypatch.setattr(cones, "_quad", no_quadpack)
    poly = convex_hull(OCTAHEDRON)
    rep = cone_report(poly, poly.vertices[0], 16)
    assert rep["volume"]["method"] == "closed_sections"
    assert rep["truncation_deficit"] > 0.0
    est = cone_volume(CLOSED_CASES[:2])
    assert est.evaluations == 4
    with pytest.raises(AssertionError, match="QUADPACK"):
        section_integral(CLOSED_CASES[0], 3, chart="polar")


def test_cone_sections_square():
    poly = convex_hull(SQUARE)
    secs = cone_sections(poly, np.array([1.0, 0.0]), 16)
    assert len(secs) == 2  # n = 2 always has the two tangent directions
    for s in secs:
        assert s.apex_radius == pytest.approx(R, abs=1e-12)
        assert 0 < s.origin_angle < math.pi / 2


def test_cone_volume_equals_triangle_areas_2d():
    poly = convex_hull(SQUARE)
    secs = cone_sections(poly, np.array([1.0, 0.0]), 16)
    est = cone_volume(secs)
    total = sum(
        triangle_area_2d(np.zeros(2), R * s.apex.direction, s.far_point)
        for s in secs
    )
    assert est.value == pytest.approx(total, rel=1e-9)
    assert est.method == "exact_2d"


def _mp_triangle_area(tri):
    """pi minus the angle sum of a Klein triangle, in 50 digits.

    The float vertices are taken as exact, except that one within 1e-12
    of the unit circle is ideal and has angle 0, as in `triangle_area_2d`.
    At a vertex p with chords u, v the metric tensor gives the angle
    atan2(sqrt(s) |u x v|, s u.v + (p.u)(p.v)), s = 1 - |p|^2.
    """
    with mpmath.workdps(50):
        pts = [[mpmath.mpf(float(x)) for x in p] for p in tri]
        area = mpmath.pi
        for i in range(3):
            if math.hypot(*tri[i]) >= 1.0 - 1e-12:
                continue
            p, q, r = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            s = 1 - p[0] ** 2 - p[1] ** 2
            u = [q[0] - p[0], q[1] - p[1]]
            v = [r[0] - p[0], r[1] - p[1]]
            cos = (s * (u[0] * v[0] + u[1] * v[1])
                   + (p[0] * u[0] + p[1] * u[1]) * (p[0] * v[0] + p[1] * v[1]))
            area -= mpmath.atan2(mpmath.sqrt(s) * abs(u[0] * v[1] - u[1] * v[0]), cos)
        return float(area)


@pytest.mark.parametrize("phi", [0.001, 0.002, 0.003])
def test_cone_volume_2d_within_its_stated_error(phi):
    # narrow ideal sections, where the polar chart was 1.6e-5 off at
    # phi = 0.001 while its QUADPACK estimate stated 2.0e-7
    upper = ideal_section(2, phi)
    lower = replace(upper, direction=[0.0, -1.0],
                    far_point=upper.far_point * [1.0, -1.0])
    est = cone_volume([upper, lower])
    want = sum(_mp_triangle_area([s.apex.direction, s.far_point, np.zeros(2)])
               for s in (upper, lower))
    assert abs(est.value - want) <= est.achieved_rel_tol * est.value
    assert est.method == "exact_2d"


def test_cone_volume_requires_common_apex():
    poly = convex_hull(SQUARE)
    a = cone_sections(poly, np.array([1.0, 0.0]), 16)
    b = cone_sections(poly, np.array([0.0, 1.0]), 16)
    with pytest.raises(ValueError):
        cone_volume([a[0], b[0]])


# ---------------------------------------------------------------------------
# the bounding integral

def test_bound_closed_form_n2():
    # exact value pi/2 - phi in the plane
    for phi in (0.01, 0.05, PHI_CAP, 0.4):
        assert cone_integral_bound(2, phi) == pytest.approx(
            math.pi / 2 - phi, abs=1e-10
        )


def test_bound_frozen_references():
    # frozen from the closed-form inner antiderivative evaluated with an
    # independent high-order outer rule
    assert cone_integral_bound(3, 0.05) == pytest.approx(
        0.34395611854665914, rel=1e-12)
    assert cone_integral_bound(4, 0.05) == pytest.approx(
        0.14226249522387394, rel=1e-12)
    assert cone_integral_bound(8, 0.05) == pytest.approx(
        0.02300622122314603, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_bound_matches_polar_chart_at_narrow_apertures(n):
    # the bounding integral is the section integral of the ideal section;
    # a single quad call over [0, 1] once returned about half of it for
    # phi <= 0.0075, e.g. at (8, 0.005), (3, 0.001) and (7, 0.002)
    for phi in RunConfig().phis + (0.001, 0.002, 0.003):
        polar, _ = section_integral(ideal_section(n, phi), n, chart="polar")
        assert cone_integral_bound(n, phi) == pytest.approx(polar, rel=1e-8)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        cone_integral_bound(1, 0.05)
    with pytest.raises(ValueError):
        cone_integral_bound(3, 0.0)
    with pytest.raises(ValueError):
        cone_integral_bound(3, math.pi / 2)


@pytest.mark.parametrize("n", [1, 17])
def test_bounding_chain_dimension_limit(n, monkeypatch):
    # the bounding chain shares the one dimension limit: at n = 17 the
    # second summand's sinh power would be 16, and n = 1 divides by zero
    message = f"dimension must be in 2..16, got {n}"
    for f in (cone_integral_bound, first_summand_closed, first_summand_quad,
              second_summand, majorant):
        with pytest.raises(ValueError) as exc:
            f(n, 0.05)
        assert str(exc.value) == message
    # a cone table fails before its first row, not partway through
    calls = []
    monkeypatch.setattr(experiments, "cone_integral_bound",
                        lambda *a: calls.append(a))
    cfg = RunConfig(command="cone-table", cone_dims=(3, n), phis=(0.05,))
    with pytest.raises(ValueError) as exc:
        experiments.cmd_cone_table(cfg)
    assert str(exc.value) == message
    assert calls == []


def test_t_function_identities():
    u = np.linspace(0.0, 1.0, 1001)
    for phi in (0.03, 0.0995, 0.3):
        t = t_function(u, phi)
        s2 = math.sin(phi) ** 2
        low = u <= s2
        l_low = u[low] / math.tan(phi)
        l_high = (1.0 - u[~low]) * math.tan(phi)
        assert np.allclose(t[low], u[low] - u[low] ** 2 - l_low ** 2,
                           atol=1e-15)
        assert np.allclose(t[~low], u[~low] - u[~low] ** 2 - l_high ** 2,
                           atol=1e-15)
        # chord identity behind the tight denominator: 1-(1-u)^2-L^2 = u+t
        lsq = np.where(low, (u / math.tan(phi)) ** 2,
                       ((1.0 - u) * math.tan(phi)) ** 2)
        assert np.allclose(1.0 - (1.0 - u) ** 2 - lsq, u + t, atol=1e-14)
    assert t_function(0.5, 0.1) == pytest.approx(
        0.5 - 0.25 - (0.5 * math.tan(0.1)) ** 2, abs=1e-15)
    with pytest.raises(ValueError):
        t_function(np.array([-0.1, 0.5]), 0.1)


def test_first_summand_closed_vs_quadrature():
    for n in (2, 3, 4, 7):
        for phi in (0.02, 0.0995):
            assert first_summand_closed(n, phi) == pytest.approx(
                first_summand_quad(n, phi), rel=1e-8
            )


def test_second_summand_below_one_under_cap():
    for n in range(2, 9):
        for phi in np.linspace(0.005, 0.999 * PHI_CAP, 8):
            assert second_summand(n, float(phi)) < 1.0


def test_second_summand_matches_direct_quadrature():
    # the closed-form reduction against the raw integrand, integrated with
    # breakpoints resolving the boundary layer at u = sin^2 phi
    from scipy import integrate

    from hypervol.cones import _l_edge

    for n in (2, 3, 5):
        for phi in (0.03, 0.0995):
            s2 = math.sin(phi) ** 2

            def f(u):
                le = float(_l_edge(u, phi))
                return le ** (n - 1) / (u + t_function(u, phi)) ** ((n + 1) / 2)

            edges = [s2 * (1 + k) for k in (0, 1e-2, 1, 100)] + [1.0]
            val = sum(
                integrate.quad(f, lo, hi, limit=200, epsabs=1e-15)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            assert second_summand(n, phi) == pytest.approx(val, rel=1e-11)


def test_second_summand_small_phi_limits():
    # n = 2 closed form cos(phi)(1 - sin(phi)); limit 1/(n-1) from below
    phi = 1e-4
    assert second_summand(2, phi) == pytest.approx(
        math.cos(phi) * (1 - math.sin(phi)), rel=1e-12)
    for n in (2, 3, 5):
        assert second_summand(n, phi) == pytest.approx(1 / (n - 1), abs=2e-4)
        assert second_summand(n, phi) < 1 / (n - 1)


def test_majorant_chain():
    # integral <= first + second <= majorant, term by term
    for n in range(2, 9):
        for phi in np.linspace(0.01, 0.999 * PHI_CAP, 6):
            phi = float(phi)
            val = cone_integral_bound(n, phi)
            first = first_summand_closed(n, phi)
            second = second_summand(n, phi)
            assert val <= first + second + 1e-12
            assert first + second <= majorant(n, phi) + 1e-12
            assert majorant(n, phi) == pytest.approx(first + 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# facet-decomposition maps

def random_facet(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        f = rng.uniform(-0.7, 0.7, size=(n, n))
        if abs(np.linalg.det(f)) > 1e-3:
            return f


def test_lemma1_det_value():
    for n in (2, 3, 4, 5):
        facet = random_facet(n, 40 + n)
        for i in range(1, n + 1):
            d = lemma1_det(facet, i)
            assert d == pytest.approx(2.0 ** (1 - n), rel=1e-12)
            m = lemma1_matrix(facet, i)
            assert np.linalg.det(m) == pytest.approx(d, rel=1e-10)


def test_lemma1_matrix_realizes_map():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        facet = random_facet(n, n)
        for _ in range(20):
            w = rng.dirichlet(np.ones(n + 1))[:n]  # sum <= 1 automatically
            y = BarycentricPoint(facet, w)
            for i in range(1, n + 1):
                assert np.allclose(
                    lemma1_map(y, i).coords, lemma1_matrix(facet, i) @ y.point(),
                    atol=1e-12,
                )


def test_lemma1_argmax_expands():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        facet = random_facet(n, 10 + n)
        for _ in range(50):
            w = rng.dirichlet(np.ones(n + 1))[:n]
            y = BarycentricPoint(facet, w)
            i = lemma1_argmax(y)
            best = np.linalg.norm(lemma1_map(y, i).coords)
            norms = [np.linalg.norm(lemma1_map(y, j).coords)
                     for j in range(1, n + 1)]
            assert best == pytest.approx(max(norms), abs=1e-14)
            # the selected branch never contracts toward the origin
            assert best >= np.linalg.norm(y.point()) - 1e-12


def test_barycentric_validation():
    facet = random_facet(3, 2)
    with pytest.raises(ValueError):
        BarycentricPoint(facet, np.array([0.5, 0.7, 0.3]))  # sum > 1
    with pytest.raises(ValueError):
        BarycentricPoint(facet, np.array([-0.1, 0.2, 0.2]))
    with pytest.raises(ValueError):
        lemma1_map(BarycentricPoint(facet, np.array([0.2, 0.2, 0.2])), 4)


def test_facet_decomposition_2d_partitions():
    poly = convex_hull(SQUARE)
    facet = poly.facets[0]
    verts = np.vstack([np.zeros(2), poly.vertices[list(facet)]])
    out = verify_facet_decomposition(Simplex(verts), poly, budget=40_000,
                                     seed=3)
    assert out["passed"]
    assert not out["low_confidence"]
    # in the plane the two tilde cones tile D, so the correlated estimates
    # agree sample by sample
    assert out["ratio"] == pytest.approx(1.0, abs=1e-6)
    assert out["bound"] == 4.0
    assert len(out["vol_parts"]) == 2


def test_facet_decomposition_3d():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(14, 3))
    pts *= 0.85 / np.max(np.linalg.norm(pts, axis=1))
    poly = convex_hull(pts)
    facet = poly.facets[0]
    verts = np.vstack([np.zeros(3), poly.vertices[list(facet)]])
    out = verify_facet_decomposition(Simplex(verts), poly, budget=30_000,
                                     seed=7)
    assert out["passed"]
    assert out["bound"] == 8.0
    assert out["ratio"] <= 8.0
    assert out["vol_D"].value > 0


def test_facet_decomposition_input_validation():
    poly = convex_hull(SQUARE)
    facet = poly.facets[0]
    bad = np.vstack([np.array([0.1, 0.1]), poly.vertices[list(facet)]])
    with pytest.raises(ValueError):
        verify_facet_decomposition(Simplex(bad), poly, budget=1000)


def test_facet_decomposition_rejects_non_vertex_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the input checks")

    monkeypatch.setattr(cones, "_chunk_sums", no_sampling)
    monkeypatch.setattr(cones, "_dirichlet_draw", no_sampling)
    poly = convex_hull(SQUARE)
    # (R/2, R/2) lies on the facet, but no hull vertex points its way
    verts = np.array([[0.0, 0.0], [R, 0.0], [R / 2, R / 2]])
    with pytest.raises(ValueError, match="no hull vertex"):
        verify_facet_decomposition(Simplex(verts), poly, budget=1000)


def _tilde_oracle(poly, x, pts):
    """Reference membership in C~_x: one grazing ray per sample.

    Each sample's section plane spans x and the sample; the grazing ray
    from `boundary_rays`, clipped to the hull, ends at the in-hull endpoint
    z of the plane's boundary edge at x, and the sample is tested against
    the in-plane triangle conv(0, x, (x + z)/2).
    Returns the verdicts and each sample's distance to the nearest line of
    its triangle.
    """
    u = x / np.linalg.norm(x)
    a = pts @ u
    ortho = pts - np.outer(a, u)
    b = np.linalg.norm(ortho, axis=1)
    y, xh = boundary_rays(poly, u, ortho / b[:, None])
    z = _grazing_endpoints(poly, y, xh)
    za = z @ u
    zb = np.linalg.norm(z - np.outer(za, u), axis=1)
    xa = np.linalg.norm(x)
    ma, mb = (xa + za) / 2.0, zb / 2.0
    # each side is >= 0 inside: the axis, origin -> midpoint, apex -> midpoint
    sides = [
        b,
        (mb * a - ma * b) / np.hypot(ma, mb),
        ((ma - xa) * b - mb * (a - xa)) / np.hypot(ma - xa, mb),
    ]
    inside = np.all([s >= 0.0 for s in sides], axis=0)
    return inside, np.min(np.abs(sides), axis=0)


def _simplex_margin(pts, inv):
    """Distance from each sample to the nearest facet plane of any simplex."""
    n = pts.shape[1]
    lam = pts @ inv
    dist = []
    for s in range(0, inv.shape[1], n):
        block = inv[:, s:s + n]
        dist.append(np.abs(lam[:, s:s + n]) / np.linalg.norm(block, axis=0))
        dist.append(np.abs(1.0 - lam[:, s:s + n].sum(axis=1, keepdims=True))
                    / np.linalg.norm(block.sum(axis=1)))
    return np.min(np.hstack(dist), axis=1)


CUBE = 0.5 * np.array([[i, j, k] for i in (-1.0, 1.0) for j in (-1.0, 1.0)
                       for k in (-1.0, 1.0)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from([2, 3, 4, "cube"]), seed=st.integers(0, 2**20))
def test_tilde_cone_union_of_simplices_matches_ray_oracle(case, seed):
    rng = np.random.default_rng(seed)
    if case == "cube":
        # Qhull splits each square face into two triangles
        pts = CUBE
    else:
        pts = rng.normal(size=(6 + 3 * case, case))
        pts -= pts.mean(axis=0)  # the origin lies inside the hull
        pts *= 0.85 / np.max(np.linalg.norm(pts, axis=1))
    poly = convex_hull(pts)
    n = poly.dim
    x = poly.vertices[seed % len(poly.vertices)]
    # samples fill conv(0, 1.3 T) for every facet T whose plane passes
    # through x: together these hold C~_x, and reach past the hull
    through_x = np.abs(poly.normals @ x - poly.offsets) <= 1e-9
    samples = np.vstack([
        1.3 * rng.dirichlet(np.ones(n + 1), size=300)[:, 1:]
        @ poly.vertices[list(poly.facets[k])]
        for k in np.flatnonzero(through_x)
    ])
    inv = cones._tilde_cone_inverses(poly, x)
    got = cones._in_tilde_cone(samples, inv)
    want, oracle_margin = _tilde_oracle(poly, x, samples)
    clear = (oracle_margin > 1e-8) & (_simplex_margin(samples, inv) > 1e-8)
    assert clear.sum() > 0.9 * len(samples)
    assert 0 < want[clear].sum() < clear.sum()
    assert np.array_equal(got[clear], want[clear])


# ---------------------------------------------------------------------------
# reporting

def test_cone_report_structure():
    poly = convex_hull(SQUARE)
    rep = cone_report(poly, np.array([1.0, 0.0]), 16)
    assert rep["grid"] == 2
    assert rep["within_bound"]
    assert rep["truncation_deficit"] >= 0.0
    assert len(rep["origin_angles"]) == len(rep["flagged"])
    for phi, fl in zip(rep["origin_angles"], rep["flagged"]):
        assert fl == (phi >= PHI_CAP)
    assert set(rep["volume"]) == {"value", "std_error", "evaluations",
                                  "method", "low_confidence",
                                  "achieved_rel_tol"}
    assert isinstance(rep["volume"]["low_confidence"], bool)


@pytest.mark.parametrize("pts, grid", [(PENTAGON, 16), (OCTAHEDRON, 8)])
def test_cone_report_deficit_matches_section_integrals(pts, grid):
    poly = convex_hull(pts)
    n, x = poly.dim, poly.vertices[0]
    rep = cone_report(poly, x, grid)
    secs = cone_sections(poly, x, grid)
    assert all(s.apex_radius < 1.0 for s in secs)
    gaps = [section_integral(replace(s, apex_radius=1.0), n)[0]
            - section_integral(s, n)[0] for s in secs]
    expected = unit_sphere_area(n - 2) * float(np.mean(gaps))
    assert expected > 0.0
    assert rep["truncation_deficit"] == pytest.approx(expected, rel=1e-12)


CROSS_4D = 0.999 * np.vstack([np.eye(4), -np.eye(4)])


@pytest.mark.parametrize("pts, grid, method", [
    (PENTAGON, 16, "exact_2d"),
    (OCTAHEDRON, 16, "closed_sections"),
    (CROSS_4D, 8, "quadrature"),
])
def test_cone_report_states_its_error(pts, grid, method):
    poly = convex_hull(pts)
    vol = cone_report(poly, poly.vertices[0], grid)["volume"]
    assert vol["method"] == method
    tol = vol["achieved_rel_tol"]
    assert isinstance(tol, float) and math.isfinite(tol)
    assert vol["low_confidence"] == (tol > 1e-4)
