"""Vertex cones, their section integrals, and the explicit bounding chain.

The section integral has two independent charts (polar and an anchored
(u, v) chart); the bounding integral has frozen reference values computed
from the closed-form inner antiderivative.  Tests pit the implementation
against those references, against the 2D angle-defect area, and against
the inequality chain integral <= first summand + second summand.
"""

import math

import numpy as np
import pytest

from hypervol import (
    PHI_CAP,
    BarycentricPoint,
    ConeSection,
    IdealPoint,
    NoSectionError,
    Simplex,
    boundary_ray,
    boundary_rays,
    cone_integral_bound,
    cone_report,
    cone_sections,
    cone_volume,
    convex_hull,
    densify_net,
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
    verify_facet_decomposition,
)

R = 0.95
SQUARE = np.array([[R, 0.0], [0.0, R], [-R, 0.0], [0.0, -R]])


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

def test_boundary_ray_square_geometry():
    poly = convex_hull(SQUARE)
    y, z = boundary_ray(poly, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # grazing ray runs along the edge toward the adjacent vertex
    assert np.allclose(z.coords, [0.0, R], atol=1e-9)
    assert np.linalg.norm(y.direction) == pytest.approx(1.0, abs=1e-12)
    # y continues the same edge line x + y = R out to the sphere
    assert y.direction[0] + y.direction[1] == pytest.approx(R, abs=1e-9)


def test_boundary_rays_batch_matches_singles():
    poly = convex_hull(SQUARE)
    x = np.array([0.0, 1.0])
    thetas = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y, z, t_far, t_sphere = boundary_rays(poly, x, thetas)
    assert np.all(t_far <= t_sphere + 1e-12)
    for k in range(2):
        yk, zk = boundary_ray(poly, x, thetas[k])
        assert np.allclose(y[k], yk.direction, atol=1e-12)
        assert np.allclose(z[k], zk.coords, atol=1e-12)


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
    g2 = tangent_grid(x2, 16, 2)
    assert g2.shape == (2, 2)
    assert np.allclose(g2[0], -g2[1])
    x3 = np.array([0.0, 0.0, 1.0])
    g3 = tangent_grid(x3, 12, 3)
    assert g3.shape == (12, 3)
    x4 = np.full(4, 0.5)
    g4 = tangent_grid(x4, 32, 4)
    assert g4.shape == (32, 4)
    for x, g in ((x2, g2), (x3, g3), (x4, g4)):
        assert np.max(np.abs(g @ (x / np.linalg.norm(x)))) < 1e-12
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
    assert np.array_equal(g4, tangent_grid(x4, 32, 4))
    with pytest.raises(ValueError):
        tangent_grid(x3, 4, 3)


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


def test_cone_sections_square():
    poly = convex_hull(SQUARE)
    secs = cone_sections(poly, np.array([1.0, 0.0]), 16)
    assert len(secs) == 2  # n = 2 always has the two tangent directions
    for s in secs:
        assert s.apex_radius == pytest.approx(R, abs=1e-12)
        assert 0 < s.origin_angle < math.pi / 2
    tsecs = cone_sections(poly, np.array([1.0, 0.0]), 16, tilde=True)
    for s, t in zip(secs, tsecs):
        assert t.origin_angle <= s.origin_angle + 1e-12  # C~ sits inside C


def test_cone_volume_equals_triangle_areas_2d():
    poly = convex_hull(SQUARE)
    secs = cone_sections(poly, np.array([1.0, 0.0]), 16)
    est = cone_volume(secs, 2)
    total = sum(
        triangle_area_2d(np.zeros(2), R * s.apex.direction, s.far_point)
        for s in secs
    )
    assert est.value == pytest.approx(total, rel=1e-9)
    assert est.method == "quadrature"


def test_cone_volume_requires_common_apex():
    poly = convex_hull(SQUARE)
    a = cone_sections(poly, np.array([1.0, 0.0]), 16)
    b = cone_sections(poly, np.array([0.0, 1.0]), 16)
    with pytest.raises(ValueError):
        cone_volume([a[0], b[0]], 2)


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


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        cone_integral_bound(1, 0.05)
    with pytest.raises(ValueError):
        cone_integral_bound(3, 0.0)
    with pytest.raises(ValueError):
        cone_integral_bound(3, math.pi / 2)


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


# ---------------------------------------------------------------------------
# densification and reporting

def test_densify_net_brings_angles_under_cap():
    ang = 2.0 * math.pi * np.arange(3) / 3
    pts = 0.999 * np.column_stack([np.cos(ang), np.sin(ang)])
    dense = densify_net(pts, grid=16)
    assert dense.shape[0] > 3
    poly = convex_hull(dense)
    worst = 0.0
    for v in poly.vertices:
        u = v / np.linalg.norm(v)
        secs = cone_sections(poly, u, 16)
        worst = max(worst, max(s.origin_angle for s in secs))
    assert worst < PHI_CAP


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
                                  "method"}
