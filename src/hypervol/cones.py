"""Vertex cones hanging from near-ideal hull vertices.

For a hull vertex in direction x and a unit tangent theta orthogonal to
x, the planar section of the hull spanned by x and theta has a boundary
edge through the vertex.  Let y be the second intersection of that edge's
line with the unit sphere and z the far endpoint of the edge inside the
hull.  The section triangles

    C_x(theta)  = conv(x, (x + y)/2, 0)
    C~_x(theta) = conv(x, (x + z)/2, 0)

sweep out solid cones as theta runs over the tangent sphere.  A cone's
volume is a revolution-type integral around the axis [0, x]:

    Vol = Z_n * mean_theta  integral_section  d(q, axis)^(n-2) v_n(q) dA(q),

with Z_n the surface area of the unit (n-2)-sphere (validated against the
rotationally symmetric case).  At n = 2 a section integral is the area of
its triangle, and `cone_volume` takes the angle defects.  At n = 3 it is
elementary, and `cone_volume` sums a closed form per section
(`_closed_section`).  From n = 3 on two independent charts evaluate it: a
polar chart around the origin (the route from n = 4 on) and an iterated
chart anchored at the ideal vertex (the Lemma-style bounding integral);
at n = 3 both are oracles for the closed form.  In the anchored chart
with coordinates (u, v), point = (1-u) x + v theta, the section with origin
angle phi is {0 <= u <= 1, 0 <= v <= L(u)} where L(u) = u cot(phi) up to
u = sin^2(phi) and (1-u) tan(phi) beyond, and the inner v-integral has the
exact antiderivative v^(n-1) / ((n-1) D (D - v^2)^((n-1)/2)), D = 2u - u^2.
One routine integrates this chart over a triangle given by its (u, v)
vertices, each u-interval split geometrically and integrated by QUADPACK
to epsabs 1e-14, epsrel 1e-9; the uv chart of a (possibly truncated)
section and the bounding integral `cone_integral_bound` over the full
ideal section both go through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .klein import (
    IdealPoint,
    KleinPoint,
    _check_dimension,
    _row_sum,
    _row_sumsq,
    as_coords,
    sinh_power_integral,
    unit_sphere_area,
)
from .hull import Polytope, Simplex
from .rng import _chunk_sums, _mean_se
from .volume import (VolumeEstimate, _angle_defects, _budget, _dirichlet_draw,
                     _sampled, _stated)

__all__ = [
    "PHI_CAP",
    "NoSectionError",
    "SingularIntegralError",
    "ConeSection",
    "BarycentricPoint",
    "boundary_rays",
    "tangent_grid",
    "cone_sections",
    "cone_volume",
    "cone_integral_bound",
    "section_integral",
    "first_summand_closed",
    "first_summand_quad",
    "second_summand",
    "majorant",
    "t_function",
    "lemma1_map",
    "lemma1_argmax",
    "lemma1_matrix",
    "lemma1_det",
    "verify_facet_decomposition",
    "cone_report",
]

# Sections with a larger origin angle are flagged; adding ideal points can
# always densify a configuration below the cap without shrinking the hull.
PHI_CAP = math.atan(0.1)

# Rounding bound of `_closed_section` per unit of its weight.  On 872
# sections of near-ideal 3D hull vertices (truncated and ideal apex) and
# 2,000 random ones (apex radius 0.2 to 1, origin angle 3e-4 to 1.4, far
# point 1e-7 to 0.9 short of the sphere), the error against a 50-digit
# quadrature stayed under 1.8 eps times the weight.
_SECTION_ROUNDING = 8.0 * np.finfo(float).eps


def _quad(f, a, b, **kw):
    # requested tolerances sit at the roundoff floor on purpose; the
    # convergence warning carries no information at that point
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, **kw)


class NoSectionError(ValueError):
    """The requested planar section is degenerate at this vertex."""


class SingularIntegralError(ArithmeticError):
    """A bounding integral exceeded the divergence guard."""


@dataclass(frozen=True)
class ConeSection:
    """Planar triangle data for one tangent direction at a vertex.

    The triangle is conv(apex_radius * apex, far_point, origin); apex_radius
    is 1.0 for an exactly ideal apex and slightly below 1 for sections read
    off a hull with truncated vertices.
    """

    apex: IdealPoint
    direction: np.ndarray
    far_point: np.ndarray
    origin_angle: float
    apex_radius: float = 1.0

    def __post_init__(self):
        x = self.apex.direction
        th = np.asarray(self.direction, dtype=float)
        th = th / np.linalg.norm(th)
        object.__setattr__(self, "direction", th)
        if abs(float(x @ th)) > 1e-12:
            raise ValueError("direction must be orthogonal to the apex")
        fp = np.asarray(self.far_point, dtype=float)
        object.__setattr__(self, "far_point", fp)
        # far point must live in the section plane span{x, theta}
        resid = fp - (fp @ x) * x - (fp @ th) * th
        if np.linalg.norm(resid) > 1e-9:
            raise ValueError("far_point must lie in the section plane")
        if not float(fp @ fp) < 1.0:
            raise ValueError("far_point must lie inside the unit ball")
        if not 0.0 < self.origin_angle < math.pi / 2:
            raise ValueError("origin angle must lie in (0, pi/2)")
        if not 0.0 < self.apex_radius <= 1.0:
            raise ValueError("apex_radius must lie in (0, 1]")

    @property
    def flagged(self) -> bool:
        """True when the section is wider than the quality cap."""
        return self.origin_angle >= PHI_CAP

    def plane_coords(self) -> tuple[float, float]:
        """(a, b) coordinates of far_point in the (apex, direction) frame."""
        return (
            float(self.far_point @ self.apex.direction),
            float(self.far_point @ self.direction),
        )


# ---------------------------------------------------------------------------
# boundary rays

def _match_vertex(poly: Polytope, x_dir: np.ndarray) -> np.ndarray:
    # match by direction cosine, not inner product: on hulls with uneven
    # vertex radii a farther vertex in a nearby direction would win the
    # plain dot-product ranking
    norms = np.linalg.norm(poly.vertices, axis=1)
    scores = (poly.vertices @ x_dir) / np.maximum(norms, 1e-300)
    idx = int(np.argmax(scores))
    if scores[idx] < 1.0 - 1e-9:
        raise ValueError("no hull vertex lies in the apex direction")
    return poly.vertices[idx]


def _active_facets(poly: Polytope, x) -> tuple[np.ndarray, np.ndarray]:
    """(xh, active) at the hull vertex xh in direction x.

    active marks the facets whose plane passes through xh, those whose
    offset exceeds normal . xh by at most 1e-9 (1 + |offset|).  Raises
    ValueError unless the polytope holds the origin and has a vertex in
    direction x.
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
    if not poly.contains(np.zeros(poly.dim)):
        raise ValueError("polytope must contain the origin")
    xh = _match_vertex(poly, x_dir)
    slack = poly.offsets - poly.normals @ xh
    active = slack <= 1e-9 * (1.0 + np.abs(poly.offsets))
    if not np.any(active):
        raise ValueError("direction does not match a polytope vertex")
    return xh, active


def boundary_rays(poly: Polytope, x, thetas: np.ndarray):
    """Where the boundary edges at the vertex in direction x meet the sphere.

    For each tangent row theta: rotate a ray at the vertex from the inward
    axis direction toward theta until the last angle psi* at which it still
    enters the polytope; that grazing ray lies on the section's boundary
    edge.  Returns (y, xh): y rows are the unit vectors where the grazing
    rays leave the ball (the second sphere intersections of the edge
    lines), xh the hull vertex the rays start from.
    """
    xh, active = _active_facets(poly, x)
    u = xh / np.linalg.norm(xh)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    normals = poly.normals
    a_act = normals[active] @ u                       # all positive
    b_act = normals[active] @ thetas.T                # (k, m)
    psi = np.arctan2(a_act[:, None], b_act)           # first exit angle per facet
    psi_star = psi.min(axis=0)                        # (m,)
    if np.any(psi_star <= 1e-12):
        raise NoSectionError("section degenerate: no interior rotation")
    delta = -np.outer(np.cos(psi_star), u) + thetas * np.sin(psi_star)[:, None]
    b = delta @ xh
    c0 = float(xh @ xh) - 1.0
    y = xh[None, :] + (-b + np.sqrt(b * b - c0))[:, None] * delta
    y /= np.sqrt(_row_sumsq(y))[:, None]
    return y, xh


def tangent_grid(x, size: int) -> np.ndarray:
    """Deterministic grid of unit tangents orthogonal to x in R^n, n = len(x).

    n=2: the two tangent directions (a 0-sphere).  n=3: uniform circle.
    n>=4: Sobol points pushed to the tangent (n-2)-sphere through the
    inverse Gaussian map, a standard low-discrepancy spherical set.
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
    n = x_dir.size
    if size < 8:
        raise ValueError("angular grid must have at least 8 directions")
    basis = _tangent_basis(x_dir)                     # (n-1, n)
    if n == 2:
        return np.vstack([basis[0], -basis[0]])
    if n == 3:
        ang = 2.0 * math.pi * np.arange(size) / size
        return np.outer(np.cos(ang), basis[0]) + np.outer(np.sin(ang), basis[1])
    from scipy.stats import qmc, norm

    sob = qmc.Sobol(d=n - 1, scramble=False)
    # drop the all-zero and all-half points; the latter maps to the zero
    # vector under the inverse Gaussian
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non power-of-2 draw
        raw = sob.random(size + 2)[2:]
    g = norm.ppf(np.clip(raw, 1e-12, 1 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ basis


def _tangent_basis(x_dir: np.ndarray) -> np.ndarray:
    n = x_dir.size
    m = np.column_stack([x_dir, np.eye(n)])
    q, _ = np.linalg.qr(m)
    # columns 1.. are an orthonormal completion of x_dir
    return q[:, 1:n].T


def cone_sections(poly: Polytope, x, angular_grid: int) -> list[ConeSection]:
    """Sections of the vertex cone C_x at x, one per tangent grid direction.

    Each section's far point is (x + y)/2 with y the sphere point of its
    boundary edge.
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
    thetas = tangent_grid(x_dir, angular_grid)
    y, xh = boundary_rays(poly, x_dir, thetas)
    far = (xh[None, :] + y) / 2.0
    apex = IdealPoint(x_dir)
    apex_radius = float(np.linalg.norm(xh))
    out = []
    for k in range(thetas.shape[0]):
        fa = float(far[k] @ x_dir)
        fb = float(far[k] @ thetas[k])
        out.append(
            ConeSection(
                apex=apex,
                direction=thetas[k],
                far_point=far[k],
                origin_angle=math.atan2(fb, fa),
                apex_radius=apex_radius,
            )
        )
    return out


# ---------------------------------------------------------------------------
# section integrals: two independent charts

def _chord_geometry(section: ConeSection) -> tuple[float, float]:
    """(h, phi_chord): origin distance and foot angle of the edge line.

    The line carrying the triangle's far edge passes through the apex
    point apex_radius * x and the far point.
    """
    a0, b0 = section.apex_radius, 0.0
    a1, b1 = section.plane_coords()
    # line through (a0, b0) and (a1, b1) in the plane
    da, db = a1 - a0, b1 - b0
    nrm = math.hypot(da, db)
    if nrm == 0.0:
        raise ValueError("degenerate section edge")
    # unit normal to the edge
    na, nb = db / nrm, -da / nrm
    h = abs(na * a0 + nb * b0)
    # foot of the perpendicular from the origin; its angle is signed, and
    # genuinely negative when the edge tilts outward past the apex point
    fa = (na * a0 + nb * b0) * na
    fb = (na * a0 + nb * b0) * nb
    return h, math.atan2(fb, fa)


def _section_integral_polar(section: ConeSection, n: int):
    """integral over the section of d(q, axis)^(n-2) v_n dA, polar chart.

    Coordinates (rho, alpha) around the origin, alpha measured from the
    apex ray; the radial part is exact (sinh-power integral) and alpha is
    integrated with the substitution alpha = t^2, which removes the
    endpoint singularity the ideal apex creates, in one QUADPACK call of
    at most 400 subintervals.
    """
    h, phi_chord = _chord_geometry(section)
    phi_sec = section.origin_angle
    evals = 0

    def integrand(t):
        nonlocal evals
        evals += 1
        alpha = t * t
        r = h / math.cos(alpha - phi_chord)
        r = min(r, 1.0 - 1e-15)
        radial = sinh_power_integral(n - 1, math.atanh(r))
        return 2.0 * t * math.sin(alpha) ** (n - 2) * radial

    t_max = math.sqrt(phi_sec)
    pts = None
    if section.apex_radius < 1.0:
        # boundary layer where the chord radius falls off the truncated apex
        alpha_c = max((1.0 - section.apex_radius) / max(abs(math.tan(phi_chord)), 1e-6), 1e-14)
        pts = [math.sqrt(min(alpha_c * k, phi_sec * 0.9)) for k in (1.0, 5.0, 25.0)]
    val, err = _quad(
        integrand, 0.0, t_max, points=pts, limit=400, epsabs=1e-14, epsrel=1e-9
    )
    return val, err, evals


def _inner_closed(n: int, s: float, d: float) -> float:
    """integral_0^s v^(n-2) (d - v^2)^(-(n+1)/2) dv, exact antiderivative."""
    gap = max(d - s * s, 1e-300)
    return s ** (n - 1) / ((n - 1) * d * gap ** ((n - 1) / 2.0))


def _uv_triangle(n: int, verts):
    """integral of v^(n-2) (D - v^2)^(-(n+1)/2), D = 2u - u^2, over a triangle.

    The triangle is given by three (u, v) vertices with v >= 0.  Sorted by
    u, it spans two u-intervals; on each the v-range lies between two of
    its edges, and the inner v-integral is evaluated in closed form.  Near
    a small left end the integrand varies on the scale of u itself, and one
    quad call over the whole interval samples too coarsely there and can
    miss most of a narrow triangle, so each interval is split geometrically
    at lo, 10 lo, 100 lo, ... and every piece is integrated to epsabs 1e-14,
    epsrel 1e-9 with at most 300 subintervals.  Returns (value, evaluations).
    """
    (u0, v0), (u1, v1), (u2, v2) = sorted(verts)
    evals = 0

    def line(ua, va, ub, vb):
        # an edge on the u-axis has a zero inner integral and drops out
        if va == vb == 0.0:
            return None
        den = max(ub - ua, 1e-300)
        return lambda u: va * (ub - u) / den + vb * (u - ua) / den

    long_edge = line(u0, v0, u2, v2)
    # the middle vertex above the long edge puts the two short edges on top
    above = long_edge is None or v1 >= long_edge(u1)
    total = 0.0
    for lo, hi, short_edge in ((u0, u1, line(u0, v0, u1, v1)),
                               (u1, u2, line(u1, v1, u2, v2))):
        if hi - lo <= 1e-15:
            continue
        top, bottom = (short_edge, long_edge) if above else (long_edge, short_edge)

        def f(u, top=top, bottom=bottom):
            nonlocal evals
            evals += 1
            d = 2.0 * u - u * u
            val = _inner_closed(n, top(u), d)
            return val if bottom is None else val - _inner_closed(n, bottom(u), d)

        cuts = [lo]
        while lo > 0.0 and cuts[-1] * 10.0 < hi:
            cuts.append(cuts[-1] * 10.0)
        cuts.append(hi)
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = _quad(f, a, b, limit=300, epsabs=1e-14, epsrel=1e-9)
            total += val
    return total, evals


def section_integral(section: ConeSection, n: int, chart: str = "polar"):
    """Revolution-weighted section integral in the requested chart."""
    if chart == "polar":
        val, _, evals = _section_integral_polar(section, n)
        return val, evals
    if chart == "uv":
        # point = (1-u) x + v theta: the apex point sits at u = 1 - apex_radius
        a, b = section.plane_coords()
        return _uv_triangle(
            n, [(1.0 - section.apex_radius, 0.0), (1.0 - a, b), (1.0, 0.0)]
        )
    raise ValueError(f"unknown chart {chart!r}")


def _closed_section(section: ConeSection) -> tuple[float, float]:
    """The n = 3 section integral in closed form, with its rounding weight.

    With phi_c the foot angle of the edge line, a the apex radius,
    h = a cos(phi_c) the line's origin distance, s = sqrt(1 - h^2),
    beta = alpha - phi_c and r = h / cos(beta) the radius of the line at
    angle alpha, the polar integrand sin(alpha) M_2(atanh r) has the
    antiderivative

        F(alpha) = [(sin(phi_c) / s) atanh(h tan(beta) / s)
                    + cos(alpha) atanh(r)] / 2,

    and the integral is F(phi) - F(0).  Each piece is written without
    cancellation: s^2 = (1 - a)(1 + a) + (a sin phi_c)^2, and atanh r at
    the far point is log((cos beta + h) / (cos beta - h)) / 2 with
    cos beta - h = 2 sin(phi/2) sin(phi_c - phi/2) + (1 - a) cos(phi_c).
    F(0) is even in phi_c; with c = |sin phi_c| and sigma = c / s,

        4 F(0) = (1 + sigma) log1p(a) - (1 - sigma) log1p(-a)
                 - 2 sigma log(s + a c),
        1 - sigma = cos^2(phi_c) (1 - a)(1 + a) / (s (s + c)),

    and the log1p(-a) term drops for an ideal apex, F(0) = -ln(c) / 2.
    The integrand is positive, so a difference that rounds below 0 is 0.
    The weight is the summed magnitude of the terms plus each atanh's
    slope times the rounding of its argument: eps (|phi| + |phi_c|) in
    beta, eps times the summed magnitude of cos beta - h's two parts.
    """
    _, phi_c = _chord_geometry(section)
    a, phi = section.apex_radius, section.origin_angle
    sin_c, cos_c = math.sin(phi_c), math.cos(phi_c)
    c = abs(sin_c)
    h = a * cos_c
    s = math.sqrt((1.0 - a) * (1.0 + a) + (a * c) ** 2)
    beta = phi - phi_c
    x = h * math.tan(beta) / s
    gap_parts = (2.0 * math.sin(0.5 * phi) * math.sin(phi_c - 0.5 * phi),
                 (1.0 - a) * cos_c)
    gap = sum(gap_parts)
    far = (0.5 * sin_c / s * math.atanh(x),
           0.25 * math.cos(phi) * math.log((math.cos(beta) + h) / gap))
    sigma = c / s
    one_minus = cos_c * cos_c * (1.0 - a) * (1.0 + a) / (s * (s + c))
    apex = (0.25 * (1.0 + sigma) * math.log1p(a),
            -0.25 * one_minus * math.log1p(-a) if a < 1.0 else 0.0,
            -0.5 * sigma * math.log(s + a * c))
    slopes = (0.5 * c * (abs(phi) + abs(phi_c)) * h
              / (s * s * math.cos(beta) ** 2 * (1.0 - x * x))
              + 0.25 * math.cos(phi) * sum(map(abs, gap_parts)) / gap)
    weight = sum(map(abs, far)) + sum(map(abs, apex)) + slopes
    return max(sum(far) - sum(apex), 0.0), weight


def cone_volume(sections: list[ConeSection]) -> VolumeEstimate:
    """Assembled cone volume Z_n * mean over grid sections.

    n is the dimension of the sections' shared apex.  Z_n is the unit
    (n-2)-sphere area.  At n = 2 it is 2 and each section integral is its
    triangle's angle defect (method "exact_2d"), with a rounding bound.
    At n = 3 each is two closed-form terms, F(phi) - F(0)
    (`_closed_section`, method "closed_sections", 2 evaluations a
    section), with a rounding bound.  From n = 4 on it is one polar-chart
    QUADPACK call (method "quadrature"), with QUADPACK's error estimate.
    achieved_rel_tol is the summed error over the summed section integrals.
    """
    if not sections:
        raise ValueError("need at least one section")
    x0 = sections[0].apex.direction
    n = x0.size
    for s in sections[1:]:
        if np.linalg.norm(s.apex.direction - x0) > 1e-9:
            raise ValueError("sections must share an apex")
    if n == 2:
        tri = np.array([[s.apex_radius * s.apex.direction, s.far_point,
                         np.zeros(2)] for s in sections])
        vals, err = _angle_defects(tri)
        evals, method = 3 * len(sections), "exact_2d"
    elif n == 3:
        vals, weights = zip(*map(_closed_section, sections))
        err = _SECTION_ROUNDING * sum(weights)
        evals, method = 2 * len(sections), "closed_sections"
    else:
        vals, errs, counts = zip(*(_section_integral_polar(s, n) for s in sections))
        err, evals, method = sum(errs), sum(counts), "quadrature"
    achieved = err / max(abs(sum(vals)), 1e-300)
    return _stated(unit_sphere_area(n - 2) * float(np.mean(vals)), achieved,
                   evals, method)


# ---------------------------------------------------------------------------
# the bounding integral and its pieces

def _l_edge(u, phi):
    u = np.asarray(u, dtype=float)
    s2 = math.sin(phi) ** 2
    return np.where(u <= s2, u / math.tan(phi), (1.0 - u) * math.tan(phi))


def t_function(u, phi: float):
    """t(u) = u - u^2 - L(u)^2, exact piecewise evaluation on [0, 1]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("u must lie in [0, 1]")
    le = _l_edge(u_arr, phi)
    out = u_arr - u_arr * u_arr - le * le
    return float(out) if np.ndim(u) == 0 else out


def cone_integral_bound(n: int, phi: float) -> float:
    """The iterated bounding integral over the full ideal section.

    Integrand v^(n-2) (1 - (1-u)^2 - v^2)^(-(n+1)/2) over the triangle
    {0 <= u <= 1, 0 <= v <= L(u)} with vertices (0, 0),
    (sin^2 phi, sin phi cos phi) and (1, 0): the uv chart of the ideal
    section, through the same triangle routine (inner integral in closed
    form, outer adaptive on [0, sin^2 phi] and on [sin^2 phi, 1], split at
    sin^2 phi times powers of 10, to epsabs 1e-14, epsrel 1e-9).
    Estimates above 1e9 raise SingularIntegralError.
    """
    _check_dimension(n)
    if not 0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")
    s, c = math.sin(phi), math.cos(phi)
    val, _ = _uv_triangle(n, [(0.0, 0.0), (s * s, s * c), (1.0, 0.0)])
    if abs(val) > 1e9:
        raise SingularIntegralError(f"bounding integral diverged: {val:.3e}")
    return val


def first_summand_closed(n: int, phi: float) -> float:
    """(2/(n-1)) cos^(n-1)(phi), the exact below-the-break majorant piece."""
    _check_dimension(n)
    return 2.0 / (n - 1) * math.cos(phi) ** (n - 1)


def first_summand_quad(n: int, phi: float) -> float:
    """Quadrature of (cot phi)^(n-1) u^((n-3)/2) over [0, sin^2 phi]."""
    _check_dimension(n)
    s2 = math.sin(phi) ** 2
    cot = 1.0 / math.tan(phi)

    def f(u):
        return cot ** (n - 1) * u ** ((n - 3) / 2.0)

    val, _ = _quad(f, 0.0, s2, limit=200, epsabs=1e-13, epsrel=1e-11)
    return val


def second_summand(n: int, phi: float) -> float:
    """The above-the-break piece with the tight denominator (u + t(u)).

    The integrand L^(n-1) (u + t(u))^(-(n+1)/2) over [sin^2 phi, 1]
    reduces exactly, via sinh(mu) = (1-u)/sqrt(cos^2 phi - (1-u)^2), to
    sin^(n-1)(phi) cos(phi) * integral_0^{asinh(cot phi)} sinh^(n-1), so
    no quadrature is needed.  It stays below 1 for every phi > 0 and
    approaches 1/(n-1) as phi -> 0.
    """
    _check_dimension(n)
    if not 0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")
    s, c = math.sin(phi), math.cos(phi)
    upper = math.asinh(1.0 / math.tan(phi))
    return s ** (n - 1) * c * sinh_power_integral(n - 1, upper)


def majorant(n: int, phi: float) -> float:
    """The corrected explicit bound: first summand + 1 + C', with C' = 1."""
    return first_summand_closed(n, phi) + 1.0 + 1.0


# ---------------------------------------------------------------------------
# the facet-decomposition maps

@dataclass(frozen=True)
class BarycentricPoint:
    """A point of the cone D = conv(0, x_1..x_n) by facet weights.

    weights alpha_j >= 0 with sum <= 1 reconstruct y = sum alpha_j x_j;
    the origin carries the complementary weight.
    """

    facet: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.facet, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "facet", f)
        object.__setattr__(self, "weights", w)
        if f.shape[0] != f.shape[1] or w.size != f.shape[0]:
            raise ValueError("facet must be n points in R^n with n weights")
        if np.any(w < -1e-12) or w.sum() > 1.0 + 1e-12:
            raise ValueError("weights must be nonnegative with sum <= 1")

    def point(self) -> np.ndarray:
        return self.weights @ self.facet


def lemma1_map(y: BarycentricPoint, i: int) -> KleinPoint:
    """T_i(y) = y/2 + (sum_j alpha_j) x_i / 2, with i in 1..n."""
    n = y.facet.shape[0]
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    v = 0.5 * y.point() + 0.5 * float(y.weights.sum()) * y.facet[i - 1]
    return KleinPoint(v)


def lemma1_argmax(y: BarycentricPoint) -> int:
    """Index (1-based) maximizing |T_i(y)|; ties take the lowest index."""
    s = float(y.weights.sum())
    imgs = 0.5 * y.point()[None, :] + 0.5 * s * y.facet
    return int(np.argmax(np.linalg.norm(imgs, axis=1))) + 1


def lemma1_matrix(facet: np.ndarray, i: int) -> np.ndarray:
    """The linear map behind T_i: coordinates I/2 + x_i w^T / 2.

    The covector w recovers the weight sum, w . x_j = 1 for every vertex,
    so w solves X w = 1 with X the matrix of vertex rows.
    """
    x = np.asarray(facet, dtype=float)
    n = x.shape[0]
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    w = np.linalg.solve(x, np.ones(n))
    return 0.5 * np.eye(n) + 0.5 * np.outer(x[i - 1], w)


def lemma1_det(facet: np.ndarray, i: int) -> float:
    """Euclidean determinant of T_i (measured, not assumed)."""
    return float(np.linalg.det(lemma1_matrix(facet, i)))


def _tilde_cone_inverses(poly: Polytope, x) -> np.ndarray:
    """The cone C~_x as a union of simplices, by their inverse vertex matrices.

    For a simplicial hull, C~_x is the union, over the facets T whose plane
    passes through the vertex x, of the n-simplices conv(0, (x + T)/2).  In
    each section plane the grazing ray from x lies in the argmin active
    facet and leaves it through that facet's ridge opposite x, so the
    section triangle conv(0, x, (x + z)/2) lies in that facet's simplex;
    conversely each point of a simplex lies in its own section's triangle.
    A facet coplanar with a face at x that does not contain x adds its
    simplex by the same formula, which keeps triangulated faces whole.

    Returns the (n, k n) matrix [V_1^-1 ... V_k^-1] of the k active facets,
    V_j holding the simplex's vertices other than the origin as rows, so
    that p @ V_j^-1 are p's barycentric weights of those vertices.
    """
    xh, active = _active_facets(poly, x)
    return np.hstack([
        np.linalg.inv((xh[None, :] + poly.vertices[list(poly.facets[k])]) / 2.0)
        for k in np.flatnonzero(active)
    ])


def _in_tilde_cone(pts: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Rows of pts inside the union of simplices that `inv` holds.

    A row is inside a simplex when its barycentric weights are all
    >= -1e-10 and sum to at most 1 + 1e-10 (the origin takes the rest).
    The product is taken transposed, so each weight is one contiguous row
    and the test adds and compares whole rows, not short ones.
    """
    n = pts.shape[1]
    lam = inv.T @ pts.T                               # (k n, m), rows contiguous
    inside = np.zeros(pts.shape[0], dtype=bool)
    for s in range(0, lam.shape[0], n):
        ok = _row_sum(lam[s:s + n].T) <= 1.0 + 1e-10
        for j in range(s, s + n):
            ok &= lam[j] >= -1e-10
        inside |= ok
    return inside


def verify_facet_decomposition(
    d_simplex: Simplex, poly: Polytope, budget: int | None = 200_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check that Vol(D) <= 2^n sum_i Vol(D cap C~_(x_i)).

    D must be the cone conv(0, F) over a facet F of poly, origin first.
    All volumes share one Dirichlet sample of D, so the inequality is
    tested on correlated estimates and the margin is reported in standard
    errors of the per-sample statistic w (2^n sum_i 1_i - 1); vol_D and
    vol_parts carry the standard errors of their own sample means.  Each
    indicator 1_i tests the sample against C~_(x_i) as a union of simplices
    (`_tilde_cone_inverses`), built before the first sample is drawn.
    `budget` is the sample count: None reads as 200 000 and a budget below
    1 raises ValueError, as in `simplex_volume`, also for a flat cone.
    """
    budget = _budget(budget, 200_000)
    verts = d_simplex.vertices
    n = verts.shape[1]
    if np.linalg.norm(verts[0]) > 1e-12:
        raise ValueError("first vertex of D must be the origin")
    facet = verts[1:]
    if facet.shape[0] != n:
        raise ValueError("D must be a full-dimensional cone over a facet")
    vol_e = d_simplex.euclidean_volume()
    if vol_e <= 1e-300:
        return {
            "vol_D": VolumeEstimate(0.0, 0.0, 0, "monte_carlo"),
            "vol_parts": [], "sum_parts": 0.0, "ratio": 0.0,
            "bound": float(2 ** n), "margin_sigmas": math.inf,
            "passed": True, "low_confidence": True,
        }
    invs = [_tilde_cone_inverses(poly, facet[i]) for i in range(n)]
    two_n = float(2 ** n)

    def stats(rng, m):
        pts, w = _dirichlet_draw(rng, verts, m)
        indic = np.zeros((m, n))  # 0/1 per facet cone
        for i in range(n):
            indic[:, i] = _in_tilde_cone(pts, invs[i])
        t_stat = w * (two_n * _row_sum(indic) - 1.0)
        w2 = w * w
        return np.concatenate([
            [w.sum(), t_stat.sum(), (t_stat * t_stat).sum(), w2.sum()],
            (w[:, None] * indic).sum(axis=0),
            w2 @ indic,
        ])

    sum_w, sum_t, sum_t2, sum_w2, *rest = _chunk_sums(seed, budget, 16384,
                                                      stats).tolist()
    # each value keeps its own expression: the pinned values depend on it
    vol_d = _sampled(vol_e * (sum_w / budget),
                     vol_e * _mean_se(sum_w, sum_w2, budget)[1], budget)
    parts = [
        _sampled(vol_e * sw / budget, vol_e * _mean_se(sw, sw2, budget)[1], budget)
        for sw, sw2 in zip(rest[:n], rest[n:])
    ]
    sum_parts = float(sum(p.value for p in parts))
    mean_t, sem_t = _mean_se(sum_t, sum_t2, budget)
    margin = mean_t / sem_t if sem_t > 0 else math.inf
    ratio = vol_d.value / sum_parts if sum_parts > 0 else math.inf
    return {
        "vol_D": vol_d,
        "vol_parts": parts,
        "sum_parts": sum_parts,
        "ratio": ratio,
        "bound": two_n,
        "margin_sigmas": margin,
        "passed": bool(margin >= -3.0),
        "low_confidence": bool(sum_parts == 0.0),
    }


def cone_report(poly: Polytope, x, grid: int) -> dict:
    """JSON-ready report for one vertex cone: sections, volume, bound."""
    n = poly.dim
    secs = cone_sections(poly, x, grid)
    est = cone_volume(secs)
    z_n = unit_sphere_area(n - 2)
    bound = z_n * float(np.mean([majorant(n, s.origin_angle) for s in secs]))
    deficit = 0.0
    if any(s.apex_radius < 1.0 for s in secs):
        # the same sections with an ideal apex: each truncated section
        # integral is computed once, for the volume, and paired with its
        # ideal one here
        ideal = [replace(s, apex_radius=1.0) for s in secs]
        deficit = cone_volume(ideal).value - est.value
    return {
        "apex": [float(v) for v in as_coords(x)],
        "grid": int(len(secs)),
        "origin_angles": [float(s.origin_angle) for s in secs],
        "flagged": [bool(s.flagged) for s in secs],
        "volume": est.to_json_dict(),
        "majorant": bound,
        "within_bound": bool(est.value <= bound),
        "truncation_deficit": deficit,
    }
