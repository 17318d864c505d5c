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
rotationally symmetric case).  Two independent charts evaluate the section
integral: a polar chart around the origin (the implementation) and an
iterated chart anchored at the ideal vertex (the Lemma-style bounding
integral, kept as an oracle).  In the anchored chart with coordinates
(u, v), point = (1-u) x + v theta, the section with origin angle phi is
{0 <= u <= 1, 0 <= v <= L(u)} where L(u) = u cot(phi) up to u = sin^2(phi)
and (1-u) tan(phi) beyond, and the inner v-integral has the exact
antiderivative v^(n-1) / ((n-1) D (D - v^2)^((n-1)/2)), D = 2u - u^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .klein import (
    BOUNDARY_TOL,
    IdealPoint,
    KleinPoint,
    as_coords,
    density_array,
    sinh_power_integral,
    unit_sphere_area,
)
from .hull import Polytope, Simplex, convex_hull
from .rng import substream
from .volume import VolumeEstimate

__all__ = [
    "PHI_CAP",
    "NoSectionError",
    "SingularIntegralError",
    "ConeSection",
    "BarycentricPoint",
    "boundary_ray",
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
    "densify_net",
    "cone_report",
]

# Sections with a larger origin angle are flagged; adding ideal points can
# always densify a configuration below the cap without shrinking the hull.
PHI_CAP = math.atan(0.1)


def _quad(f, a, b, **kw):
    # requested tolerances sit at the roundoff floor on purpose; the
    # convergence warning carries no information at that point
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

def boundary_rays(poly: Polytope, x, thetas: np.ndarray):
    """Vectorized boundary-edge data at the vertex in direction x.

    For each tangent row theta: rotate a ray at the vertex from the inward
    axis direction toward theta until the last angle psi* at which it still
    enters the polytope; that grazing ray lies on the section's boundary
    edge.  Returns (y, z, t_far, t_sphere): y rows are unit vectors (second
    sphere intersections), z rows the far endpoints inside the polytope.
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
    if not poly.contains(np.zeros(poly.dim)):
        raise ValueError("polytope must contain the origin")
    xh = _match_vertex(poly, x_dir)
    u = xh / np.linalg.norm(xh)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    normals, offsets = poly.normals, poly.offsets
    slack = offsets - normals @ xh
    active = slack <= 1e-9 * (1.0 + np.abs(offsets))
    if not np.any(active):
        raise ValueError("direction does not match a polytope vertex")
    a_act = normals[active] @ u                       # all positive
    b_act = normals[active] @ thetas.T                # (k, m)
    psi = np.arctan2(a_act[:, None], b_act)           # first exit angle per facet
    psi_star = psi.min(axis=0)                        # (m,)
    if np.any(psi_star <= 1e-12):
        raise NoSectionError("section degenerate: no interior rotation")
    delta = -np.outer(np.cos(psi_star), u) + thetas * np.sin(psi_star)[:, None]
    # clip the grazing ray against the non-active facets only; active planes
    # pass through the vertex and cannot produce a positive crossing
    rest = ~active
    denom = normals[rest] @ delta.T                   # (F', m)
    num = slack[rest]                                 # strictly positive
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cand = np.where(denom > 1e-12, num[:, None] / denom, np.inf)
    t_far = t_cand.min(axis=0)
    if np.any(~np.isfinite(t_far)) or np.any(t_far <= 1e-12):
        raise NoSectionError("section degenerate: grazing ray leaves immediately")
    z = xh[None, :] + t_far[:, None] * delta
    b = delta @ xh
    c0 = float(xh @ xh) - 1.0
    t_sphere = -b + np.sqrt(b * b - c0)
    y = xh[None, :] + t_sphere[:, None] * delta
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return y, z, t_far, t_sphere


def boundary_ray(poly: Polytope, x, theta) -> tuple[IdealPoint, KleinPoint]:
    """(y, z) for a single tangent direction; see boundary_rays."""
    th = np.asarray(as_coords(theta), dtype=float)
    y, z, t_far, t_sphere = boundary_rays(poly, x, th[None, :])
    if t_far[0] > t_sphere[0] + 1e-9:
        raise NoSectionError("ray clip beyond the sphere")  # cannot happen for valid hulls
    return IdealPoint(y[0]), KleinPoint(z[0])


def tangent_grid(x, size: int, n: int) -> np.ndarray:
    """Deterministic grid of unit tangents orthogonal to x.

    n=2: the two tangent directions (a 0-sphere).  n=3: uniform circle.
    n>=4: Sobol points pushed to the tangent (n-2)-sphere through the
    inverse Gaussian map, a standard low-discrepancy spherical set.
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
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


def cone_sections(
    poly: Polytope, x, angular_grid: int, tilde: bool = False
) -> list[ConeSection]:
    """Sections of the vertex cone at x, one per tangent grid direction.

    tilde=False uses the sphere point y (the cone C_x); tilde=True uses the
    in-hull endpoint z (the cone C~_x, always contained in the former).
    """
    x_dir = as_coords(x)
    x_dir = x_dir / np.linalg.norm(x_dir)
    n = poly.dim
    thetas = tangent_grid(x_dir, angular_grid, n)
    y, z, _, _ = boundary_rays(poly, x_dir, thetas)
    xh = _match_vertex(poly, x_dir)
    far = (xh[None, :] + (z if tilde else y)) / 2.0
    out = []
    for k in range(thetas.shape[0]):
        fa = float(far[k] @ x_dir)
        fb = float(far[k] @ thetas[k])
        phi = math.atan2(fb, fa)
        out.append(
            ConeSection(
                apex=IdealPoint(x_dir),
                direction=thetas[k],
                far_point=far[k],
                origin_angle=phi,
                apex_radius=float(np.linalg.norm(xh)),
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


def _section_integral_polar(section: ConeSection, n: int, limit: int = 400):
    """integral over the section of d(q, axis)^(n-2) v_n dA, polar chart.

    Coordinates (rho, alpha) around the origin, alpha measured from the
    apex ray; the radial part is exact (sinh-power integral) and alpha is
    integrated with the substitution alpha = t^2, which removes the
    endpoint singularity the ideal apex creates.
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
        radial = float(sinh_power_integral(n - 1, math.atanh(r)))
        return 2.0 * t * math.sin(alpha) ** (n - 2) * radial

    t_max = math.sqrt(phi_sec)
    pts = None
    if section.apex_radius < 1.0:
        # boundary layer where the chord radius falls off the truncated apex
        alpha_c = max((1.0 - section.apex_radius) / max(abs(math.tan(phi_chord)), 1e-6), 1e-14)
        pts = [math.sqrt(min(alpha_c * k, phi_sec * 0.9)) for k in (1.0, 5.0, 25.0)]
    val, _ = _quad(
        integrand, 0.0, t_max, points=pts, limit=limit, epsabs=1e-14, epsrel=1e-9
    )
    return val, evals


def _inner_closed(n: int, s, d):
    """integral_0^s v^(n-2) (d - v^2)^(-(n+1)/2) dv, exact antiderivative."""
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    gap = np.maximum(d - s * s, 1e-300)
    return s ** (n - 1) / ((n - 1) * d * gap ** ((n - 1) / 2.0))


def _section_integral_uv(section: ConeSection, n: int, limit: int = 300):
    """Same section integral in the chart anchored at the ideal apex.

    point = (1-u) x + v theta; the triangle becomes {u0 <= u <= 1,
    0 <= v <= edge(u)} with a piecewise-linear edge through the far point,
    and the inner v-integral is evaluated in closed form.
    """
    u0 = 1.0 - section.apex_radius
    a1, b1 = section.plane_coords()
    uf, vf = 1.0 - a1, b1
    evals = 0

    def chord(u):
        return vf * (1.0 - u) / max(1.0 - uf, 1e-300)

    if uf >= u0:
        # apex edge rises to the far point, then the chord descends
        def edge(u):
            if u <= uf:
                return vf * (u - u0) / max(uf - u0, 1e-300)
            return chord(u)

        def outer(u):
            nonlocal evals
            evals += 1
            d = 2.0 * u - u * u
            return float(_inner_closed(n, edge(u), d))

        pieces = ((outer, u0, uf), (outer, uf, 1.0))
    else:
        # far point radially beyond the truncated apex: on [uf, u0] the
        # section is the v-band between the apex edge and the chord
        def apex_edge(u):
            return vf * (u0 - u) / max(u0 - uf, 1e-300)

        def outer_band(u):
            nonlocal evals
            evals += 1
            d = 2.0 * u - u * u
            return float(_inner_closed(n, chord(u), d)
                         - _inner_closed(n, apex_edge(u), d))

        def outer_full(u):
            nonlocal evals
            evals += 1
            d = 2.0 * u - u * u
            return float(_inner_closed(n, chord(u), d))

        pieces = ((outer_band, uf, u0), (outer_full, u0, 1.0))

    total = 0.0
    for f, lo, hi in pieces:
        if hi - lo <= 1e-15:
            continue
        # near a truncated apex the integrand varies on the scale of u
        # itself; one quad call over [lo, hi] samples too coarsely near lo
        # and can miss most of a narrow section, so split geometrically
        cuts = [lo]
        while lo > 0.0 and cuts[-1] * 10.0 < hi:
            cuts.append(cuts[-1] * 10.0)
        cuts.append(hi)
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = _quad(f, a, b, limit=limit, epsabs=1e-14, epsrel=1e-9)
            total += val
    return total, evals


def section_integral(section: ConeSection, n: int, chart: str = "polar"):
    """Revolution-weighted section integral in the requested chart."""
    if chart == "polar":
        return _section_integral_polar(section, n)
    if chart == "uv":
        return _section_integral_uv(section, n)
    raise ValueError(f"unknown chart {chart!r}")


def cone_volume(sections: list[ConeSection], n: int, budget=None) -> VolumeEstimate:
    """Assembled cone volume Z_n * mean over grid sections.

    Z_n is the unit (n-2)-sphere area; for n = 2 it equals 2 and the mean
    over the two sections reduces to the plain sum of the two triangle
    areas, so no special casing is needed.
    """
    if not sections:
        raise ValueError("need at least one section")
    x0 = sections[0].apex.direction
    for s in sections[1:]:
        if np.linalg.norm(s.apex.direction - x0) > 1e-9:
            raise ValueError("sections must share an apex")
    limit = 400
    if budget:
        limit = max(50, min(400, int(budget) // (60 * len(sections))))
    vals = []
    evals = 0
    for s in sections:
        v, e = _section_integral_polar(s, n, limit=limit)
        vals.append(v)
        evals += e
    z_n = unit_sphere_area(n - 2)
    return VolumeEstimate(
        value=z_n * float(np.mean(vals)),
        std_error=0.0,
        evaluations=evals,
        method="quadrature",
    )


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
    {0 <= u <= 1, 0 <= v <= L(u)}; the inner integral is closed-form and
    the outer integral is adaptive with a breakpoint at u = sin^2(phi).
    Estimates above 1e9 raise SingularIntegralError.
    """
    if not 0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")
    if n < 2:
        raise ValueError("n must be >= 2")
    s2 = math.sin(phi) ** 2

    def outer(u):
        d = 2.0 * u - u * u
        return float(_inner_closed(n, float(_l_edge(u, phi)), d))

    val, _ = _quad(
        outer, 0.0, 1.0, points=[s2], limit=300, epsabs=1e-13, epsrel=1e-10
    )
    if abs(val) > 1e9:
        raise SingularIntegralError(f"bounding integral diverged: {val:.3e}")
    return val


def first_summand_closed(n: int, phi: float) -> float:
    """(2/(n-1)) cos^(n-1)(phi), the exact below-the-break majorant piece."""
    return 2.0 / (n - 1) * math.cos(phi) ** (n - 1)


def first_summand_quad(n: int, phi: float) -> float:
    """Quadrature of (cot phi)^(n-1) u^((n-3)/2) over [0, sin^2 phi]."""
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
    if not 0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")
    s, c = math.sin(phi), math.cos(phi)
    upper = math.asinh(1.0 / math.tan(phi))
    return s ** (n - 1) * c * float(sinh_power_integral(n - 1, upper))


def majorant(n: int, phi: float, c_prime: float = 1.0) -> float:
    """The corrected explicit bound: first summand + 1 + c_prime."""
    return first_summand_closed(n, phi) + 1.0 + c_prime


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


def _in_plane_tilde_membership(a, b, xa, za, zb, tol=1e-10):
    """Is the in-plane point (a, b) inside conv((xa,0), midpoint, (0,0))?

    The midpoint is ((xa+za)/2, zb/2), halfway along the edge toward the
    in-hull endpoint (za, zb).
    """
    ma, mb = (xa + za) / 2.0, zb / 2.0
    inside = b >= -tol
    # side of the line origin -> midpoint (apex side)
    inside &= ma * b - mb * a <= tol
    # side of the edge line apex -> midpoint (origin side)
    inside &= (ma - xa) * b - mb * (a - xa) >= -tol
    return inside


def verify_facet_decomposition(
    d_simplex: Simplex, poly: Polytope, budget: int = 200_000, seed: int = 0
) -> dict:
    """Monte Carlo check that Vol(D) <= 2^n sum_i Vol(D cap C~_(x_i)).

    D must be the cone conv(0, F) over a facet F of poly, origin first.
    All volumes share one Dirichlet sample of D, so the inequality is
    tested on correlated estimates and the margin is reported in standard
    errors of the per-sample statistic w (2^n sum_i 1_i - 1).
    """
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
    dirs = [facet[i] / np.linalg.norm(facet[i]) for i in range(n)]
    radii = [float(np.linalg.norm(facet[i])) for i in range(n)]

    sum_w = 0.0
    sum_w_parts = np.zeros(n)
    sum_t = 0.0
    sum_t2 = 0.0
    drawn = 0
    chunk_id = 0
    two_n = float(2 ** n)
    while drawn < budget:
        m = min(16384, budget - drawn)
        rng = substream(seed, chunk_id)
        e = rng.exponential(size=(m, n + 1))
        bary = e / e.sum(axis=1, keepdims=True)
        pts = bary @ verts
        w = density_array(pts)
        indic = np.zeros((m, n), dtype=bool)
        for i in range(n):
            u = dirs[i]
            a = pts @ u
            ortho = pts - np.outer(a, u)
            b = np.linalg.norm(ortho, axis=1)
            on_axis = b <= 1e-13
            th = np.where(on_axis[:, None], 0.0, ortho) / np.maximum(
                b[:, None], 1e-300
            )
            # on-axis samples are inside whenever 0 <= a <= |x_i|
            safe_th = np.where(
                on_axis[:, None], _tangent_basis(u)[0][None, :], th
            )
            _, z, _, _ = boundary_rays(poly, u, safe_th)
            za = z @ u
            zb = np.linalg.norm(z - np.outer(za, u), axis=1)
            inside = _in_plane_tilde_membership(a, b, radii[i], za, zb)
            inside = np.where(on_axis, (a >= -1e-12) & (a <= radii[i] + 1e-12), inside)
            indic[:, i] = inside
        t_stat = w * (two_n * indic.sum(axis=1) - 1.0)
        sum_w += float(w.sum())
        sum_w_parts += (w[:, None] * indic).sum(axis=0)
        sum_t += float(t_stat.sum())
        sum_t2 += float((t_stat * t_stat).sum())
        drawn += m
        chunk_id += 1

    mean_w = sum_w / budget
    vol_d = VolumeEstimate(vol_e * mean_w, 0.0, budget, "monte_carlo")
    parts = [
        VolumeEstimate(vol_e * sw / budget, 0.0, budget, "monte_carlo")
        for sw in sum_w_parts
    ]
    sum_parts = float(sum(p.value for p in parts))
    mean_t = sum_t / budget
    var_t = max(sum_t2 / budget - mean_t * mean_t, 0.0)
    sem_t = math.sqrt(var_t / budget)
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


# ---------------------------------------------------------------------------
# net densification

def densify_net(
    points: np.ndarray, cap: float = PHI_CAP, grid: int = 32,
    max_rounds: int = 10,
) -> np.ndarray:
    """Add near-ideal points until all section angles fall below cap.

    Each wide section (apex x, sphere point y) is split by inserting the
    normalized midpoint direction of x and y at the standard truncation
    radius; adding points only grows the hull, which is the sound
    direction for upper-bound experiments.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    n = pts.shape[1]
    for _ in range(max_rounds):
        poly = convex_hull(pts)
        new_dirs = []
        for v in poly.vertices:
            r = np.linalg.norm(v)
            if r < 0.5:
                continue
            u = v / r
            thetas = tangent_grid(u, grid, n)
            y, _, _, _ = boundary_rays(poly, u, thetas)
            far = (v[None, :] + y) / 2.0
            fa = far @ u
            fb = np.einsum("kn,kn->k", far, thetas)
            phis = np.arctan2(fb, fa)
            for k in np.nonzero(phis >= cap)[0]:
                mid = v + y[k]
                new_dirs.append(mid / np.linalg.norm(mid))
        if not new_dirs:
            return pts
        added = (1.0 - 1e-6) * np.array(new_dirs)
        pts = np.vstack([pts, added])
    return pts


def cone_report(poly: Polytope, x, grid: int, budget=None) -> dict:
    """JSON-ready report for one vertex cone: sections, volume, bound."""
    n = poly.dim
    secs = cone_sections(poly, x, grid, tilde=False)
    est = cone_volume(secs, n, budget=budget)
    z_n = unit_sphere_area(n - 2)
    bound = z_n * float(np.mean([majorant(n, s.origin_angle) for s in secs]))
    deficit = 0.0
    for s in secs:
        if s.apex_radius < 1.0:
            ideal = ConeSection(
                apex=s.apex, direction=s.direction, far_point=s.far_point,
                origin_angle=s.origin_angle, apex_radius=1.0,
            )
            ji, _ = _section_integral_polar(ideal, n)
            jt, _ = _section_integral_polar(s, n)
            deficit += (ji - jt) / len(secs)
    return {
        "apex": [float(v) for v in as_coords(x)],
        "grid": int(len(secs)),
        "origin_angles": [float(s.origin_angle) for s in secs],
        "flagged": [bool(s.flagged) for s in secs],
        "volume": est.to_json_dict(),
        "majorant": bound,
        "within_bound": bool(est.value <= bound),
        "truncation_deficit": z_n * deficit,
    }
