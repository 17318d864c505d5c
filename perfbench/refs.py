"""Independent references for the benchmark's checks.

Nothing here imports hypervol: every value is computed from a closed form
or from scipy, so a check that compares hypervol against these functions
compares two routes that share no code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import spatial, special


def lobachevsky(x: float) -> float:
    """Lobachevsky function Л(x) = ½ Im Li₂(e^{2ix}).

    scipy's spence(z) is Li₂(1 - z), so Li₂(w) = spence(1 - w).
    """
    w = complex(math.cos(2.0 * x), math.sin(2.0 * x))
    return 0.5 * float(special.spence(1.0 - w).imag)


def ideal_tetrahedron_volume() -> float:
    """Regular ideal tetrahedron, 3Л(π/3) = 1.0149416064..."""
    return 3.0 * lobachevsky(math.pi / 3.0)


def ideal_octahedron_volume() -> float:
    """Regular ideal octahedron, 8Л(π/4) = 3.6638623767..."""
    return 8.0 * lobachevsky(math.pi / 4.0)


def hull3_volume_bound(vertex_count: int) -> float:
    """Upper bound (2V - 7)·v₃ on a 3D hull with V vertices.

    Coning a triangulated boundary (2V - 4 facets) from one vertex gives at
    most 2V - 7 tetrahedra, and no hyperbolic tetrahedron is larger than
    the regular ideal one (Haagerup–Munkholm).
    """
    return max(2 * vertex_count - 7, 1) * ideal_tetrahedron_volume()


def klein_metric_angle(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Angle at p between the chords toward q and r, from the metric tensor.

    The Klein metric at p is g = I/s + p pᵀ/s², s = 1 - |p|²; chords are
    geodesics, so the angle between chord directions is the geodesic angle.
    """
    s = 1.0 - float(p @ p)
    g = np.eye(p.size) / s + np.outer(p, p) / (s * s)
    u, v = q - p, r - p
    c = float(u @ g @ v) / math.sqrt(float(u @ g @ u) * float(v @ g @ v))
    return math.acos(min(1.0, max(-1.0, c)))


def polygon_area(points: np.ndarray) -> tuple[float, int]:
    """Area of the hyperbolic hull of planar Klein points, and its vertex count.

    Gauss–Bonnet for a geodesic k-gon: (k - 2)π - Σ interior angles.
    The hull and its vertex order come from scipy's Qhull.
    """
    hull = spatial.ConvexHull(points)
    ring = points[hull.vertices]  # counterclockwise
    k = ring.shape[0]
    angles = sum(
        klein_metric_angle(ring[i], ring[i - 1], ring[(i + 1) % k])
        for i in range(k)
    )
    return (k - 2) * math.pi - angles, k


def two_disc_hull_area(d: float, eps: float) -> float:
    """Area of the hull of two eps-discs whose centers are d apart."""
    return 4.0 * math.cosh(eps) * math.acos(-math.tanh(d / 2.0) * math.tanh(eps)) - 2.0 * math.pi


def ball_volume(n: int, r: float) -> float:
    """Hyperbolic ball volume: 2π(cosh r - 1) in 2D, π(sinh 2r - 2r) in 3D."""
    if n == 2:
        return 2.0 * math.pi * (math.cosh(r) - 1.0)
    if n == 3:
        return math.pi * (math.sinh(2.0 * r) - 2.0 * r)
    raise ValueError("closed forms for n = 2 and 3 only")


def lift(points: np.ndarray) -> np.ndarray:
    """Klein rows x to hyperboloid rows (1, x)/√(1 - |x|²)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s = 1.0 / np.sqrt(1.0 - np.sum(pts * pts, axis=1))
    return np.column_stack([s, pts * s[:, None]])


def distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise hyperbolic distances, acosh of minus the Minkowski product."""
    a, b = lift(p), lift(q)
    mink = np.outer(a[:, 0], b[:, 0]) - a[:, 1:] @ b[:, 1:].T
    return np.arccosh(np.maximum(mink, 1.0))


def boost(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Apply the Lorentz boost taking the origin to `target` (Klein coords)."""
    t = lift(target)[0]
    n = t.size - 1
    m = np.eye(n + 1)
    m[0, 0] = t[0]
    m[0, 1:] = m[1:, 0] = t[1:]
    xs = t[1:]
    m[1:, 1:] += (t[0] - 1.0) * np.outer(xs, xs) / float(xs @ xs)
    y = lift(points) @ m.T
    return y[:, 1:] / y[:, :1]
