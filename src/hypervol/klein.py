"""Klein-model primitives: points, metric, density, isometries, balls.

Hyperbolic n-space is modeled on the open Euclidean unit ball.  Geodesics
are straight chords, so hyperbolic and Euclidean convexity coincide and
all of the hyperbolic structure is carried by the radial volume density

    v_n(r) = (1 - r^2)^(-(n+1)/2),   r = Euclidean norm,

and by the distance

    dist(p, q) = acosh( (1 - <p,q>) / sqrt((1-|p|^2)(1-|q|^2)) ).

Isometries are implemented by lifting to the hyperboloid model,
x -> (1, x)/sqrt(1-|x|^2), acting with a Lorentz matrix, and projecting
back.  Klein-model isometries are projective maps of the ball, so this
composition is numerically stable and keeps chords straight.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .rng import substream

__all__ = [
    "BOUNDARY_TOL",
    "KleinPoint",
    "IdealPoint",
    "Isometry",
    "as_coords",
    "density",
    "density_array",
    "dist",
    "dist_matrix",
    "cosh_dist_matrix",
    "translation_to",
    "boost_to",
    "random_isometry",
    "ball_volume",
    "ball_boundary_array",
    "unit_sphere_area",
    "sinh_power_integral",
]

# Points with Euclidean norm >= 1 - BOUNDARY_TOL are rejected: the density
# is not finitely evaluable there.  Ideal points use the IdealPoint type.
BOUNDARY_TOL = 1e-12

# Euclidean norm of the near-ideal points placed on unit directions.
IDEAL_TRUNCATION = 1.0 - 1e-6

# Points, isometries and balls are supported in dimensions 2.._MAX_DIM.
_MAX_DIM = 16


class KleinPoint:
    """A point of hyperbolic n-space in Klein coordinates (norm < 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float).reshape(-1)
        _check_points(c)
        self.coords = c
        self.coords.setflags(write=False)

    def __repr__(self):
        return f"KleinPoint({self.coords.tolist()})"


# numpy adds a row of fewer than 8 entries left to right, from +0.0; from 8
# on it sums pairwise.  Below 8 the helpers add whole columns in that
# order: the same bits, without a reduction call per short row.
_PAIRWISE_FROM = 8


def _row_sum(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1) of a float array, bitwise."""
    if not 0 < x.shape[-1] < _PAIRWISE_FROM:
        return np.sum(x, axis=-1)
    total = x[..., 0] + 0.0  # numpy's sum turns a -0.0 start into +0.0
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def _row_sumsq(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=-1) of a float array, bitwise.

    np.linalg.norm(x, axis=-1) is np.sqrt of this, bit for bit.
    """
    if not 0 < x.shape[-1] < _PAIRWISE_FROM:
        return np.sum(x * x, axis=-1)
    total = x[..., 0] * x[..., 0]  # a square is never -0.0
    for j in range(1, x.shape[-1]):
        total += x[..., j] * x[..., j]
    return total


def _uniform_directions(rng, count: int, n: int) -> np.ndarray:
    """`count` uniform unit vectors in R^n: normalized standard normals."""
    g = rng.standard_normal((count, n))
    return g / np.sqrt(_row_sumsq(g))[:, None]


def _check_dimension(n: int) -> None:
    """Reject a dimension outside the supported range 2.._MAX_DIM."""
    if not 2 <= n <= _MAX_DIM:
        raise ValueError(f"dimension must be in 2..{_MAX_DIM}, got {n}")


def _check_radius(r) -> None:
    """Reject a ball radius that is not finite and positive, NaN included."""
    if not (math.isfinite(r) and r > 0):
        raise ValueError("radius must be finite and positive")


def _check_points(c: np.ndarray, ideal: bool = False) -> None:
    """Reject rows (last axis) that are not finite interior Klein points.

    ideal=True admits the closed ball: rows within BOUNDARY_TOL of the
    sphere are ideal points, and only norms above 1 + BOUNDARY_TOL raise.
    The library's one test of incoming coordinates (README lists callers).
    """
    _check_dimension(c.shape[-1])
    if not np.isfinite(c).all():
        raise ValueError("coordinates must be finite")
    # a single point takes the plain norm, as KleinPoint always has
    norm = np.linalg.norm(c) if c.ndim == 1 else np.sqrt(_row_sumsq(c))
    if ideal:
        if (norm > 1.0 + BOUNDARY_TOL).any():
            raise ValueError(
                f"point outside the closed unit ball (norm > 1 + {BOUNDARY_TOL})"
            )
    elif (norm >= 1.0 - BOUNDARY_TOL).any():
        raise ValueError(
            f"point too close to the boundary sphere (norm >= 1 - {BOUNDARY_TOL})"
        )


class IdealPoint:
    """A point on the sphere at infinity, stored as a unit direction."""

    __slots__ = ("direction",)

    def __init__(self, direction):
        d = np.asarray(direction, dtype=float).reshape(-1)
        _check_dimension(d.size)
        nrm = float(np.linalg.norm(d))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ValueError("direction must be a nonzero finite vector")
        self.direction = d / nrm
        self.direction.setflags(write=False)

    def __repr__(self):
        return f"IdealPoint({self.direction.tolist()})"


def as_coords(p) -> np.ndarray:
    """Coordinate vector of a KleinPoint, IdealPoint, or array-like."""
    if isinstance(p, KleinPoint):
        return p.coords
    if isinstance(p, IdealPoint):
        return p.direction
    return np.asarray(p, dtype=float).reshape(-1)


def density(p) -> float:
    """Volume density v_n = (1 - |p|^2)^(-(n+1)/2) at a Klein point."""
    c = as_coords(p)
    _check_points(c)
    return float((1.0 - _row_sumsq(c)) ** (-(c.size + 1) / 2.0))


def density_array(pts: np.ndarray) -> np.ndarray:
    """Vectorized density over rows of an (m, n) coordinate array."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-1]
    n2 = np.minimum(_row_sumsq(pts), (1.0 - BOUNDARY_TOL) ** 2)
    return (1.0 - n2) ** (-(n + 1) / 2.0)


def dist(p, q) -> float:
    """Hyperbolic distance between two Klein points."""
    a = as_coords(p)
    b = as_coords(q)
    if a.size != b.size:
        raise ValueError("dimension mismatch")
    _check_points(a)
    _check_points(b)
    na, nb = _row_sumsq(a), _row_sumsq(b)
    arg = (1.0 - float(a @ b)) / math.sqrt((1.0 - na) * (1.0 - nb))
    return math.acosh(max(arg, 1.0))


def cosh_dist_matrix(P, Q) -> np.ndarray:
    """Pairwise cosh of the distance between rows of P (m, n) and Q (k, n).

    Entries may round to just below 1 for coincident points.  Since cosh
    is increasing on [0, inf), a distance threshold r is the threshold
    cosh(r) on this matrix, with no arccosh per entry.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    p2 = 1.0 - _row_sumsq(P)
    q2 = 1.0 - _row_sumsq(Q)
    num = 1.0 - P @ Q.T
    return num / np.sqrt(np.outer(p2, q2))


def dist_matrix(P, Q) -> np.ndarray:
    """Pairwise hyperbolic distances between rows of P (m, n) and Q (k, n)."""
    return np.arccosh(np.maximum(cosh_dist_matrix(P, Q), 1.0))


def _lift(pts: np.ndarray) -> np.ndarray:
    """Klein (m, n) -> hyperboloid (m, n+1), x -> (1, x)/sqrt(1-|x|^2)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    s = 1.0 / np.sqrt(1.0 - _row_sumsq(pts))
    out = np.empty((pts.shape[0], pts.shape[1] + 1))
    out[:, 0] = s
    out[:, 1:] = pts * s[:, None]
    return out


class Isometry:
    """Hyperbolic isometry stored as a Lorentz matrix on hyperboloid lifts.

    The matrix M preserves the Minkowski form eta = diag(-1, 1, ..., 1).
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
            raise ValueError("matrix must be square of size n+1 >= 3")
        if m[0, 0] <= 0:
            raise ValueError("matrix must preserve the forward light cone")
        self.matrix = m
        self.matrix.setflags(write=False)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        X = _lift(pts) @ self.matrix.T
        return X[:, 1:] / X[:, 0:1]


def translation_to(p) -> Isometry:
    """The Lorentz boost taking the origin to p; translation_to(-p) inverts it."""
    c = as_coords(p)
    _check_points(c)
    n = c.size
    x = _lift(c)[0]
    x0, xs = x[0], x[1:]
    m = np.eye(n + 1)
    m[0, 0] = x0
    m[0, 1:] = xs
    m[1:, 0] = xs
    s2 = float(xs @ xs)
    if s2 > 0.0:
        m[1:, 1:] += (x0 - 1.0) * np.outer(xs, xs) / s2
    return Isometry(m)


def boost_to(centers, offsets) -> np.ndarray:
    """Move local offsets by the translations taking the origin to centers.

    Row for row, this is translation_to(c).apply_array(x) in closed form
    (Einstein addition in the Klein model): with s = sqrt(1 - |c|^2),

        c (+) x = (s x + (1 + (c.x) / (1 + s)) c) / (1 + c.x),

    which is the identity at c = 0 and needs no hyperboloid lift.  The
    leading axes of centers (..., n) and offsets (..., n) broadcast, so one
    center can serve all rows, or each row can have its own.  Centers are
    validated as KleinPoint validates a point; offsets must lie in the open
    unit ball.
    """
    c = np.atleast_1d(np.asarray(centers, dtype=float))
    x = np.atleast_1d(np.asarray(offsets, dtype=float))
    _check_points(c)
    if c.shape[-1] != x.shape[-1]:
        raise ValueError("dimension mismatch")
    if not np.all(_row_sumsq(x) < 1.0):
        raise ValueError("offsets must lie in the open unit ball")
    s = np.sqrt(1.0 - _row_sumsq(c))[..., None]
    cx = _row_sum(c * x)[..., None]
    return (s * x + (1.0 + cx / (1.0 + s)) * c) / (1.0 + cx)


def random_isometry(n: int, seed: int) -> Isometry:
    """Seeded random isometry: rotation, then a translation to Klein norm < 0.7."""
    rng = substream(seed, 0)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rot = np.eye(n + 1)
    rot[1:, 1:] = q
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    target = u * 0.7 * rng.uniform() ** (1.0 / n)
    return Isometry(translation_to(target).matrix @ rot)


def unit_sphere_area(k: int) -> float:
    """Surface area of the unit k-sphere S^k in R^(k+1).

    k = 0 gives 2 (two points), matching the degenerate revolution cases.
    """
    if k < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def sinh_power_integral(m: int, w) -> np.ndarray | float:
    """integral_0^w sinh(t)^m dt, vectorized over w, for 0 <= m < _MAX_DIM.

    From w = 1 up, and at every w for m <= 1, uses the reduction
        I_m = sinh^(m-1)(w) cosh(w)/m - (m-1)/m I_(m-2).
    Below w = 1 it cancels for m >= 2, and the Taylor series of
    `_sinh_power_coefficients` takes over.  A Python float (np.float64
    included) runs the same recurrence and series on `math` and returns a
    float: scalar integrands call this once per point, where numpy's
    per-call cost would dominate.  Any other scalar returns a float
    through the numpy path, and arrays return arrays.
    """
    if not 0 <= m < _MAX_DIM:
        raise ValueError(f"unsupported sinh power {m}: must be in 0..{_MAX_DIM - 1}")
    if isinstance(w, float):
        w = float(w)
        if w < 0:
            raise ValueError("negative upper limit")
        if m >= 2 and w < _SERIES_BELOW:
            return _sinh_power_series(m, w)
        return _sinh_power_recursive(m, w, math.sinh, math.cosh)
    w_arr = np.asarray(w, dtype=float)
    scalar = w_arr.ndim == 0
    w_arr = np.atleast_1d(w_arr)
    if np.any(w_arr < 0):
        raise ValueError("negative upper limit")
    out = _sinh_power_recursive(m, w_arr, np.sinh, np.cosh)
    if m >= 2:
        small = w_arr < _SERIES_BELOW
        if np.any(small):
            out[small] = _sinh_power_series(m, w_arr[small])
    return float(out[0]) if scalar else out


def _sinh_power_recursive(m: int, w, sinh, cosh):
    # w is a float or an array; sinh and cosh are the matching functions
    if m == 0:
        return 1.0 * w  # a new array, never the caller's
    if m == 1:
        # cosh(w) - 1, written to avoid cancellation at small w
        return 2.0 * sinh(w / 2.0) ** 2
    s, c = sinh(w), cosh(w)
    prev2 = _sinh_power_recursive(m % 2, w, sinh, cosh)
    k = m % 2
    while k < m:
        k += 2
        prev2 = s ** (k - 1) * c / k - (k - 1) / k * prev2
    return prev2


# The series runs below w = 1, where the reduction's two terms cancel.
# Its terms are positive and fall with j; at w = 1 the 24th is below
# 2^-56 of the sum for every m <= 15.
_SERIES_BELOW = 1.0
_SERIES_TERMS = 24


@functools.cache
def _sinh_power_coefficients(m: int) -> tuple[float, ...]:
    """c_j with I_m(w) = w^(m+1) sum_j c_j w^(2j), highest j first.

    (sinh t / t)^m = sum_j a_j t^(2j) gives c_j = a_j / (m + 1 + 2j).
    Expanding sinh^m t = 2^-m sum_k (-1)^k C(m, k) e^((m - 2k) t) makes
    each c_j a ratio of integers, which Python divides correctly rounded.
    """
    coeffs = []
    for j in reversed(range(_SERIES_TERMS)):
        p = m + 2 * j
        num = sum((-1) ** k * math.comb(m, k) * (m - 2 * k) ** p
                  for k in range(m + 1))
        coeffs.append(num / (2 ** m * math.factorial(p) * (p + 1)))
    return tuple(coeffs)


def _sinh_power_series(m: int, w):
    # Horner's rule in w^2, the same operations for a float or an array
    w2 = w * w
    total = 0.0
    for c in _sinh_power_coefficients(m):
        total = total * w2 + c
    return w ** (m + 1) * total


def _radial_table(n: int, w_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Hyperbolic radii on 4097 even nodes of [0, w_max], and the
    cumulative integral_0^w sinh^(n-1) at them: the radial inverse-CDF
    table of the uniform measure on a ball in dimension n.
    """
    radii = np.linspace(0.0, w_max, 4097)
    return radii, sinh_power_integral(n - 1, radii)


def ball_volume(n: int, r: float) -> float:
    """Volume of a hyperbolic ball of radius r in dimension n (2 <= n <= _MAX_DIM).

    The closed form sigma_(n-1) * integral_0^r sinh(t)^(n-1) dt, with the
    radial integral from `sinh_power_integral`; for n = 2 this is
    2 pi (cosh r - 1).  The tests check it against adaptive quadrature.
    """
    _check_dimension(n)
    _check_radius(r)
    return unit_sphere_area(n - 1) * sinh_power_integral(n - 1, float(r))


def ball_boundary_array(centers, r: float, count: int, seed: int) -> np.ndarray:
    """`count` seeded points at hyperbolic distance r from each center.

    Centers (..., n) give an array (..., count, n).  The directions are
    drawn once, uniformly, and shared by every center; the sphere of
    radius r around the origin is moved onto each target sphere by
    `boost_to`, which preserves the distance.  For a fixed seed the first
    k points of a longer draw coincide with a shorter draw (prefix
    stability).  Points that round onto the boundary sphere are rejected
    as KleinPoint rejects them.
    """
    _check_radius(r)
    if count < 1:
        raise ValueError("count must be >= 1")
    c = np.asarray(centers, dtype=float)
    dirs = _uniform_directions(substream(seed, 0), count, c.shape[-1])
    moved = boost_to(c[..., None, :], math.tanh(r) * dirs)
    _check_points(moved)
    return moved
