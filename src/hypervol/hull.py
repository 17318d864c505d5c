"""Convex hulls inside the Klein ball.

Hyperbolic hulls coincide with Euclidean hulls here, so the combinatorial
work is ordinary computational geometry; hyperbolic weight enters only
when volumes are integrated later.  Facets are kept simplicial, which the
underlying Qhull run guarantees via joggle-free triangulated output; for
inputs Qhull rejects we fall back to a seeded perturbation.

Halfspaces use the convention normal . x <= offset with outward normals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import spatial

from .klein import BOUNDARY_TOL, IdealPoint, KleinPoint, _check_points, as_coords
from .rng import substream

__all__ = [
    "DegenerateHullError",
    "Simplex",
    "Polytope",
    "convex_hull",
    "simplicial_perturbation",
    "apex_triangulation",
    "affine_rank",
]


class DegenerateHullError(ValueError):
    """Input not full-dimensional; carries the observed affine rank."""

    def __init__(self, rank: int, dim: int):
        super().__init__(
            f"hull is degenerate: affine rank {rank} in dimension {dim}"
        )
        self.affine_rank = rank
        self.dim = dim


class Simplex:
    """k+1 affinely independent vertices, rows of an array."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if v.shape[0] < 2 or v.shape[0] > v.shape[1] + 1:
            raise ValueError("a simplex in R^n has between 2 and n+1 vertices")
        self.vertices = v
        self.vertices.setflags(write=False)

    @property
    def k(self) -> int:
        """Intrinsic dimension (vertex count minus one)."""
        return self.vertices.shape[0] - 1

    def euclidean_volume(self) -> float:
        """k-dimensional Euclidean measure via the Gram determinant."""
        e = self.vertices[1:] - self.vertices[0]
        gram = e @ e.T
        det = float(np.linalg.det(gram))
        return float(np.sqrt(max(det, 0.0))) / math.factorial(self.k)


class Polytope:
    """Vertex list, simplicial facets (index tuples), supporting halfspaces.

    Facet i lies on halfspace i.  Vertices keep the relative order in which
    they appeared in the input, facets are sorted lexicographically, so the
    representation is deterministic for a given input.
    """

    __slots__ = ("vertices", "facets", "normals", "offsets")

    def __init__(self, vertices, facets, normals, offsets):
        self.vertices = np.asarray(vertices, dtype=float)
        self.facets = [tuple(f) for f in np.asarray(facets, dtype=np.intp).tolist()]
        self.normals = np.asarray(normals, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        for a in (self.vertices, self.normals, self.offsets):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def contains(self, p):
        """Halfspace membership with 1e-9 slack; vectorized over rows."""
        if isinstance(p, (KleinPoint, IdealPoint)):
            p = as_coords(p)
        c = np.asarray(p, dtype=float)
        if c.ndim == 1:
            return bool(np.all(self.normals @ c <= self.offsets + 1e-9))
        slack = c @ self.normals.T - self.offsets
        return np.all(slack <= 1e-9, axis=1)

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def affine_rank(points: np.ndarray) -> int:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centered = pts - pts.mean(axis=0)
    if centered.shape[0] == 1:
        return 0
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * max(1.0, sv[0])))


def _dedupe(points: np.ndarray) -> np.ndarray:
    """The first occurrence of each distinct row, in input order.

    Rows compare by their bytes, so +0.0 and -0.0 rows stay distinct.
    """
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first = np.unique(keys.ravel(), return_index=True)
    return rows[np.sort(first)]


_PERTURBATION = 1e-9  # Euclidean length of each point's general-position move


def simplicial_perturbation(points) -> np.ndarray:
    """Move each point by at most _PERTURBATION, seed 0, to general position.

    Points that a full perturbation would push out of the model ball are
    instead pulled radially inward by the same amount.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    rng = substream(0, 0)
    shift = rng.standard_normal(pts.shape)
    shift *= _PERTURBATION / np.maximum(
        np.linalg.norm(shift, axis=1, keepdims=True), 1e-300
    )
    moved = pts + shift
    norms = np.linalg.norm(moved, axis=1)
    bad = norms >= 1.0 - BOUNDARY_TOL
    if np.any(bad):
        base = np.linalg.norm(pts[bad], axis=1, keepdims=True)
        scale = np.maximum(base - _PERTURBATION, 0.0) / np.maximum(base, 1e-300)
        moved[bad] = pts[bad] * scale
    return moved


def convex_hull(points) -> Polytope:
    """Euclidean (= hyperbolic) convex hull of Klein points, 2 <= n <= 6.

    Rows must be interior Klein points (`klein._check_points`).
    Degenerate input raises DegenerateHullError with the affine rank.
    Qhull failures on exactly degenerate-in-position inputs are retried
    once after a 1e-9 perturbation with seed 0.
    """
    if isinstance(points, (list, tuple)):
        pts = np.array([as_coords(p) for p in points], dtype=float)
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    # a Qhull hull of N points has up to about N^(n/2) facets
    if not 2 <= n <= 6:
        raise ValueError("hull dimensions supported: 2..6")
    _check_points(pts)
    pts = _dedupe(pts)
    if pts.shape[0] < n + 1:
        raise DegenerateHullError(affine_rank(pts), n)
    rank = affine_rank(pts)
    if rank < n:
        raise DegenerateHullError(rank, n)
    try:
        qh = spatial.ConvexHull(pts, qhull_options="Qt")
    except spatial.QhullError:
        qh = spatial.ConvexHull(simplicial_perturbation(pts), qhull_options="Qt")
        pts = qh.points
    order = np.sort(qh.vertices)
    remap = np.empty(len(pts), dtype=np.intp)
    remap[order] = np.arange(len(order))
    simplices = np.sort(remap[qh.simplices], axis=1)
    # facets in lexicographic order; lexsort's last key is the primary one
    rank = np.lexsort(simplices.T[::-1])
    eq = qh.equations[rank]
    return Polytope(pts[order], simplices[rank], np.ascontiguousarray(eq[:, :-1]),
                    -eq[:, -1])


def apex_triangulation(poly: Polytope, apex) -> np.ndarray:
    """(k, n+1, n) cones from an interior apex, apex first; a partition of poly."""
    a = as_coords(apex)
    if not bool(np.all(poly.normals @ a < poly.offsets - 1e-12)):
        raise ValueError("apex must be strictly interior to the polytope")
    facets = poly.vertices[np.asarray(poly.facets)]
    return np.concatenate(
        [np.broadcast_to(a, (len(facets), 1, a.size)), facets], axis=1)
