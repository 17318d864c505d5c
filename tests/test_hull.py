"""Convex hull construction in the Klein ball.

Chords are geodesics, so the hyperbolic hull has the same vertex and
facet structure as the Euclidean one; these tests pin the combinatorics,
the halfspace data, and the two independent membership routes against
each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, spatial

from hypervol import (
    DegenerateHullError,
    KleinPoint,
    Polytope,
    Simplex,
    affine_rank,
    apex_triangulation,
    convex_hull,
    simplicial_perturbation,
)
from hypervol import hull

SQUARE = np.array([[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4]])


def test_square_hull_combinatorics():
    poly = convex_hull(SQUARE)
    assert poly.dim == 2
    assert len(poly.facets) == 4
    assert poly.vertices.shape == (4, 2)
    # every input vertex survives and keeps its input order
    assert np.array_equal(poly.vertices, SQUARE)


def test_square_halfspaces_match_facets():
    poly = convex_hull(SQUARE)
    for facet, nrm, off in zip(poly.facets, poly.normals, poly.offsets):
        # facet i lies exactly on halfspace i
        slack = poly.vertices[list(facet)] @ nrm - off
        assert np.max(np.abs(slack)) < 1e-12
        assert np.linalg.norm(nrm) == pytest.approx(1.0, abs=1e-12)


def test_contains_interior_boundary_exterior():
    poly = convex_hull(SQUARE)
    assert poly.contains([0.0, 0.0])
    assert poly.contains([0.2, 0.2])          # on an edge
    assert not poly.contains([0.21, 0.21])
    assert not poly.contains([0.9, 0.0])
    assert poly.contains(KleinPoint([0.1, 0.1]))
    probes = np.array([[0.0, 0.0], [0.3, 0.3], [0.1, -0.05]])
    got = poly.contains(probes)
    assert got.tolist() == [True, False, True]
    # a list of rows is rows too, not one flattened point
    assert poly.contains(probes.tolist()).tolist() == [True, False, True]


def test_interior_point_is_interior():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        pts = rng.normal(size=(n + 4, n))
        pts *= 0.5 / np.max(np.linalg.norm(pts, axis=1))
        poly = convex_hull(pts)
        c = poly.interior_point()
        assert np.all(poly.normals @ c < poly.offsets - 1e-12)


def lp_membership(points: np.ndarray, probe) -> bool:
    """Independent hull-membership oracle: is probe a convex combination?

    Solves the feasibility LP  {lambda >= 0, sum lambda = 1,
    points^T lambda = probe}  directly, with no reference to the facet
    structure, so it cross-checks the halfspace route.
    """
    m = points.shape[0]
    a_eq = np.vstack([points.T, np.ones((1, m))])
    b_eq = np.concatenate([probe, [1.0]])
    res = optimize.linprog(
        c=np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * m,
        method="highs",
    )
    return bool(res.status == 0)


def test_lp_membership_agrees_with_halfspaces():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(10, 3))
    pts *= 0.6 / np.max(np.linalg.norm(pts, axis=1))
    poly = convex_hull(pts)
    for _ in range(40):
        probe = rng.uniform(-0.6, 0.6, size=3)
        assert lp_membership(pts, probe) == bool(poly.contains(probe))


def test_degenerate_rank_raises():
    # 4 collinear points in the plane: affine rank 1
    pts = np.array([[0.1 * k, 0.2 * k] for k in range(4)])
    assert affine_rank(pts) == 1
    with pytest.raises(DegenerateHullError) as exc:
        convex_hull(pts)
    assert exc.value.affine_rank == 1
    assert exc.value.dim == 2


def test_coplanar_in_3d_raises():
    pts = np.array([
        [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [-0.1, 0.0, 0.0],
        [0.0, -0.1, 0.0], [0.05, 0.05, 0.0],
    ])
    with pytest.raises(DegenerateHullError):
        convex_hull(pts)


def test_simplicial_perturbation_restores_rank():
    pts = np.array([[0.1 * k, 0.2 * k, 0.0] for k in range(5)])
    moved = simplicial_perturbation(pts)
    assert affine_rank(moved) == 3
    assert np.max(np.linalg.norm(moved - pts, axis=1)) <= 1e-9 + 1e-15
    assert np.array_equal(moved, simplicial_perturbation(pts))


def test_qhull_failure_retries_on_perturbed_points(monkeypatch):
    real = spatial.ConvexHull
    calls = []

    def fails_every_other_call(points, **kw):
        calls.append(points)
        if len(calls) % 2 == 1:
            raise spatial.QhullError("QH6154 refused for the test")
        return real(points, **kw)

    monkeypatch.setattr(hull.spatial, "ConvexHull", fails_every_other_call)
    pts = np.random.default_rng(3).normal(size=(12, 3))
    pts *= 0.8 / np.max(np.linalg.norm(pts, axis=1))
    first, second = convex_hull(pts), convex_hull(pts)
    assert len(calls) == 4 and not np.array_equal(calls[1], pts)
    assert isinstance(first, Polytope)
    assert all(len(f) == 3 for f in first.facets)
    for facet, nrm, off in zip(first.facets, first.normals, first.offsets):
        assert np.max(np.abs(first.vertices[list(facet)] @ nrm - off)) < 1e-12
    assert first.contains(first.interior_point())
    # every vertex is an input point moved by at most the 1e-9 perturbation
    gaps = np.linalg.norm(first.vertices[:, None] - pts[None], axis=2).min(axis=1)
    assert np.all(gaps <= 1e-9 + 1e-15)
    # the perturbation is seeded: a retry always moves the points the same way
    for a, b in ((first.vertices, second.vertices), (first.normals, second.normals),
                 (first.offsets, second.offsets)):
        assert a.tobytes() == b.tobytes()
    assert first.facets == second.facets


def test_dimension_guard():
    with pytest.raises(ValueError):
        convex_hull(np.array([[0.1], [0.2], [0.3]]))
    with pytest.raises(ValueError):
        convex_hull(np.zeros((9, 7)))


def test_hull_dims_2_through_6():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        pts = rng.normal(size=(2 * n + 4, n))
        pts *= 0.5 / np.max(np.linalg.norm(pts, axis=1))
        poly = convex_hull(pts)
        assert poly.dim == n
        # all facets are (n-1)-simplices
        assert all(len(f) == n for f in poly.facets)
        inside = poly.contains(poly.interior_point())
        assert bool(inside)


def test_simplex_dimensions_and_volume():
    tri = Simplex(np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]]))
    assert tri.k == 2
    assert tri.euclidean_volume() == pytest.approx(0.06, rel=1e-14)


def test_apex_triangulation_partitions_volume():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        pts = rng.normal(size=(n + 5, n))
        pts *= 0.5 / np.max(np.linalg.norm(pts, axis=1))
        poly = convex_hull(pts)
        parts = apex_triangulation(poly, poly.interior_point())
        assert len(parts) == len(poly.facets)
        total = sum(Simplex(s).euclidean_volume() for s in parts)
        assert total == pytest.approx(spatial.ConvexHull(pts).volume, rel=1e-9)


def test_apex_triangulation_rejects_exterior_apex():
    poly = convex_hull(SQUARE)
    with pytest.raises(ValueError):
        apex_triangulation(poly, np.array([0.5, 0.5]))


def test_vertices_are_frozen():
    poly = convex_hull(SQUARE)
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 9.0


def _oracle_hull(pts):
    """convex_hull's bookkeeping row by row and facet by facet, as the
    reference for its array code: first occurrences kept by row bytes,
    vertex indices remapped through a dict, facets sorted as tuples."""
    keep, seen = [], set()
    for i, row in enumerate(pts):
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            keep.append(i)
    pts = pts[keep]
    qh = spatial.ConvexHull(pts, qhull_options="Qt")
    order = np.sort(np.asarray(qh.vertices))
    remap = {int(old): new for new, old in enumerate(order)}
    pairs = [(tuple(sorted(remap[int(i)] for i in simplex)), eq)
             for simplex, eq in zip(qh.simplices, qh.equations)]
    pairs.sort(key=lambda fe: fe[0])
    return (pts[order], [f for f, _ in pairs],
            np.array([eq[:-1] for _, eq in pairs]),
            np.array([-eq[-1] for _, eq in pairs]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), extra=st.integers(2, 40), dups=st.integers(0, 6),
       seed=st.integers(0, 2**20))
def test_convex_hull_matches_row_by_row_reference(n, extra, dups, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n + extra, n))
    pts *= rng.uniform(0.1, 0.9) / np.max(np.linalg.norm(pts, axis=1))
    # repeated rows, and two rows that differ only in the sign of a zero
    signed_zero = np.zeros((2, n))
    signed_zero[:, 1] = 0.95
    signed_zero[1, 0] = -0.0
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=dups)],
                     signed_zero])
    pts = pts[rng.permutation(len(pts))]
    vertices, facets, normals, offsets = _oracle_hull(pts)
    poly = convex_hull(pts)
    assert poly.vertices.tobytes() == vertices.tobytes()
    assert poly.facets == facets
    assert all(type(i) is int for f in poly.facets for i in f)
    assert poly.normals.tobytes() == normals.tobytes()
    assert poly.normals.flags.c_contiguous
    assert poly.offsets.tobytes() == offsets.tobytes()
