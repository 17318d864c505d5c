"""Monte Carlo sampling: pinned outputs and the one chunk reducer.

Every sampled estimate in the library draws chunk c from substream
(seed, c) and adds the per-chunk sums in chunk order.  The pinned values
below are exact reprs: any change to the draw order, the chunk sizes or
the order of the sums shows up as a changed last digit.  Sample counts
leave a partial last chunk so that the chunk boundary is exercised.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from hypervol import (
    Region,
    RunConfig,
    Simplex,
    UnionOfBalls,
    cone_report,
    convex_hull,
    extension_volume,
    generate_points,
    polytope_volume,
    region_volume_mc,
    rng,
    simplex_volume,
    verify_facet_decomposition,
)
from hypervol.experiments import (
    cmd_cone_table,
    cmd_mass_near_vertices,
    cmd_theorem1_sweep,
    cmd_theorem2_check,
    render_csv,
)

TRI = np.array([[0.3, 0.0], [0.0, 0.3], [-0.25, -0.2]])
TET = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
S4 = np.vstack([np.zeros(4), 0.8 * np.eye(4)])


def _offset_ball(bounding_radius: float) -> Region:
    return Region(
        membership=lambda p: np.linalg.norm(p - 0.2, axis=1) <= 0.5,
        bounding_radius=bounding_radius, dim=3,
    )


def _facet_case():
    gen = np.random.default_rng(15)
    pts = gen.normal(size=(14, 3))
    pts *= 0.85 / np.max(np.linalg.norm(pts, axis=1))
    poly = convex_hull(pts)
    verts = np.vstack([np.zeros(3), poly.vertices[list(poly.facets[0])]])
    return Simplex(verts), poly


@pytest.mark.parametrize("verts, value, std_error", [
    (TRI, 0.11686943790201343, 1.3424171440909457e-05),
    (0.9 * TET, 0.5812388795427792, 0.0010962439326786992),
    (S4, 0.028486185636478832, 3.1449779382812706e-05),
])
def test_simplex_mc_pinned(verts, value, std_error):
    est = simplex_volume(verts, "monte_carlo", budget=70_000, seed=11)
    assert (est.value, est.std_error) == (value, std_error)


def test_polytope_mc_pinned():
    pts = generate_points("uniform-ball", 3, 10, seed=4)
    est = polytope_volume(convex_hull(pts), "monte_carlo", budget=50_000, seed=2)
    assert (est.value, est.std_error, est.evaluations) == (
        1.1774057706360626, 0.0027472083645086764, 50_000)


@pytest.mark.parametrize("bounding_radius, value, std_error", [
    (0.9, 1.2146215143308614, 0.018298863253530535),
    (0.995, 1.0769979963310694, 0.09663160915261929),
])
@pytest.mark.parametrize("workers", [1, 3])
def test_region_mc_pinned(bounding_radius, value, std_error, workers):
    est = region_volume_mc(_offset_ball(bounding_radius), samples=70_000,
                           seed=17, workers=workers)
    assert (est.value, est.std_error) == (value, std_error)


@pytest.mark.parametrize("points, eps, samples, seed, value, std_error", [
    # criterion-8 instance 2: bounding radius 0.996
    (("chain", 2, 8, 802), 1.0, 200_000, 802,
     13.102870349456008, 0.05751507210218059),
    # criterion-8 instance 45: bounding radius 0.975
    (("uniform-ball", 3, 10, 845), 0.7, 600_000, 845,
     12.725236889655022, 0.045553426004890284),
    # from n = 4 on, the union itself is region Monte Carlo
    (("clustered", 4, 20, 104), 1.0, 200_000, 104,
     56.38954607445323, 5.256842226784093),
])
def test_extension_volume_pinned(points, eps, samples, seed, value, std_error):
    family, n, count, point_seed = points
    kw = {"chain_spacing": 0.6} if family == "chain" else {}
    pts = generate_points(family, n, count, seed=point_seed, **kw)
    # the unions are closed in 2D and 3D; their Monte Carlo cross-checks
    # stay pinned
    est = region_volume_mc(UnionOfBalls(pts, eps).region(), samples=samples,
                           seed=seed)
    assert (est.value, est.std_error) == (value, std_error)
    if n >= 4:
        union = extension_volume(pts, eps, samples=samples, seed=seed)
        assert (union.value, union.std_error) == (value, std_error)


def test_facet_decomposition_pinned():
    d_simplex, poly = _facet_case()
    out = verify_facet_decomposition(d_simplex, poly, budget=20_000, seed=7)
    assert out["vol_D"].value == 0.025837392693970146
    assert [p.value for p in out["vol_parts"]] == [
        0.00659753151650239, 0.006312593333163639, 0.0065931063350769155]
    assert out["margin_sigmas"] == 192.42706614888615


def test_facet_decomposition_volume_pulls():
    # vol_D states the standard error of its own sample mean
    d_simplex, poly = _facet_case()
    exact = simplex_volume(d_simplex, "exact_3d").value
    pulls = []
    for seed in range(30):
        vol_d = verify_facet_decomposition(d_simplex, poly, budget=20_000,
                                           seed=seed)["vol_D"]
        pulls.append((vol_d.value - exact) / vol_d.std_error)
    assert abs(np.mean(pulls)) <= 0.5
    assert 0.7 <= np.std(pulls, ddof=1) <= 1.3


def test_mass_near_vertices_pinned():
    cfg = RunConfig(command="mass-near-vertices", dims=(2, 3), r_values=(1.0,),
                    c_values=(0.2, 0.5), mc_samples=70_000, seed=2)
    header, rows, failures, _ = cmd_mass_near_vertices(cfg)
    assert failures == []
    assert render_csv(header, rows) == (
        "n,r,c,threshold,fraction,low_confidence,seed,budget\n"
        "2,1.0,0.2,0.2,0.14314090414468839,0,2095412958866561634,70000\n"
        "2,1.0,0.5,0.5,0.913743015022158,0,2095412958866561634,70000\n"
        "3,1.0,0.2,0.2,0.04936576580033108,0,2098760971773801841,70000\n"
        "3,1.0,0.5,0.5,0.7898191930372505,0,2098760971773801841,70000\n"
    )


def test_theorem2_check_csv_pinned():
    # planar closed forms, 3D Voronoi-cell unions and ring hulls, end to end
    cfg = RunConfig(command="theorem2-check", dims=(2, 3), instances=1,
                    mc_samples=20_000, boundary_samples=64)
    header, rows, _, _ = cmd_theorem2_check(cfg)
    digest = hashlib.sha256(render_csv(header, rows).encode()).hexdigest()
    assert digest == (
        "03d33354c43368b3262d4b1d5e5f7a304b143407ac6a3037eb5535f3ede39d90")


def test_theorem1_sweep_csv_pinned():
    # exact_2d, exact_3d and 4D quadrature, each on recentred hulls
    cfg = RunConfig(dims=(2, 3, 4), sizes=(8, 16, 32), replicates=2,
                    budget=50_000)
    header, rows, _, _ = cmd_theorem1_sweep(cfg)
    digest = hashlib.sha256(render_csv(header, rows).encode()).hexdigest()
    assert digest == (
        "cfbdbf4b4e16d6e0713416591888b08bf49225d9ac80baaf44ef8c66d574388a")


def test_cone_reports_pinned():
    # sections, cone volumes and truncation deficits at near-ideal vertices
    reports = []
    for n, count in ((2, 12), (3, 24)):
        poly = convex_hull(generate_points("uniform-ideal", n, count, 3))
        reports.extend(cone_report(poly, poly.vertices[v], 16) for v in range(3))
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == (
        "0e73113f5e043ce1b293c91f807ea6085acb94c1ea945b44498c8db3af37e9f2")


def test_cone_table_csv_pinned():
    cfg = RunConfig(phis=(0.01, 0.05), cone_dims=(2, 3, 4))
    header, rows, _, _ = cmd_cone_table(cfg)
    digest = hashlib.sha256(render_csv(header, rows).encode()).hexdigest()
    assert digest == (
        "a90eb727193490d90cdd6c97f178bd1cc787def8d09a7d10d1684469dade0424")


def test_mass_near_vertices_repeated_threshold():
    # a repeated threshold is one more row, not a second accumulation
    cfg = RunConfig(command="mass-near-vertices", dims=(2,), r_values=(1.0,),
                    c_values=(0.5, 0.5, 1.0), mc_samples=20_000, seed=2)
    header, rows, _, _ = cmd_mass_near_vertices(cfg)
    fracs = [row[header.index("fraction")] for row in rows]
    assert fracs[0] == fracs[1] < fracs[2] == 1.0


def test_generate_points_digest():
    # the families are fixed for comparability across versions
    digest = hashlib.sha256()
    for family in ("uniform-ideal", "uniform-ball", "clustered", "chain"):
        for n in range(2, 6):
            for seed in range(5):
                digest.update(generate_points(family, n, 13, seed).tobytes())
    assert digest.hexdigest() == (
        "7fabbd3bce39af2dffac6bf7a6d01ce7aeae19152213f2720591a5b2f954da7a")


# ---------------------------------------------------------------------------
# the reducer itself

def _stats(gen, m):
    x = gen.standard_normal(m)
    return np.array([x.sum(), (x * x).sum(), float(m)])


def test_chunk_sums_matches_hand_loop():
    samples, chunk, seed = 2_500, 1_000, 42
    want = np.zeros(3)
    for c, m in enumerate((1_000, 1_000, 500)):  # partial last chunk
        want = want + _stats(rng.substream(seed, c), m)
    got = rng._chunk_sums(seed, samples, chunk, _stats)
    assert got.tobytes() == want.tobytes()
    assert got[2] == samples


def test_chunk_sums_workers_identical():
    one = rng._chunk_sums(9, 10_001, 777, _stats, workers=1)
    three = rng._chunk_sums(9, 10_001, 777, _stats, workers=3)
    assert one.tobytes() == three.tobytes()


def _facet_check(budget):
    d_simplex, poly = _facet_case()
    return verify_facet_decomposition(d_simplex, poly, budget=budget)


def _mass_near_vertices(samples):
    return cmd_mass_near_vertices(RunConfig(
        command="mass-near-vertices", dims=(2,), r_values=(1.0,),
        c_values=(0.5,), mc_samples=samples))


@pytest.mark.parametrize("call, message", [
    (lambda k: rng._chunk_sums(0, k, 10, _stats), "samples must be >= 1"),
    (lambda k: region_volume_mc(_offset_ball(0.995), samples=k),
     "samples must be >= 1"),
    # the facet check reads its budget as simplex_volume does
    (_facet_check, "budget must be at least 1"),
    (_mass_near_vertices, "samples must be >= 1"),
], ids=["chunk_sums", "region_radial",
        "facet_decomposition", "mass_near_vertices"])
@pytest.mark.parametrize("samples", [0, -5])
def test_sample_counts_below_one_rejected(call, message, samples):
    with pytest.raises(ValueError, match=message):
        call(samples)


def test_facet_decomposition_budget_rule():
    # a flat cone is checked like any other, and None is the default
    flat = Simplex(np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]]))
    poly = convex_hull(np.array([[0.6, 0.0], [0.0, 0.6], [-0.6, -0.6]]))
    with pytest.raises(ValueError, match="budget must be at least 1"):
        verify_facet_decomposition(flat, poly, budget=0)
    d_simplex, poly = _facet_case()
    default = verify_facet_decomposition(d_simplex, poly, budget=None, seed=3)
    explicit = verify_facet_decomposition(d_simplex, poly, budget=200_000,
                                          seed=3)
    assert repr(default) == repr(explicit)
