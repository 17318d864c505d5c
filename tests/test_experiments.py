"""Experiment commands: configs, generators, CSV discipline, harnesses.

Each command is exercised at desk scale with its built-in assertions
enabled; the CSV layer is checked for byte determinism, including under
a different worker count.
"""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from hypervol import RunConfig, dist_matrix, generate_points, regular_simplex
from hypervol.experiments import (
    V3_IDEAL,
    _derive_seed,
    cmd_cone_table,
    cmd_extremal_search,
    cmd_mass_near_vertices,
    cmd_theorem1_sweep,
    cmd_theorem2_check,
    regular_simplex_directions,
    render_csv,
    write_csv,
)
from hypervol import cli


def test_runconfig_roundtrip_and_validation():
    cfg = RunConfig(command="cone-table", dims=(2, 3), seed=9)
    # a config written as JSON, the form the CLI reads, comes back equal
    again = RunConfig.from_json(json.dumps(asdict(cfg)))
    assert again == cfg
    with pytest.raises(ValueError):
        RunConfig.from_dict({"seeds": 3})  # typo'd key must not pass silently
    lifted = RunConfig.from_dict({"sizes": [4, 8]})
    assert lifted.sizes == (4, 8)  # lists from JSON become tuples


@pytest.mark.parametrize("key, value", [
    ("ball_radius", 1.5), ("clusters", 4), ("cluster_radius", 2.5),
    ("spread", 0.5), ("chain_spacing", 1.25), ("t_start", 0.3),
    ("t_end", 0.01), ("move_scale", 0.3),
])
def test_runconfig_rejects_fixed_settings(key, value):
    # family parameters are generate_points arguments and the search's move
    # scale is fixed, so a config that sets them (or the retired annealing
    # temperatures) fails loudly
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({key: value})


def test_derive_seed_distinct_streams():
    seeds = {_derive_seed(0, n, size, rep)
             for n in (2, 3) for size in (8, 16) for rep in range(4)}
    assert len(seeds) == 16
    assert _derive_seed(1, 2, 3) == _derive_seed(1, 2, 3)


def test_csv_formatting_is_shortest_roundtrip(tmp_path):
    header = ["a", "b", "c"]
    rows = [[1, 0.1, True], [2, float(np.float64(1) / 3), False]]
    text = render_csv(header, rows)
    assert text.splitlines()[1] == "1,0.1,1"
    assert text.splitlines()[2] == "2,0.3333333333333333,0"
    p = tmp_path / "t.csv"
    write_csv(str(p), header, rows)
    assert p.read_text(encoding="utf-8") == text
    assert render_csv(header, rows) == text  # deterministic


def test_generate_points_families():
    for family in ("uniform-ideal", "uniform-ball", "clustered", "chain"):
        pts = generate_points(family, 3, 24, seed=5)
        assert pts.shape == (24, 3)
        assert np.max(np.linalg.norm(pts, axis=1)) < 1.0
        assert np.array_equal(pts, generate_points(family, 3, 24, seed=5))
    ideal = generate_points("uniform-ideal", 2, 10, seed=1)
    assert np.allclose(np.linalg.norm(ideal, axis=1), 1.0 - 1e-6)
    with pytest.raises(ValueError):
        generate_points("grid", 2, 10, seed=0)


def test_chain_points_equally_spaced():
    pts = generate_points("chain", 2, 5, seed=0, chain_spacing=0.8)
    d = dist_matrix(pts[:-1], pts[1:]).diagonal()
    assert np.allclose(d, 0.8, atol=1e-12)


def test_clustered_points_hug_their_centers():
    pts = generate_points("clustered", 2, 20, seed=3, clusters=4,
                          cluster_radius=2.0, spread=0.4)
    # every point within spread of one of at most 4 mutual cluster cores
    dm = dist_matrix(pts, pts)
    linked = dm <= 2 * 0.4 + 1e-9
    # points of the same cluster are linked; different clusters are far
    groups = []
    todo = set(range(20))
    while todo:
        i = todo.pop()
        grp = {i} | {j for j in todo if linked[i, j]}
        todo -= grp
        groups.append(grp)
    assert len(groups) == 4
    assert sorted(len(g) for g in groups) == [5, 5, 5, 5]


def test_regular_simplex_exact_side_lengths():
    for n in (2, 3, 4):
        for side in (0.7, 1.5):
            verts = regular_simplex(n, side)
            dm = dist_matrix(verts, verts)
            off = dm[~np.eye(n + 1, dtype=bool)]
            assert np.allclose(off, side, atol=1e-12)
    dirs = regular_simplex_directions(3)
    gram = dirs @ dirs.T
    assert np.allclose(gram[~np.eye(4, dtype=bool)], -1 / 3, atol=1e-12)


def test_theorem1_sweep_small_run():
    # the sublinearity checks live on the top decade of N, so the size
    # grid must reach the asymptotic regime even in a quick run
    cfg = RunConfig(command="theorem1-sweep", dims=(2,), replicates=2,
                    budget=50_000, seed=0)
    header, rows, failures, summary = cmd_theorem1_sweep(cfg)
    assert failures == []
    assert len(rows) == 12
    assert {"seed", "budget"} <= set(header)
    vol_i = header.index("volume")
    n_i = header.index("N")
    # fan bound on every row
    for row in rows:
        assert row[vol_i] <= (row[n_i] - 2) * math.pi + 1e-9
    assert summary["slopes"]["n=2"] < 1.05


def _inflate_volumes(monkeypatch, bound):
    """Make every hull volume read 0.1 % above bound(V) of its V vertices."""
    import hypervol.experiments as experiments

    real = experiments.polytope_volume

    def inflated(poly, *args, **kw):
        est = real(poly, *args, **kw)
        return replace(est, value=bound(poly.vertices.shape[0]) * 1.001)

    monkeypatch.setattr(experiments, "polytope_volume", inflated)


def test_theorem1_sweep_checks_the_3d_fan_bound(monkeypatch):
    # every 3D hull with V vertices must stay under (2V - 7) v3; a volume
    # route that reads too high is reported, row by row
    cfg = RunConfig(command="theorem1-sweep", dims=(3,), sizes=(8, 16),
                    replicates=1, seed=0)
    _, rows, failures, _ = cmd_theorem1_sweep(cfg)
    assert len(rows) == 2 and not any("fan bound" in f for f in failures)
    _inflate_volumes(monkeypatch, lambda v: (2 * v - 7) * V3_IDEAL)
    _, rows, failures, _ = cmd_theorem1_sweep(cfg)
    fan = [f for f in failures if "fan bound" in f]
    assert len(fan) == 2
    assert all(f.startswith("3D fan bound violated: N=") and "(2V-7)v3=" in f
               for f in fan)


def test_theorem1_sweep_checks_the_2d_fan_bound_on_every_family(monkeypatch):
    # any hyperbolic V-gon has area below (V - 2) pi, whatever the family
    cfg = RunConfig(command="theorem1-sweep", dims=(2,), sizes=(8, 16),
                    replicates=1, family="uniform-ball", seed=0)
    _inflate_volumes(monkeypatch, lambda v: (v - 2) * math.pi)
    _, rows, failures, _ = cmd_theorem1_sweep(cfg)
    fan = [f for f in failures if "fan bound" in f]
    assert len(rows) == 2 and len(fan) == 2
    assert all(f.startswith("2D fan bound violated: N=") and "(V-2)pi=" in f
               for f in fan)


def test_theorem2_check_small_run():
    cfg = RunConfig(command="theorem2-check", dims=(2,), instances=2,
                    d_values=(3.0, 6.0), mc_samples=40_000,
                    boundary_samples=128, epsilon=1.0, seed=1)
    header, rows, failures, summary = cmd_theorem2_check(cfg)
    assert failures == []
    fam_i = header.index("family")
    ratio_i = header.index("ratio")
    fams = {row[fam_i] for row in rows}
    assert fams == {"two-point", "two-point-euclidean", "cluster", "chain",
                    "dense-ball"}
    # planar rows are closed forms on both sides
    assert {(row[header.index("hull_method")],
             row[header.index("union_method")]) for row in rows} == {
        ("kept_arcs_hull", "kept_arcs_union"), ("closed_form", "closed_form")}
    for row in rows:
        if row[fam_i] == "cluster":
            assert row[ratio_i] >= 1.0
        if row[fam_i] == "dense-ball":
            assert row[ratio_i] <= 1.1
    assert summary["cluster_median_n2"] >= 1.0


def test_theorem2_check_passes_its_budget(monkeypatch):
    import hypervol.experiments as experiments
    from hypervol import VolumeEstimate

    seen = []

    def fake_ratio(points, epsilon, **kw):
        seen.append(kw["budget"])
        est = VolumeEstimate(2.0, 0.0, 1, "quadrature")
        return {"hull": est, "union": est, "ratio": 1.0,
                "low_confidence": False}

    monkeypatch.setattr(experiments, "theorem2_ratio", fake_ratio)
    cfg = RunConfig(command="theorem2-check", dims=(2,), instances=1,
                    d_values=(3.0,), budget=123_456)
    header, rows, _, _ = cmd_theorem2_check(cfg)
    assert seen and set(seen) == {123_456}
    assert {row[header.index("budget")] for row in rows} == {123_456}


def test_cone_table_small_run():
    cfg = RunConfig(command="cone-table", cone_dims=(2, 3, 4),
                    phis=(0.01, 0.05), seed=0)
    header, rows, failures, summary = cmd_cone_table(cfg)
    assert failures == []
    assert len(rows) == 6
    maxima = summary["per_n_max"]
    assert maxima["4"] <= maxima["3"]  # empirical constants settle


def test_cone_table_rejects_phi_at_cap():
    cfg = RunConfig(command="cone-table", cone_dims=(2,), phis=(0.01, 0.2))
    _, rows, failures, _ = cmd_cone_table(cfg)
    assert len(rows) == 1
    assert len(failures) == 1 and "cap" in failures[0]


def test_extremal_search_small_run():
    for n, size in ((2, 6), (3, 8)):
        cfg = RunConfig(command="extremal-search", n=n, sizes=(size,),
                        steps=15, budget=40_000, seed=4)
        header, rows, failures, summary = cmd_extremal_search(cfg)
        assert failures == []
        assert len(rows) == 16  # step 0 plus config.steps
        best_i = header.index("best")
        bests = [row[best_i] for row in rows]
        assert bests == sorted(bests)
        assert summary["best"] >= summary["baseline_sum"] * (1 - 1e-9)
        assert len(summary["best_points"]) == size


def test_extremal_search_climbs_past_the_annealing():
    # the elitist annealing this search replaced ended at 9.12, 9.10 and
    # 9.56 on these seeds; the regular ideal icosahedron is 13.529097
    for seed in range(3):
        cfg = RunConfig(command="extremal-search", n=3, sizes=(12,),
                        steps=120, budget=40_000, seed=seed)
        _, _, failures, summary = cmd_extremal_search(cfg)
        assert failures == []
        assert summary["best"] > 10.5
        assert summary["best"] <= summary["fan_bound"]


def test_extremal_search_runs_past_2n_caps():
    # N = 32 in 3D asks for 8 groups of n + 1 points; at most 2n caps are
    # disjoint, so the other points join the seeded extras
    cfg = RunConfig(command="extremal-search", n=3, sizes=(32,), steps=3,
                    budget=40_000, seed=0)
    _, rows, failures, summary = cmd_extremal_search(cfg)
    assert failures == [] and len(rows) == 4
    assert len(summary["best_points"]) == 32
    assert summary["best"] >= summary["baseline_sum"] > 0


def test_extremal_search_checks_the_fan_bound(monkeypatch):
    # a volume route that reads above (2V - 7) v3 fails on the best hull
    _inflate_volumes(monkeypatch, lambda v: (2 * v - 7) * V3_IDEAL)
    cfg = RunConfig(command="extremal-search", n=3, sizes=(8,), steps=3,
                    budget=40_000, seed=0)
    _, _, failures, summary = cmd_extremal_search(cfg)
    fan = [f for f in failures if "fan bound" in f]
    assert len(fan) == 1
    assert fan[0].startswith("3D fan bound violated: N=8 V=")
    assert summary["best"] > summary["fan_bound"]


def test_mass_near_vertices_monotone():
    cfg = RunConfig(command="mass-near-vertices", dims=(2,), r_values=(1.0,),
                    c_values=(0.2, 0.5, 1.0), mc_samples=30_000, seed=2)
    header, rows, failures, _ = cmd_mass_near_vertices(cfg)
    assert failures == []
    frac_i = header.index("fraction")
    fracs = [row[frac_i] for row in rows]
    assert fracs == sorted(fracs)
    # threshold c = 1 reaches past the circumradius, covering the simplex
    assert fracs[-1] == 1.0


def test_cli_cone_table_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"cone_dims": [2, 3], "phis": [0.01, 0.05]}), encoding="utf-8")
    out_path = tmp_path / "table.csv"
    code = cli.main(["cone-table", "--config", str(cfg_path),
                     "--out", str(out_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    assert payload["rows"] == 4
    first = out_path.read_bytes()
    cli.main(["cone-table", "--config", str(cfg_path), "--out",
              str(out_path)])
    assert out_path.read_bytes() == first  # byte-stable rerun


def test_cli_exit_code_on_failure(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"cone_dims": [2], "phis": [0.2]}),
                        encoding="utf-8")
    code = cli.main(["cone-table", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL:" in captured.err


def test_cli_workers_do_not_change_output(tmp_path):
    cfg_path = tmp_path / "t2.json"
    cfg_path.write_text(json.dumps({
        "dims": [], "instances": 0, "d_values": [3.0],
        "mc_samples": 30_000, "boundary_samples": 96,
    }), encoding="utf-8")
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert cli.main(["theorem2-check", "--config", str(cfg_path),
                     "--out", str(out1), "--workers", "1"]) == 0
    assert cli.main(["theorem2-check", "--config", str(cfg_path),
                     "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_changes_rows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dims": [2], "replicates": 1, "sizes": [8, 16, 32],
        "budget": 30_000,
    }), encoding="utf-8")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["theorem1-sweep", "--config", str(cfg_path), "--out", str(a),
              "--seed", "1"])
    cli.main(["theorem1-sweep", "--config", str(cfg_path), "--out", str(b),
              "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_cli_hull_volume_json(tmp_path, capsys):
    from hypervol import pointcloud

    for n, method, flagged in ((2, "exact_2d", False), (3, "exact_3d", False),
                               (4, "quadrature", True)):
        pts = generate_points("uniform-ball", n, 12, seed=6)
        pts_path = tmp_path / f"cloud{n}.csv"
        pointcloud.save_points(str(pts_path), pts, model="klein")
        cfg_path = tmp_path / f"hv{n}.json"
        cfg_path.write_text(json.dumps({"points_path": str(pts_path),
                                        "budget": 5_000}),
                            encoding="utf-8")
        out_path = tmp_path / f"hv{n}.out.json"
        code = cli.main(["hull-volume", "--config", str(cfg_path),
                         "--out", str(out_path)])
        assert code == 0
        saved = json.loads(out_path.read_text(encoding="utf-8"))
        assert saved["n"] == n
        assert saved["num_points"] == 12
        assert saved["volume"] > 0
        assert saved["method"] == method
        # the pedigree: exact_2d states its rounding bound (5.4e-14 here),
        # and a 4D hull held to 5,000 evaluations misses 1e-4 and says so
        assert saved["low_confidence"] is flagged
        tol = saved["achieved_rel_tol"]
        if n == 2:
            assert tol <= 1e-4
        else:
            assert (tol > 1e-4) is flagged


@pytest.mark.parametrize("n", [2, 3])
def test_cli_hull_volume_rejects_row_outside_ball(tmp_path, n):
    rows = generate_points("uniform-ball", n, 12, seed=6).tolist()
    rows.append([1.5] + [0.0] * (n - 1))
    pts_path = tmp_path / "cloud.csv"
    pts_path.write_text(f"dim={n},model=klein\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))
    cfg_path = tmp_path / "hv.json"
    cfg_path.write_text(json.dumps({"points_path": str(pts_path)}),
                        encoding="utf-8")
    out_path = tmp_path / "hv.out.json"
    with pytest.raises(ValueError, match="boundary sphere"):
        cli.main(["hull-volume", "--config", str(cfg_path),
                  "--out", str(out_path)])
    assert not out_path.exists()
