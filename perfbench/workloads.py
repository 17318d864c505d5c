"""The benchmark's workloads and the four parts they are made of.

Each part makes its inputs from the benchmark seed in `prepare`, makes its
calls into hypervol's public functions in `run`, and checks a round's
outputs against the independent references in `refs` in `check`.  A
workload runs its parts in order, once per round.  A round always attempts
the same operations, so the failed share of a run does not depend on its
length.

Every call into hypervol goes through a module attribute looked up at call
time (``self.hv.volume.polytope_volume``), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np
from scipy import spatial

import refs

TRUNCATION = 1.0 - 1e-6  # near-ideal vertex radius, as in the sweeps
SE_SLACK = 5.0  # Monte Carlo checks allow this many standard errors


class Round:
    """Outputs of one round, its operation counts, and the timing of each call."""

    def __init__(self):
        self.calls = []  # (wall s, process CPU s) per timed call
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.errors = []
        self.notes = []

    @contextlib.contextmanager
    def timed(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.calls.append((time.perf_counter() - w, time.process_time() - c))

    @property
    def wall(self):
        return sum(w for w, _ in self.calls)

    def fingerprint(self):
        return json.dumps(self.outputs, sort_keys=True, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot fingerprint {type(obj)!r}")


def _estimate(est):
    return {"value": est.value, "std_error": est.std_error,
            "evaluations": est.evaluations, "method": est.method,
            "low_confidence": est.low_confidence,
            "achieved_rel_tol": est.achieved_rel_tol}


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _orthant_cloud(rng, n, per_orthant, radius_lo, radius_hi):
    """Points in every orthant of R^n, so their hull contains the origin.

    Any closed half-space through the origin misses the orthant opposite
    its normal, so no hemisphere holds all the points.
    """
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
    dirs = np.abs(rng.standard_normal((signs.shape[0] * per_orthant, n)))
    dirs *= np.repeat(signs, per_orthant, axis=0)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(radius_lo, radius_hi, size=dirs.shape[0])
    return radii[:, None] * dirs


class Part:
    """One group of operations; a workload runs one or more parts per round."""

    name = ""

    def __init__(self, hv, workdir):
        self.hv = hv
        self.workdir = workdir

    def cli(self, rnd: Round, argv):
        """Run hypervol's CLI in-process; returns its exit code and FAIL lines."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with rnd.timed():
                code = self.hv.cli.main(argv)
        fails = [ln[len("FAIL: "):] for ln in err.getvalue().splitlines()
                 if ln.startswith("FAIL: ")]
        return code, fails

    def write_config(self, name, cfg):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)
        return path

    def read_csv(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------

class HullGrowth(Part):
    """theorem1-sweep on uniform-ideal points, plus the regular ideal solids."""

    name = "hull-growth"
    SIZES = (8, 16, 32, 64, 128, 256)
    SIZES_4D = (8, 16)
    BUDGET = 400_000

    def prepare(self, seed):
        base = {"family": "uniform-ideal", "replicates": 1, "budget": self.BUDGET,
                "seed": seed, "workers": 1}
        self.sweeps = [
            (self.write_config("sweep23.json", dict(base, dims=[2, 3], sizes=list(self.SIZES))),
             os.path.join(self.workdir, "sweep23.csv"), 2 * len(self.SIZES)),
            (self.write_config("sweep4.json", dict(base, dims=[4], sizes=list(self.SIZES_4D))),
             os.path.join(self.workdir, "sweep4.csv"), len(self.SIZES_4D)),
        ]
        rng = np.random.default_rng([seed, 1])
        rot = _rotation(rng, 3)
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
        octa = np.vstack([np.eye(3), -np.eye(3)])
        self.solids = {
            "tetrahedron": (TRUNCATION * tet @ rot.T, refs.ideal_tetrahedron_volume()),
            "octahedron": (TRUNCATION * octa @ rot.T, refs.ideal_octahedron_volume()),
        }
        # the benchmark's own boost for the 4D invariance check
        u = rng.standard_normal(4)
        self.boost_target = 0.3 * u / np.linalg.norm(u)

    def run(self, rnd):
        res = rnd.outputs.setdefault(self.name, {})
        for cfg, out, expected in self.sweeps:
            rnd.attempted += expected
            try:
                code, fails = self.cli(
                    rnd, ["theorem1-sweep", "--config", cfg, "--out", out])
            except Exception as exc:  # noqa: BLE001 - one failed call fails its rows
                rnd.failed += expected
                rnd.errors.append(f"theorem1-sweep {cfg}: {exc!r}")
                continue
            rows = self.read_csv(out)
            # per-row assertions name the replicate; the others are sweep-level
            # growth gates over replicates, reported but not counted as failed rows
            row_fails = [f for f in fails if "rep=" in f]
            rnd.failed += len(row_fails) + max(expected - len(rows), 0)
            rnd.errors.extend(row_fails)
            rnd.notes.extend(f for f in fails if "rep=" not in f)
            res[os.path.basename(out)] = rows
        for name, (pts, _) in self.solids.items():
            rnd.attempted += 1
            try:
                with rnd.timed():
                    poly = self.hv.hull.convex_hull(pts)
                    est = self.hv.volume.polytope_volume(
                        poly, method="quadrature", budget=self.BUDGET)
            except Exception as exc:  # noqa: BLE001
                rnd.failed += 1
                rnd.errors.append(f"{name}: {exc!r}")
                continue
            res[name] = _estimate(est)

    def check(self, rnd):
        res = rnd.outputs.get(self.name, {})
        problems = []
        gen = self.hv.experiments.generate_points
        for key in ("sweep23.csv", "sweep4.csv"):
            for row in res.get(key, []):
                n, size, seed = int(row["n"]), int(row["N"]), int(row["seed"])
                vol, budget = float(row["volume"]), int(row["budget"])
                tag = f"n={n} N={size}"
                pts = gen("uniform-ideal", n, size, seed)
                if not np.allclose(np.linalg.norm(pts, axis=1), TRUNCATION, atol=1e-12):
                    problems.append(f"{tag}: points off the truncation sphere")
                if n == 2:
                    area, _ = refs.polygon_area(pts)
                    if abs(vol - area) > 1e-9 * area:
                        problems.append(f"{tag}: area {vol!r} vs angle sum {area!r}")
                    if vol > (size - 2) * math.pi:
                        problems.append(f"{tag}: area above (N-2)pi")
                elif n == 3:
                    hull = spatial.ConvexHull(pts)
                    bound = refs.hull3_volume_bound(len(hull.vertices))
                    if not hull.volume <= vol <= bound:
                        problems.append(f"{tag}: {vol!r} outside [{hull.volume!r}, {bound!r}]")
                else:
                    problems.extend(self._check_4d(tag, pts, vol, budget, seed))
        for name, (_, closed) in self.solids.items():
            est = res.get(name)
            if est is None:
                continue
            gap = abs(est["value"] - closed) / closed
            if est["achieved_rel_tol"] is None or gap > est["achieved_rel_tol"]:
                problems.append(f"{name}: {est['value']!r} is {gap:.2e} from {closed!r}, "
                                f"stated tolerance {est['achieved_rel_tol']!r}")
        return problems

    def _check_4d(self, tag, pts, vol, budget, seed):
        problems = []
        convex_hull, polytope_volume = self.hv.hull.convex_hull, self.hv.volume.polytope_volume
        direct = polytope_volume(convex_hull(pts), method="quadrature", budget=budget, seed=seed)
        moved = polytope_volume(convex_hull(refs.boost(pts, self.boost_target)),
                                method="quadrature", budget=budget, seed=seed)
        if direct.value != vol:
            problems.append(f"{tag}: CLI row {vol!r} differs from the library {direct.value!r}")
        tol = (direct.achieved_rel_tol + moved.achieved_rel_tol) * max(direct.value, moved.value)
        if abs(direct.value - moved.value) > tol:
            problems.append(f"{tag}: boosted volume {moved.value!r} vs {direct.value!r} "
                            f"beyond the stated tolerances")
        if spatial.ConvexHull(pts).volume > vol:
            problems.append(f"{tag}: below the Euclidean volume")
        return problems


# ---------------------------------------------------------------------------

class ExtensionRatio(Part):
    """theorem2-check: two-point sweep, clusters in 2D and 3D, chain, dense ball."""

    name = "extension-ratio"
    EPS = 1.0
    D_VALUES = [float(d) for d in range(1, 11)]
    SAMPLES = 200_000
    BOUNDARY = 256

    def prepare(self, seed):
        self.seed = seed
        self.cfg = self.write_config("theorem2.json", {
            "dims": [2, 3], "instances": 3, "epsilon": self.EPS,
            "mc_samples": self.SAMPLES, "boundary_samples": self.BOUNDARY,
            "d_values": self.D_VALUES, "seed": seed, "workers": 1})
        self.out = os.path.join(self.workdir, "theorem2.csv")
        # rows: two-point per d, Euclidean companion per d > 2 eps,
        # 3 clusters in each of 2 dims, one chain, one dense ball
        self.expected = (len(self.D_VALUES) + sum(d > 2 * self.EPS for d in self.D_VALUES)
                         + 6 + 2)

    def run(self, rnd):
        res = rnd.outputs.setdefault(self.name, {})
        rnd.attempted += self.expected
        try:
            code, fails = self.cli(
                rnd, ["theorem2-check", "--config", self.cfg, "--out", self.out])
        except Exception as exc:  # noqa: BLE001
            rnd.failed += self.expected
            rnd.errors.append(f"theorem2-check: {exc!r}")
            return
        rows = self.read_csv(self.out)
        row_fails = [f for f in fails if "inst=" in f or f.startswith(("chain", "dense"))]
        rnd.failed += len(row_fails) + max(self.expected - len(rows), 0)
        rnd.errors.extend(row_fails)
        res["rows"] = rows
        res["sweep_failures"] = [f for f in fails if f not in row_fails]
        res["exit_code"] = code

    def _points(self, row):
        gen = self.hv.experiments.generate_points
        fam, n, seed = row["family"], int(row["n"]), int(row["seed"])
        if fam == "two-point":
            p = math.tanh(float(row["d"]) / 2.0)
            return np.array([[-p, 0.0], [p, 0.0]])
        if fam == "cluster":
            return gen("clustered", n, 20, seed, clusters=4, cluster_radius=2.5, spread=0.5)
        if fam == "chain":
            return gen("chain", 2, 8, seed, chain_spacing=1.25)
        return gen("uniform-ball", 2, 40, seed, radius=1.5)

    def check(self, rnd):
        res = rnd.outputs.get(self.name, {})
        problems = [f"theorem2-check reported: {f}" for f in res.get("sweep_failures", [])]
        if res.get("exit_code", 0) != 0:
            problems.append(f"theorem2-check exited {res['exit_code']}")
        eps = self.EPS
        for row in res.get("rows", []):
            fam, n, d = row["family"], int(row["n"]), row["d"]
            hull, union = float(row["hull_volume"]), float(row["extension_volume"])
            tag = f"{fam} n={n} d={d} inst={row['instance']}"
            if abs(float(row["ratio"]) - hull / union) > 1e-12 * hull / union:
                problems.append(f"{tag}: ratio is not hull/union")
            if fam == "two-point-euclidean":
                dd = float(d)
                want = (math.pi * eps * eps + 2 * eps * dd) / (2 * math.pi * eps * eps)
                if abs(float(row["ratio"]) - want) > 1e-12 * want:
                    problems.append(f"{tag}: capsule ratio {row['ratio']} vs {want!r}")
                continue
            pts = self._points(row)
            se = 0.0
            if fam == "two-point":
                # the CSV has no standard error; the two-ball rows need one,
                # while the other families sit far inside their bounds
                est = self.hv.extension.extension_volume(
                    pts, eps, samples=int(row["mc_samples"]), seed=int(row["seed"]),
                    check_lower_bound=False)
                if est.value != union:
                    problems.append(f"{tag}: CSV union {union!r} differs from the library "
                                    f"{est.value!r}")
                se = SE_SLACK * est.std_error
            floor = _packing_floor(pts, eps)
            ceiling = len(pts) * refs.ball_volume(n, eps)
            if not floor - se <= union <= ceiling + se:
                problems.append(f"{tag}: union {union!r} outside [{floor!r}, {ceiling!r}] +- {se!r}")
            if fam == "two-point" and float(d) > 2 * eps:
                closed = refs.two_disc_hull_area(float(d), eps)
                if hull > closed * (1 + 1e-9):
                    problems.append(f"{tag}: inner hull {hull!r} above the closed form {closed!r}")
                if abs(union - 2 * refs.ball_volume(2, eps)) > se:
                    problems.append(f"{tag}: union {union!r} not within {SE_SLACK} SE of two balls")
        return problems


def _packing_floor(pts, eps):
    """N_pack * ball(eps/2) for an eps-separated subset picked in input order."""
    kept = []
    for i in range(pts.shape[0]):
        if not kept or refs.distance(pts[i:i + 1], pts[kept]).min() > eps:
            kept.append(i)
    return len(kept) * refs.ball_volume(pts.shape[1], eps / 2.0)


# ---------------------------------------------------------------------------

class PackingCertificate(Part):
    """greedy_packing, extension_volume with its floor, and sandwich_check."""

    name = "packing-certificate"
    FAMILIES = ("uniform-ball", "clustered", "chain")
    EPSILONS = (0.4, 0.7, 1.0, 1.3)
    PROBES = 8_000
    SAMPLES = {2: 200_000, 3: 400_000}

    def prepare(self, seed):
        gen = self.hv.experiments.generate_points
        self.instances = []
        for j in range(6):
            family = self.FAMILIES[j % 3]
            n = 2 if j < 3 else 3
            eps = self.EPSILONS[j % 4]
            s = seed * 16 + j
            if family == "chain":
                pts = gen("chain", n, 8, s, chain_spacing=0.6)
            else:
                pts = gen(family, n, 10 + 3 * (j % 3), s)
            self.instances.append((f"{family} n={n} eps={eps}", pts, eps, s))

    def run(self, rnd):
        res = rnd.outputs.setdefault(self.name, {})
        ext = self.hv.extension
        for tag, pts, eps, s in self.instances:
            n = pts.shape[1]
            rnd.attempted += 3
            try:
                with rnd.timed():
                    pack = ext.greedy_packing(pts, eps, seed=s)
            except Exception as exc:  # noqa: BLE001 - without a packing the rest cannot run
                rnd.failed += 3
                rnd.errors.append(f"{tag}: greedy_packing {exc!r}")
                continue
            out = {"centers": pack.centers}
            try:
                with rnd.timed():
                    est = ext.extension_volume(pts, eps, samples=self.SAMPLES[n], seed=s,
                                               check_lower_bound=True)
                out["union"] = _estimate(est)
            except Exception as exc:  # noqa: BLE001 - PackingBoundError counts as failed
                rnd.failed += 1
                rnd.errors.append(f"{tag}: extension_volume {exc!r}")
            try:
                with rnd.timed():
                    out["sandwich"] = ext.sandwich_check(pack, pts, probes=self.PROBES, seed=s)
            except Exception as exc:  # noqa: BLE001
                rnd.failed += 1
                rnd.errors.append(f"{tag}: sandwich_check {exc!r}")
            res[tag] = out

    def check(self, rnd):
        res = rnd.outputs.get(self.name, {})
        problems = []
        for tag, pts, eps, _ in self.instances:
            out = res.get(tag)
            if out is None:
                continue
            centers = np.asarray(out["centers"])
            n, k = pts.shape[1], centers.shape[0]
            dm = refs.distance(centers, centers) + np.diag(np.full(k, np.inf))
            if k > 1 and dm.min() <= eps:
                problems.append(f"{tag}: centers {dm.min()!r} apart, not > eps")
            if refs.distance(pts, centers).min(axis=1).max() > eps + 1e-12:
                problems.append(f"{tag}: an input point is farther than eps from every center")
            sw = out.get("sandwich")
            if sw is not None and (sw["inner_violations"] or sw["outer_violations"]
                                   or sw["probes"] != self.PROBES):
                problems.append(f"{tag}: sandwich {sw}")
            est = out.get("union")
            if est is not None:
                se = SE_SLACK * est["std_error"]
                floor = k * refs.ball_volume(n, eps / 2.0)
                ceiling = len(pts) * refs.ball_volume(n, eps)
                if not floor - se <= est["value"] <= ceiling + se:
                    problems.append(f"{tag}: union {est['value']!r} outside "
                                    f"[{floor!r}, {ceiling!r}] +- {se!r}")
        return problems


# ---------------------------------------------------------------------------

class VertexCones(Part):
    """cone-table, cone_report at near-ideal hull vertices, facet decomposition."""

    name = "vertex-cones"
    GRID = 32
    REPORTS = {2: 4, 3: 3}
    FACETS = {2: 3, 3: 3}
    VERIFY_BUDGET = 100_000

    def prepare(self, seed):
        self.cfg = self.write_config("cones.json", {"seed": seed, "workers": 1})
        self.out = os.path.join(self.workdir, "cones.csv")
        defaults = self.hv.experiments.RunConfig()
        self.table_rows = len(defaults.cone_dims) * len(defaults.phis)
        rng = np.random.default_rng([seed, 4])
        hull = self.hv.hull.convex_hull
        self.ideal = {n: hull(_orthant_cloud(rng, n, 3 if n == 2 else 2, TRUNCATION, TRUNCATION))
                      for n in (2, 3)}
        self.interior = {n: hull(_orthant_cloud(rng, n, 3, 0.5, 0.85)) for n in (2, 3)}

    def run(self, rnd):
        res = rnd.outputs.setdefault(self.name, {})
        rnd.attempted += self.table_rows
        try:
            code, fails = self.cli(
                rnd, ["cone-table", "--config", self.cfg, "--out", self.out])
            rows = self.read_csv(self.out)
            row_fails = [f for f in fails if "phi=" in f]
            rnd.failed += len(row_fails) + max(self.table_rows - len(rows), 0)
            rnd.errors.extend(row_fails)
            rnd.notes.extend(f for f in fails if "phi=" not in f)
            res["table"] = rows
        except Exception as exc:  # noqa: BLE001
            rnd.failed += self.table_rows
            rnd.errors.append(f"cone-table: {exc!r}")
        cones, hv_simplex = self.hv.cones, self.hv.hull.Simplex
        for n, poly in self.ideal.items():
            for v in range(self.REPORTS[n]):
                rnd.attempted += 1
                try:
                    with rnd.timed():
                        rep = cones.cone_report(poly, poly.vertices[v], self.GRID)
                    res[f"report n={n} v={v}"] = rep
                except Exception as exc:  # noqa: BLE001
                    rnd.failed += 1
                    rnd.errors.append(f"cone_report n={n} v={v}: {exc!r}")
        for n, poly in self.interior.items():
            for f in range(self.FACETS[n]):
                rnd.attempted += 1
                verts = np.vstack([np.zeros(n), poly.vertices[list(poly.facets[f])]])
                try:
                    with rnd.timed():
                        out = cones.verify_facet_decomposition(
                            hv_simplex(verts), poly, budget=self.VERIFY_BUDGET, seed=f)
                    res[f"verify n={n} f={f}"] = {
                        "margin_sigmas": out["margin_sigmas"], "passed": out["passed"],
                        "ratio": out["ratio"]}
                except Exception as exc:  # noqa: BLE001
                    rnd.failed += 1
                    rnd.errors.append(f"verify_facet_decomposition n={n} f={f}: {exc!r}")

    @staticmethod
    def _majorant(n, phi):
        return 2.0 / (n - 1) * math.cos(phi) ** (n - 1) + 2.0

    def check(self, rnd):
        res = rnd.outputs.get(self.name, {})
        problems = []
        for row in res.get("table", []):
            n, phi = int(row["n"]), float(row["phi"])
            tag = f"cone-table n={n} phi={phi}"
            closed = 2.0 / (n - 1) * math.cos(phi) ** (n - 1)
            maj = self._majorant(n, phi)
            if float(row["value"]) > maj or abs(float(row["majorant"]) - maj) > 1e-12 * maj:
                problems.append(f"{tag}: value {row['value']} / majorant {row['majorant']} vs {maj!r}")
            if abs(float(row["first_quad"]) - closed) > 1e-8 * closed:
                problems.append(f"{tag}: first summand {row['first_quad']} vs {closed!r}")
            if abs(float(row["first_closed"]) - closed) > 1e-13 * closed:
                problems.append(f"{tag}: closed first summand {row['first_closed']} vs {closed!r}")
        cones = self.hv.cones
        for n, poly in self.ideal.items():
            sphere = 2.0 if n == 2 else 2.0 * math.pi  # area of the unit (n-2)-sphere
            for v in range(self.REPORTS[n]):
                rep = res.get(f"report n={n} v={v}")
                if rep is None:
                    continue
                tag = f"cone_report n={n} v={v}"
                vol = rep["volume"]["value"]
                maj = sphere * float(np.mean([self._majorant(n, p) for p in rep["origin_angles"]]))
                if not vol <= maj or not rep["within_bound"]:
                    problems.append(f"{tag}: volume {vol!r} above majorant {maj!r}")
                # The polar chart is not compared with the uv chart here: on
                # sections narrower than about 1e-3 rad the uv chart is off by
                # up to 10x (see CHANGES.md), which would fail some seeds only.
                if n == 2:
                    secs = cones.cone_sections(poly, poly.vertices[v], self.GRID)
                    total = sum(_triangle_area(s) for s in secs)
                    if abs(total - vol) > 1e-7 * total:
                        problems.append(f"{tag}: volume {vol!r} vs angle-defect sum {total!r}")
        for key, out in res.items():
            if key.startswith("verify") and (out["margin_sigmas"] < -3.0 or not out["passed"]):
                problems.append(f"{key}: margin {out['margin_sigmas']!r} sigma")
        return problems


def _triangle_area(section):
    """Angle-defect area of conv(apex, far point, origin) of a 2D section."""
    apex = section.apex_radius * section.apex.direction
    far, origin = section.far_point, np.zeros(2)
    angles = (refs.klein_metric_angle(apex, far, origin)
              + refs.klein_metric_angle(far, apex, origin)
              + refs.klein_metric_angle(origin, apex, far))
    return math.pi - angles


class Workload:
    """The parts of one workload, run in order each round in one process."""

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def prepare(self, seed):
        self.seed = seed
        for part in self.parts:
            part.prepare(seed)

    def run_round(self):
        rnd = Round()
        for part in self.parts:
            part.run(rnd)
        return rnd

    def check(self, rnd):
        return [f"{part.name}: {p}" for part in self.parts for p in part.check(rnd)]


WORKLOADS = {
    "theorem-sweeps": (HullGrowth, ExtensionRatio),
    "certificates": (PackingCertificate, VertexCones),
}


def make(name, hv, workdir):
    return Workload(name, [cls(hv, workdir) for cls in WORKLOADS[name]])
