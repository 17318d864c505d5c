"""Benchmark for hypervol: end-to-end timings with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload theorem-sweeps --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One process runs one workload (``all`` runs each in its own process, one
after another).  It imports hypervol from ``src/`` next to this directory,
makes the workload's inputs from ``--seed``, then repeats whole rounds of
the same operations until the next round would end past ``--seconds``
(two rounds at least).  It checks the outputs against the independent
references in ``refs.py`` and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median wall time of one round (the calls into hypervol)
  cpu_s        median process CPU time of one round, all threads
  setup_s      median over fresh processes of the time from process start
               to inputs ready (interpreter, ``import hypervol``, inputs)
  peak_rss_mb  peak resident memory of the benchmark process

``--trace 1`` alternates untraced rounds with traced ones and reports the
per-layer metrics from the traced rounds (medians over rounds), with the
tracing overhead against the untraced rounds.  Spans of the first traced
round are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_ROUNDS = 2
SETUP_PROBES = 3
PROBE_TIMEOUT = 60


def import_hypervol():
    """Import hypervol from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypervol", "__init__.py")):
        sys.exit(f"perfbench: no hypervol sources under {SRC}")
    sys.path.insert(0, SRC)
    import hypervol
    import hypervol.cli  # the package does not import its CLI module
    if not os.path.abspath(hypervol.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hypervol from {hypervol.__file__}, not {SRC}")
    return hypervol


def make_workload(name, hv):
    import workloads
    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    return workloads.make(name, hv, workdir)


def probe_setup(workload, seed):
    """Child process: import, prepare inputs, report ready, exit."""
    hv = import_hypervol()
    make_workload(workload, hv).prepare(seed)
    print("ready", flush=True)


def measure_setup(workload, seed):
    """Median time from spawning a fresh process to its inputs being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return statistics.median(times)


def run_rounds(workload, seconds, tracer=None):
    """Repeat rounds while the next one is expected to end by `seconds` plus half a round.

    Untraced runs make at least two rounds.  With a tracer, each step is an
    untraced round followed by a traced pass, which also re-runs the input
    preparation; at least one step is made.
    """
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(workload.run_round())
        if tracer is not None:
            tracer.install()
            try:
                workload.prepare(workload.seed)
                traced.append(workload.run_round())
            finally:
                tracer.uninstall()
            passes.append(tracer.take())
        step = time.perf_counter() - t0
        if len(plain) >= (1 if tracer else MIN_ROUNDS) and \
                time.perf_counter() - start + step / 2 >= seconds:
            return plain, traced, passes


def median_round(rounds, index):
    """Median over rounds of a round's total wall (index 0) or CPU (1) time."""
    return statistics.median(sum(call[index] for call in r.calls) for r in rounds)


def end_to_end(plain, setup_s, rss_mb):
    return {
        "wall_s": {"value": median_round(plain, 0), "unit": "s"},
        "cpu_s": {"value": median_round(plain, 1), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


# per-layer metric -> unit; `.s` is self time, except that the two volume
# routes (volume.quadrature, volume.exact_2d) count the whole route call
PER_LAYER = {
    "volume.quadrature.s": "s",
    "volume.quadrature.evals": "count",
    "volume.quadrature.evals_per_budget": "ratio",
    "volume.quadrature.achieved_rel_tol": "ratio",
    "volume.exact_2d.s": "s",
    "volume.region_volume_mc.s": "s",
    "volume.region_volume_mc.samples": "count",
    "volume.region_volume_mc.rel_se": "ratio",
    "volume.low_confidence": "count",
    "klein.dist_matrix.s": "s",
    "klein.dist_matrix.pairs": "count",
    "klein.translation_to.s": "s",
    "klein.translation_to.calls": "count",
    "klein.ball_boundary_points.s": "s",
    "hull.convex_hull.s": "s",
    "hull.convex_hull.facets": "count",
    "extension.hull_of_extension.s": "s",
    "extension.theorem2_ratio.s": "s",
    "extension.greedy_packing.s": "s",
    "extension.sandwich_check.s": "s",
    "extension.sandwich_check.probes": "count",
    "cones.cone_volume.s": "s",
    "cones.cone_volume.evals": "count",
    "cones.cone_report.s": "s",
    "cones.boundary_rays.s": "s",
    "cones.boundary_rays.rays": "count",
    "cones.verify_facet_decomposition.s": "s",
    "cones.verify_facet_decomposition.samples": "count",
    "cones.cone_integral_bound.s": "s",
    "experiments.generate_points.s": "s",
    "experiments.cmd_theorem1_sweep.s": "s",
    "experiments.cmd_theorem2_check.s": "s",
    "experiments.cmd_cone_table.s": "s",
    "experiments.write_csv.s": "s",
    "experiments.theorem1.retries": "count",
    "cli.main.s": "s",
}


def per_layer(passes, traced, plain, import_s):
    from tracing import median_over_passes
    metrics = {name: {"value": median_over_passes(passes, name), "unit": unit}
               for name, unit in PER_LAYER.items()}
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    traced_wall = median_round(traced, 0)
    plain_wall = median_round(plain, 0)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
    return metrics


def write_spans(tracer, name, seed):
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)
    return path


def run_one(args, parser):
    t_import = time.perf_counter()
    hv = import_hypervol()  # first, so that nothing else has loaded numpy or scipy
    import_s = time.perf_counter() - t_import
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    workload = make_workload(args.workload, hv)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    workload.prepare(args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(hv)
    plain, traced, passes = run_rounds(workload, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    problems = workload.check(rounds[0])
    first = rounds[0].fingerprint()
    if any(r.fingerprint() != first for r in rounds[1:]):
        problems.append("outputs differ between identical rounds")
    for note in sorted(set(n for r in rounds for n in r.notes)):
        print(f"note: {note}")
    for err in sorted(set(e for r in rounds for e in r.errors)):
        print(f"failed: {err}")
    for p in problems:
        print(f"check: {p}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"round walls {[round(r.wall, 3) for r in rounds]}")

    if tracer is not None:
        print(f"trace: {tracer.bindings} bindings wrapped; spans in "
              f"{write_spans(tracer, args.workload, args.seed)}")
        metrics = per_layer(passes, traced, plain, import_s)
    else:
        metrics = end_to_end(plain, setup_s, rss_mb)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, call_times=[r.calls for r in plain]), fh)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items()) if not args.trace else \
            f"{len(res['metrics'])} per-layer metrics"
        print(f"{name:20s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {shown}", flush=True)
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return probe_setup(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    run_one(args, parser)


if __name__ == "__main__":
    main()
