"""Span tracing of hypervol's public functions, from outside the package.

`Tracer.install` replaces every public function of the traced modules with
a timing wrapper in *every* namespace that binds it: the defining module,
each module that imported it by name (``hypervol.extension.polytope_volume``
is its own binding of ``volume.polytope_volume``), the package namespace,
and dict tables such as ``hypervol.cli.COMMANDS``.  `uninstall` puts the
original objects back.

Each call becomes a span (id, parent id, name, start, end).  Self time is the
span's duration minus the time covered by its child spans.  Counters are
read from arguments and results at the same boundary, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

TRACED_MODULES = ("klein", "hull", "volume", "cones", "extension", "experiments",
                  "cli", "pointcloud", "rng")

# The two volume routes that per-layer metrics split out of
# polytope_volume/simplex_volume, keyed by the estimate's method.
ROUTES = {"quadrature": "volume.quadrature", "exact_2d": "volume.exact_2d"}
VOLUME_CALLS = ("volume.polytope_volume", "volume.simplex_volume")


def _volume_counters(agg, bound, result):
    route = ROUTES.get(result.method)
    if route == "volume.quadrature":
        agg["volume.quadrature.evals"] += result.evaluations
        budget = bound.arguments.get("budget")
        if budget:
            agg.keep_max("volume.quadrature.evals_per_budget",
                         result.evaluations / float(budget))
        if result.achieved_rel_tol is not None:
            agg.keep_max("volume.quadrature.achieved_rel_tol", result.achieved_rel_tol)
    if result.low_confidence:
        agg["volume.low_confidence"] += 1
    return route


def _region_mc_counters(agg, bound, result):
    agg["volume.region_volume_mc.samples"] += result.evaluations
    if result.value > 0:
        agg.samples["volume.region_volume_mc.rel_se"].append(result.std_error / result.value)
    if result.low_confidence:
        agg["volume.low_confidence"] += 1


def _cone_volume_counters(agg, bound, result):
    agg["cones.cone_volume.evals"] += result.evaluations
    if result.low_confidence:
        agg["volume.low_confidence"] += 1


def _dist_matrix_counters(agg, bound, result):
    agg["klein.dist_matrix.pairs"] += int(result.size)


def _convex_hull_counters(agg, bound, result):
    agg["hull.convex_hull.facets"] += len(result.facets)


def _sandwich_counters(agg, bound, result):
    agg["extension.sandwich_check.probes"] += int(result["probes"])


def _boundary_rays_counters(agg, bound, result):
    agg["cones.boundary_rays.rays"] += int(result[0].shape[0])


def _verify_counters(agg, bound, result):
    agg["cones.verify_facet_decomposition.samples"] += int(result["vol_D"].evaluations)


def _theorem1_counters(agg, bound, result):
    agg["experiments.theorem1.retries"] += len(result[3].get("retries", ()))


# name -> (needs bound arguments, counter function returning an optional
# route name that replaces the span name)
COUNTERS = {
    "volume.polytope_volume": (True, _volume_counters),
    "volume.simplex_volume": (True, _volume_counters),
    "volume.region_volume_mc": (False, _region_mc_counters),
    "cones.cone_volume": (False, _cone_volume_counters),
    "klein.dist_matrix": (False, _dist_matrix_counters),
    "hull.convex_hull": (False, _convex_hull_counters),
    "extension.sandwich_check": (False, _sandwich_counters),
    "cones.boundary_rays": (False, _boundary_rays_counters),
    "cones.verify_facet_decomposition": (False, _verify_counters),
    "experiments.cmd_theorem1_sweep": (False, _theorem1_counters),
}


class Aggregate(defaultdict):
    """Per-pass totals: self seconds, call counts and counters by name."""

    def __init__(self):
        super().__init__(float)
        self.samples = defaultdict(list)

    def keep_max(self, key, value):
        self[key] = max(self.get(key, value), value)


class Tracer:
    """Wraps hypervol's public functions and aggregates their spans."""

    def __init__(self, hv_package):
        self.modules = {name: getattr(hv_package, name) for name in TRACED_MODULES}
        self.namespaces = [hv_package] + list(self.modules.values())
        self.spans: list[tuple] = []  # (id, parent id, name, start, end), first pass only
        self._patches: list[tuple] = []
        self.bindings = 0  # namespace bindings wrapped by the last install
        self._stack: list[list] = []
        self._next_id = 0
        self.agg = Aggregate()
        self.pass_id = 0

    # -- installation -----------------------------------------------------

    def _public_functions(self):
        found = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    found[id(obj)] = (obj, f"{short}.{attr}")
        return found

    def install(self):
        if self._patches:
            return
        targets = self._public_functions()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patches.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
        self.bindings = len(self._patches)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name):
        needs_bound, counter = COUNTERS.get(name, (False, None))
        sig = inspect.signature(fn) if needs_bound else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, tracer._next_id]  # name, child time, span id
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            dur = t1 - t0
            span_name = name
            if counter is not None:
                bound = sig.bind(*args, **kwargs) if sig is not None else None
                span_name = counter(tracer.agg, bound, result) or name
            agg = tracer.agg
            if span_name in ROUTES.values():
                # a route's time includes the helpers it calls (angles,
                # triangulation, recentering); a nested route is not added twice
                if not any(f[0] in VOLUME_CALLS for f in stack):
                    agg[span_name + ".s"] += dur
            else:
                agg[span_name + ".s"] += dur - frame[1]
            agg[span_name + ".calls"] += 1
            if parent is not None:
                parent[1] += dur
            if tracer.pass_id == 0:
                tracer.spans.append((frame[2], parent[2] if parent else None,
                                     span_name, t0, t1))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def take(self) -> "Aggregate":
        """Return the totals of the pass that just ended and start a new one."""
        agg, self.agg = self.agg, Aggregate()
        self.pass_id += 1
        return agg


def median_over_passes(passes, key) -> float:
    """Median over passes of a total, or of a pass's median sample (0 if none)."""
    if any(key in p.samples for p in passes):
        vals = [statistics.median(p.samples[key]) for p in passes if p.samples.get(key)]
    else:
        vals = [p.get(key, 0.0) for p in passes]
    return float(statistics.median(vals)) if vals else 0.0
