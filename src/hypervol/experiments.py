"""Desk-scale experiment commands with machine-readable CSV output.

Every command returns (header, rows, failures, summary).  Rows are plain
lists; floats are serialized with repr (shortest round-trip form), so a
fixed RunConfig reproduces byte-identical files on any worker count.
Each row carries the derived seed and the budget that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .klein import KleinPoint, density_array, dist_matrix, translation_to
from .hull import DegenerateHullError, convex_hull
from .rng import substream
from .volume import polytope_volume, preferred_method, simplex_volume
from .cones import (
    PHI_CAP,
    cone_integral_bound,
    first_summand_closed,
    first_summand_quad,
    majorant,
    second_summand,
    t_function,
)
from .extension import euclidean_capsule_ratio, theorem2_ratio
from . import pointcloud

__all__ = [
    "RunConfig",
    "generate_points",
    "regular_simplex",
    "write_csv",
    "cmd_theorem1_sweep",
    "cmd_theorem2_check",
    "cmd_cone_table",
    "cmd_extremal_search",
    "cmd_mass_near_vertices",
    "cmd_hull_volume",
]

IDEAL_TRUNCATION = 1.0 - 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Serializable description of one experiment run."""

    command: str = ""
    n: int = 2
    dims: tuple = (2, 3)
    sizes: tuple = (8, 16, 32, 64, 128, 256)
    replicates: int = 5
    family: str = "uniform-ideal"
    epsilon: float = 1.0
    budget: int = 400_000
    mc_samples: int = 200_000
    seed: int = 0
    out: str | None = None
    workers: int = 1
    boundary_samples: int = 256
    grid: int = 32
    phis: tuple = (0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.0995)
    cone_dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    d_values: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    instances: int = 3
    clusters: int = 4
    cluster_radius: float = 2.5
    spread: float = 0.5
    ball_radius: float = 1.5
    chain_spacing: float = 1.25
    steps: int = 120
    t_start: float = 0.3
    t_end: float = 0.01
    move_scale: float = 0.3
    r_values: tuple = (1.0, 2.0, 5.0)
    c_values: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2)
    points_path: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        clean = {
            k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
        }
        return cls(**clean)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def _derive_seed(*parts: int) -> int:
    # FNV-style fold so each (instance, replicate) cell gets its own stream
    h = 1469598103934665603
    for p in parts:
        h ^= (int(p) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h >> 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def render_csv(header: list[str], rows: list[list]) -> str:
    out = [",".join(header)]
    out.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# point generators: three named families, fixed for comparability

def _uniform_ball(rng, n: int, count: int, radius: float) -> np.ndarray:
    """Uniform in hyperbolic measure on B_H(0, radius).

    Radial inverse-CDF on a 4097-node table of the sinh^(n-1) cumulative;
    the table is part of the family definition.
    """
    from .klein import sinh_power_integral

    xs = np.linspace(0.0, radius, 4097)
    cdf = np.asarray(sinh_power_integral(n - 1, xs), dtype=float)
    u = rng.uniform(size=count) * cdf[-1]
    w = np.interp(u, cdf, xs)
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.tanh(w)[:, None] * g


def generate_points(
    family: str, n: int, count: int, seed: int, *, radius: float = 1.5,
    clusters: int = 4, cluster_radius: float = 2.5, spread: float = 0.5,
    chain_spacing: float = 1.25,
) -> np.ndarray:
    """One of the named point families, deterministic per (family, seed).

    uniform-ideal: unit directions truncated at Euclidean norm 1 - 1e-6.
    uniform-ball: hyperbolically uniform in a centered ball.
    clustered: regularly placed cluster centers at a fixed hyperbolic
    radius, one seeded global rotation, local uniform-ball jitter,
    round-robin assignment.
    chain: equally spaced points on a geodesic through the origin.
    """
    rng = substream(seed)
    if family == "uniform-ideal":
        g = rng.standard_normal((count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return IDEAL_TRUNCATION * g
    if family == "uniform-ball":
        return _uniform_ball(rng, n, count, radius)
    if family == "clustered":
        centers_dir = _regular_directions(n, clusters)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        centers = math.tanh(cluster_radius) * centers_dir @ q.T
        local = _uniform_ball(rng, n, count, spread)
        pts = np.empty((count, n))
        for j in range(centers.shape[0]):
            idx = np.arange(j, count, centers.shape[0])
            if idx.size == 0:
                continue
            iso = translation_to(KleinPoint(centers[j]))
            pts[idx] = iso.apply_array(local[idx])
        return pts
    if family == "chain":
        span = chain_spacing * (count - 1)
        pos = np.linspace(-span / 2.0, span / 2.0, count)
        pts = np.zeros((count, n))
        pts[:, 0] = np.tanh(pos)
        return pts
    raise ValueError(f"unknown family {family!r}")


def _regular_directions(n: int, k: int) -> np.ndarray:
    """k well-separated unit directions: simplex/cross-polytope vertices."""
    if k <= n + 1:
        return regular_simplex_directions(n)[:k]
    if k <= 2 * n:
        eye = np.eye(n)
        return np.vstack([eye, -eye])[:k]
    raise ValueError("at most 2n cluster centers supported")


def regular_simplex_directions(n: int) -> np.ndarray:
    """n+1 unit vectors in R^n with equal pairwise inner product -1/n."""
    a = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    u, s, _ = np.linalg.svd(a)
    pts = u[:, :n] * s[:n]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def regular_simplex(n: int, pairwise: float) -> np.ndarray:
    """Vertices of the regular hyperbolic n-simplex with side `pairwise`.

    Vertices sit at hyperbolic radius rho with sinh^2(rho) =
    n (cosh(pairwise) - 1) / (n + 1), which makes every pairwise distance
    exactly `pairwise` by the hyperbolic law of cosines.
    """
    s = n * (math.cosh(pairwise) - 1.0) / (n + 1)
    rho = math.asinh(math.sqrt(s))
    return math.tanh(rho) * regular_simplex_directions(n)


# ---------------------------------------------------------------------------
# command: hull volume growth in N

def cmd_theorem1_sweep(config: RunConfig):
    """Hull volume versus point count for the named families.

    Sublinearity shows up as a log-log slope at most 1.05 over the top
    decade of N, the per-point volume peaking before the largest N, and a
    tail of Vol/N that does not grow by more than 5% per grid step.
    """
    header = [
        "n", "family", "N", "replicate", "seed", "budget",
        "volume", "volume_per_N", "std_error", "method", "evaluations",
    ]
    rows: list[list] = []
    failures: list[str] = []
    retries: list[str] = []
    stats: dict[tuple, dict[int, list[float]]] = {}
    for n in config.dims:
        per_n = stats.setdefault((n, config.family), {})
        for size in config.sizes:
            for rep in range(config.replicates):
                seed_r = _derive_seed(config.seed, n, size, rep)
                est = None
                used_seed = seed_r
                for attempt in range(3):
                    used_seed = seed_r + attempt
                    pts = generate_points(
                        config.family, n, size, used_seed,
                        radius=config.ball_radius, clusters=config.clusters,
                        cluster_radius=config.cluster_radius,
                        spread=config.spread,
                    )
                    try:
                        poly = convex_hull(pts)
                    except DegenerateHullError:
                        retries.append(
                            f"degenerate hull retried: n={n} N={size} rep={rep}"
                        )
                        continue
                    est = polytope_volume(
                        poly, preferred_method(n), config.budget, used_seed
                    )
                    break
                if est is None:
                    failures.append(f"hull failed: n={n} N={size} rep={rep}")
                    continue
                rows.append([
                    n, config.family, size, rep, used_seed, config.budget,
                    est.value, est.value / size, est.std_error, est.method,
                    est.evaluations,
                ])
                per_n.setdefault(size, []).append(est.value)
                if n == 2 and config.family == "uniform-ideal":
                    bound = (size - 2) * math.pi
                    if est.value > bound + 1e-9:
                        failures.append(
                            f"2D fan bound violated: N={size} rep={rep} "
                            f"vol={est.value!r} > (N-2)pi={bound!r}"
                        )
    summary = {"slopes": {}, "ratio_peak": {}, "retries": retries}
    for (n, family), per_n in stats.items():
        sizes = sorted(per_n)
        if len(sizes) < 3:
            continue
        means = np.array([float(np.mean(per_n[s])) for s in sizes])
        ratios = means / np.array(sizes, dtype=float)
        top = [i for i, s in enumerate(sizes) if s * 10 >= sizes[-1]]
        slope = float(
            np.polyfit(np.log([sizes[i] for i in top]), np.log(means[top]), 1)[0]
        )
        summary["slopes"][f"n={n}"] = slope
        if slope > 1.05:
            failures.append(f"slope over top decade too steep: n={n} {slope!r}")
        peak = int(np.argmax(ratios))
        summary["ratio_peak"][f"n={n}"] = sizes[peak]
        if peak == len(sizes) - 1:
            failures.append(f"volume per point still rising at N={sizes[-1]} (n={n})")
        for i, j in zip(top[:-1], top[1:]):
            if ratios[j] > ratios[i] * 1.05:
                failures.append(
                    f"volume per point grew {ratios[j] / ratios[i]:.3f}x "
                    f"from N={sizes[i]} to N={sizes[j]} (n={n})"
                )
    return header, rows, failures, summary


# ---------------------------------------------------------------------------
# command: extension hull/union ratios

def cmd_theorem2_check(config: RunConfig):
    """Hull-to-union volume ratios for eps-extensions.

    Families: a two-point separation sweep (with the exact Euclidean
    plane companion for contrast), regularly rotated clusters, a geodesic
    chain, and a dense ball.  Cluster rows must have ratio >= 1 (the
    union is far from convex); dense-ball rows stay near 1.
    """
    header = [
        "instance", "family", "n", "epsilon", "d", "seed", "budget",
        "mc_samples", "hull_volume", "extension_volume", "ratio",
        "hull_method", "low_confidence",
    ]
    rows: list[list] = []
    failures: list[str] = []
    eps = config.epsilon

    def ratio(pts, seed_r):
        return theorem2_ratio(
            pts, eps, samples=config.mc_samples,
            boundary_samples=config.boundary_samples, budget=config.budget,
            seed=seed_r, workers=config.workers,
        )

    inst = 0
    two_point = []
    for d in config.d_values:
        seed_r = _derive_seed(config.seed, 2, inst)
        p = math.tanh(d / 2.0)
        pts = np.array([[-p, 0.0], [p, 0.0]])
        rep = ratio(pts, seed_r)
        rows.append([
            inst, "two-point", 2, eps, float(d), seed_r, config.budget,
            config.mc_samples, rep["hull"].value, rep["union"].value,
            rep["ratio"], rep["hull"].method, rep["low_confidence"],
        ])
        two_point.append((float(d), rep["ratio"]))
        inst += 1
    for d in config.d_values:
        if d <= 2 * eps:
            continue
        seed_r = _derive_seed(config.seed, 2, inst)
        hull_v = math.pi * eps * eps + 2.0 * eps * d
        ext_v = 2.0 * math.pi * eps * eps
        rows.append([
            inst, "two-point-euclidean", 2, eps, float(d), seed_r,
            config.budget, config.mc_samples, hull_v, ext_v,
            euclidean_capsule_ratio(d, eps), "closed_form", False,
        ])
        inst += 1
    cluster_ratios: dict[int, list[float]] = {}
    for n in config.dims:
        for k in range(config.instances):
            seed_r = _derive_seed(config.seed, n, 100 + k)
            pts = generate_points(
                "clustered", n, 20, seed_r, clusters=config.clusters,
                cluster_radius=config.cluster_radius, spread=config.spread,
            )
            rep = ratio(pts, seed_r)
            rows.append([
                inst, "cluster", n, eps, "", seed_r, config.budget,
                config.mc_samples, rep["hull"].value, rep["union"].value,
                rep["ratio"], rep["hull"].method, rep["low_confidence"],
            ])
            cluster_ratios.setdefault(n, []).append(rep["ratio"])
            if not math.isfinite(rep["ratio"]) or rep["ratio"] < 1.0:
                failures.append(
                    f"cluster ratio not >= 1: n={n} inst={k} {rep['ratio']!r}"
                )
            inst += 1
    seed_r = _derive_seed(config.seed, 2, 500)
    pts = generate_points("chain", 2, 8, seed_r, chain_spacing=config.chain_spacing)
    rep = ratio(pts, seed_r)
    rows.append([
        inst, "chain", 2, eps, "", seed_r, config.budget, config.mc_samples,
        rep["hull"].value, rep["union"].value, rep["ratio"],
        rep["hull"].method, rep["low_confidence"],
    ])
    if not math.isfinite(rep["ratio"]) or rep["ratio"] <= 0:
        failures.append(f"chain ratio not finite/positive: {rep['ratio']!r}")
    inst += 1
    seed_r = _derive_seed(config.seed, 2, 600)
    pts = generate_points("uniform-ball", 2, 40, seed_r, radius=config.ball_radius)
    rep = ratio(pts, seed_r)
    rows.append([
        inst, "dense-ball", 2, eps, "", seed_r, config.budget,
        config.mc_samples, rep["hull"].value, rep["union"].value,
        rep["ratio"], rep["hull"].method, rep["low_confidence"],
    ])
    if rep["ratio"] > 1.1:
        failures.append(f"dense-ball ratio above 1.1: {rep['ratio']!r}")
    inst += 1

    tail = [r for d, r in two_point if 5.0 <= d <= 10.0]
    summary = {"two_point": dict((str(d), r) for d, r in two_point)}
    if tail:
        summary["plateau_spread"] = max(tail) / min(tail)
        if summary["plateau_spread"] > 1.5:
            failures.append(
                f"two-point ratio not plateaued: spread {summary['plateau_spread']!r}"
            )
    for n, ratios in cluster_ratios.items():
        med = float(np.median(ratios))
        summary[f"cluster_median_n{n}"] = med
        if max(ratios) > 1.5 * med:
            failures.append(
                f"cluster ratios too spread for a plateau: n={n} "
                f"max={max(ratios)!r} median={med!r}"
            )
    return header, rows, failures, summary


# ---------------------------------------------------------------------------
# command: bounding-integral table

def cmd_cone_table(config: RunConfig):
    """Bounding-integral values against the explicit majorant.

    Also recomputes the t-identities and both summands per row; per-n
    maxima are recorded as empirical constants and must be non-increasing
    from n = 3 on.
    """
    header = [
        "n", "phi", "seed", "budget", "value", "majorant", "first_quad",
        "first_closed", "second_summand", "t_zero", "t_break", "t_one",
        "t_min_grid",
    ]
    rows: list[list] = []
    failures: list[str] = []
    per_n_max: dict[int, float] = {}
    grid = np.linspace(0.0, 1.0, 10_001)
    for n in config.cone_dims:
        for phi in config.phis:
            if phi >= PHI_CAP:
                failures.append(f"phi {phi!r} at or above the grid cap")
                continue
            val = cone_integral_bound(n, phi)
            maj = majorant(n, phi)
            f_quad = first_summand_quad(n, phi)
            f_closed = first_summand_closed(n, phi)
            sec = second_summand(n, phi)
            t0 = t_function(0.0, phi)
            tb = t_function(math.sin(phi) ** 2, phi)
            t1 = t_function(1.0, phi)
            tmin = float(np.min(t_function(grid, phi)))
            rows.append([
                n, phi, config.seed, config.budget, val, maj, f_quad,
                f_closed, sec, t0, tb, t1, tmin,
            ])
            per_n_max[n] = max(per_n_max.get(n, 0.0), val)
            if val > maj:
                failures.append(f"value above majorant: n={n} phi={phi!r}")
            if abs(f_quad - f_closed) > 1e-8:
                failures.append(f"first summand mismatch: n={n} phi={phi!r}")
            if sec >= 1.0:
                failures.append(f"second summand not below 1: n={n} phi={phi!r}")
            for name, t in (("0", t0), ("break", tb), ("1", t1)):
                if abs(t) > 1e-12:
                    failures.append(
                        f"t identity at {name} broken: n={n} phi={phi!r} t={t!r}"
                    )
            if tmin < -1e-12:
                failures.append(f"t negative on grid: n={n} phi={phi!r} {tmin!r}")
    ns = sorted(per_n_max)
    for a, b in zip(ns, ns[1:]):
        if a >= 3 and per_n_max[b] > per_n_max[a]:
            failures.append(
                f"empirical constant increased from n={a} to n={b}"
            )
    summary = {"per_n_max": {str(k): v for k, v in sorted(per_n_max.items())}}
    return header, rows, failures, summary


# ---------------------------------------------------------------------------
# command: extremal configurations

def _disjoint_simplex_baseline(n: int, count: int, budget: int, seed: int):
    """Points forming disjoint near-ideal simplices, plus the volume sum.

    In the plane: vertex triples confined to disjoint arcs of the circle
    span disjoint circular segments.  In higher dimension: vertex groups
    confined to disjoint spherical caps span disjoint cones.  The hull of
    all points contains every simplex, so the volume sum is a feasible
    lower bound for the search.
    """
    groups = count // (n + 1)
    if groups < 1:
        raise ValueError("need at least n+1 points")
    pts = []
    total = 0.0
    if n == 2:
        width = 2.0 * math.pi / groups
        for j in range(groups):
            base = j * width
            angles = [base + 0.1 * width, base + 0.5 * width, base + 0.9 * width]
            tri = IDEAL_TRUNCATION * np.array(
                [[math.cos(a), math.sin(a)] for a in angles]
            )
            pts.append(tri)
            total += simplex_volume(tri, preferred_method(n)).value
    else:
        caps = _regular_directions(n, groups)
        beta = 0.35
        tangent_spread = regular_simplex_directions(n - 1)[:n]
        for j in range(groups):
            c = caps[j]
            basis = _orthobasis(c)
            group = [c]
            for t in tangent_spread:
                d = math.cos(beta) * c + math.sin(beta) * (t @ basis)
                group.append(d / np.linalg.norm(d))
            spx = IDEAL_TRUNCATION * np.array(group)
            pts.append(spx)
            total += simplex_volume(
                spx, preferred_method(n), budget=budget, seed=seed
            ).value
    flat = np.vstack(pts)
    extra = count - flat.shape[0]
    if extra > 0:
        rng = substream(seed)
        g = rng.standard_normal((extra, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        flat = np.vstack([flat, IDEAL_TRUNCATION * g])
    return flat, total


def _orthobasis(c: np.ndarray) -> np.ndarray:
    m = np.column_stack([c, np.eye(c.size)])
    q, _ = np.linalg.qr(m)
    return q[:, 1 : c.size].T


def cmd_extremal_search(config: RunConfig):
    """Elitist annealing over point directions, maximizing hull volume.

    Starts from the disjoint-simplices baseline, so the best value can
    never drop below the baseline volume sum; the trace of best values is
    non-decreasing by construction.
    """
    n = config.n
    count = max(config.sizes[0], n + 1) if config.sizes else n + 1
    obj_budget = max(config.budget // 10, 20_000)
    pts, baseline = _disjoint_simplex_baseline(
        n, count, obj_budget, config.seed
    )

    def objective(p: np.ndarray) -> float:
        try:
            poly = convex_hull(p)
        except DegenerateHullError:
            return 0.0
        return polytope_volume(
            poly, preferred_method(n), obj_budget, config.seed
        ).value

    rng = substream(_derive_seed(config.seed, n, count))
    cur = pts.copy()
    cur_val = objective(cur)
    best = cur.copy()
    best_val = cur_val
    header = [
        "step", "seed", "budget", "temperature", "current", "best", "accepted",
    ]
    rows: list[list] = [[0, config.seed, obj_budget, config.t_start, cur_val,
                         best_val, 1]]
    failures: list[str] = []
    decay = (config.t_end / config.t_start) ** (1.0 / max(config.steps - 1, 1))
    temp = config.t_start
    for step in range(1, config.steps + 1):
        idx = int(rng.integers(count))
        cand = cur.copy()
        v = cand[idx]
        r = np.linalg.norm(v)
        d = v / r + config.move_scale * temp * rng.standard_normal(n)
        cand[idx] = r * d / np.linalg.norm(d)
        cand_val = objective(cand)
        delta = (cand_val - cur_val) / max(abs(best_val), 1.0)
        accepted = delta >= 0 or rng.random() < math.exp(delta / max(temp, 1e-9))
        if accepted:
            cur, cur_val = cand, cand_val
            if cur_val > best_val:
                best, best_val = cur.copy(), cur_val
        rows.append([
            step, config.seed, obj_budget, temp, cur_val, best_val,
            int(accepted),
        ])
        temp *= decay
    bests = [row[5] for row in rows]
    if any(b2 < b1 for b1, b2 in zip(bests, bests[1:])):
        failures.append("best-value trace decreased under elitism")
    if best_val < baseline * (1.0 - 1e-9):
        failures.append(
            f"search best {best_val!r} below baseline sum {baseline!r}"
        )
    summary = {
        "n": n, "count": count, "baseline_sum": baseline, "best": best_val,
        "best_over_baseline": best_val / baseline if baseline > 0 else math.inf,
        "best_points": [[float(x) for x in row] for row in best],
    }
    return header, rows, failures, summary


# ---------------------------------------------------------------------------
# command: mass concentration near simplex vertices

def cmd_mass_near_vertices(config: RunConfig):
    """Volume fraction of a regular simplex near its vertex set.

    One weighted sample per (n, r) serves every threshold c, so each
    fraction curve is exactly non-decreasing in c.  Exploratory output.
    """
    header = [
        "n", "r", "c", "threshold", "fraction", "low_confidence", "seed",
        "budget",
    ]
    rows: list[list] = []
    failures: list[str] = []
    for n in config.dims:
        for r in config.r_values:
            seed_r = _derive_seed(config.seed, n, int(round(r * 1000)))
            verts = regular_simplex(n, r)
            samples = config.mc_samples
            sum_w = 0.0
            sum_w_near = {c: 0.0 for c in config.c_values}
            drawn = 0
            chunk = 0
            while drawn < samples:
                m = min(65536, samples - drawn)
                rng = substream(seed_r, chunk)
                e = rng.exponential(size=(m, n + 1))
                bary = e / e.sum(axis=1, keepdims=True)
                pts = bary @ verts
                w = density_array(pts)
                dmin = dist_matrix(pts, verts).min(axis=1)
                sum_w += float(w.sum())
                for c in config.c_values:
                    sum_w_near[c] += float(w[dmin <= c * r].sum())
                drawn += m
                chunk += 1
            low = sum_w <= 0.0
            for c in config.c_values:
                frac = sum_w_near[c] / sum_w if sum_w > 0 else 0.0
                rows.append([
                    n, float(r), float(c), float(c * r), frac, low, seed_r,
                    samples,
                ])
    return header, rows, failures, {}


# ---------------------------------------------------------------------------
# command: one-shot hull volume for a point file

def cmd_hull_volume(config: RunConfig):
    """Volume of the hull of a point-cloud file, as a JSON summary."""
    if not config.points_path:
        raise ValueError("hull-volume needs points_path in the config")
    pts = pointcloud.load_points(config.points_path)
    poly = convex_hull(pts)
    est = polytope_volume(
        poly, preferred_method(poly.dim), config.budget, config.seed
    )
    summary = {
        "n": int(pts.shape[1]),
        "num_points": int(pts.shape[0]),
        "volume": est.value,
        "std_error": est.std_error,
        "method": est.method,
        "evaluations": est.evaluations,
        "seed": config.seed,
        "budget": config.budget,
    }
    header = ["n", "num_points", "seed", "budget", "volume", "std_error",
              "method"]
    rows = [[summary["n"], summary["num_points"], config.seed, config.budget,
             est.value, est.std_error, est.method]]
    return header, rows, [], summary
