"""Desk-scale experiment commands with machine-readable CSV output.

Every command returns (header, rows, failures, summary).  Rows are plain
lists; floats are serialized with repr (shortest round-trip form), so a
fixed RunConfig reproduces byte-identical files on any worker count.
Each row carries the derived seed and the budget that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .klein import (IDEAL_TRUNCATION, KleinPoint, _check_dimension,
                    _radial_table, _uniform_directions, dist_matrix,
                    translation_to)
from .hull import DegenerateHullError, convex_hull
from .rng import _chunk_sums, substream
from .volume import (MC_CHUNK, _dirichlet_draw, polytope_volume,
                     preferred_method, simplex_volume)
from .cones import (
    PHI_CAP,
    _tangent_basis,
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
    phis: tuple = (0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.0995)
    cone_dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    d_values: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    instances: int = 3
    steps: int = 120
    r_values: tuple = (1.0, 2.0, 5.0)
    c_values: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2)
    points_path: str | None = None

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
        fh.write(render_csv(header, rows))


def render_csv(header: list[str], rows: list[list]) -> str:
    out = [",".join(header)]
    out.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# point generators: three named families, fixed for comparability

def _uniform_ball(rng, n: int, count: int, radius: float) -> np.ndarray:
    """Uniform in hyperbolic measure on B_H(0, radius).

    Radial inverse-CDF by linear interpolation in `klein._radial_table`;
    the table and the interpolation are part of the family definition.
    """
    xs, cdf = _radial_table(n, radius)
    u = rng.uniform(size=count) * cdf[-1]
    w = np.interp(u, cdf, xs)
    return np.tanh(w)[:, None] * _uniform_directions(rng, count, n)


def generate_points(
    family: str, n: int, count: int, seed: int, *, radius: float = 1.5,
    clusters: int = 4, cluster_radius: float = 2.5, spread: float = 0.5,
    chain_spacing: float = 1.25,
) -> np.ndarray:
    """One of the named point families, deterministic per (family, seed).

    uniform-ideal: unit directions scaled to Euclidean norm IDEAL_TRUNCATION.
    uniform-ball: hyperbolically uniform in a centered ball.
    clustered: regularly placed cluster centers at a fixed hyperbolic
    radius, one seeded global rotation, local uniform-ball jitter,
    round-robin assignment.
    chain: equally spaced points on a geodesic through the origin.
    """
    rng = substream(seed)
    if family == "uniform-ideal":
        return IDEAL_TRUNCATION * _uniform_directions(rng, count, n)
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

# volume of the regular ideal tetrahedron, 3 L(pi/3): no hyperbolic
# tetrahedron is larger (Haagerup & Munkholm, Acta Math. 147, 1981)
V3_IDEAL = 1.0149416064096536


def _fan_bound(n: int, verts: int):
    """Theorem 1's fan bound on a hull with `verts` vertices, and its name.

    A hyperbolic V-gon has area below (V - 2) pi.  A 3D hull coned from one
    vertex splits into at most 2V - 7 tetrahedra, none larger than v3.
    From n = 4 on there is no bound: (None, "").
    """
    if n == 2:
        return (verts - 2) * math.pi, "(V-2)pi"
    if n == 3:
        return (2 * verts - 7) * V3_IDEAL, "(2V-7)v3"
    return None, ""


def cmd_theorem1_sweep(config: RunConfig):
    """Hull volume versus point count for the named families.

    Sublinearity shows up as a log-log slope at most 1.05 over the top
    decade of N, the per-point volume peaking before the largest N, and a
    tail of Vol/N that does not grow by more than 5% per grid step.
    Every planar and 3D hull is checked against `_fan_bound` of its
    vertex count V as well.
    """
    header = [
        "n", "family", "N", "replicate", "seed", "budget",
        "volume", "volume_per_N", "std_error", "method", "evaluations",
    ]
    rows: list[list] = []
    failures: list[str] = []
    stats: dict[tuple, dict[int, list[float]]] = {}
    for n in config.dims:
        per_n = stats.setdefault((n, config.family), {})
        for size in config.sizes:
            for rep in range(config.replicates):
                seed_r = _derive_seed(config.seed, n, size, rep)
                pts = generate_points(config.family, n, size, seed_r)
                try:
                    poly = convex_hull(pts)
                except DegenerateHullError:
                    failures.append(f"hull failed: n={n} N={size} rep={rep}")
                    continue
                est = polytope_volume(
                    poly, preferred_method(n), config.budget, seed_r
                )
                rows.append([
                    n, config.family, size, rep, seed_r, config.budget,
                    est.value, est.value / size, est.std_error, est.method,
                    est.evaluations,
                ])
                per_n.setdefault(size, []).append(est.value)
                verts = poly.vertices.shape[0]
                bound, name = _fan_bound(n, verts)
                if bound is not None and est.value > bound + 1e-9:
                    failures.append(
                        f"{n}D fan bound violated: N={size} rep={rep} "
                        f"V={verts} vol={est.value!r} > {name}={bound!r}"
                    )
    summary = {"slopes": {}, "ratio_peak": {}}
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
    union is far from convex); dense-ball rows stay near 1.  Each row
    names the route of both sides: planar rows are closed forms
    ("kept_arcs_hull", "kept_arcs_union"), 3D rows a ring hull and the
    Voronoi-cell union ("voronoi_cells_union"), and from n = 4 on the
    union is Monte Carlo (see `theorem2_ratio`).  `union_std_error` is the
    union's stated error: a rounding bound for the closed forms, 0 for the
    Euclidean companion, the standard error for Monte Carlo.
    """
    header = [
        "instance", "family", "n", "epsilon", "d", "seed", "budget",
        "mc_samples", "hull_volume", "extension_volume", "union_std_error",
        "ratio", "hull_method", "union_method", "low_confidence",
    ]
    rows: list[list] = []
    failures: list[str] = []
    eps = config.epsilon
    inst = 0

    def row(family, n, d, seed_r, hull_v, ext_v, ext_se, r, hull_m, union_m,
            low):
        nonlocal inst
        rows.append([inst, family, n, eps, d, seed_r, config.budget,
                     config.mc_samples, hull_v, ext_v, ext_se, r, hull_m,
                     union_m, low])
        inst += 1
        return r

    def ratio_row(family, n, d, seed_r, pts):
        rep = theorem2_ratio(
            pts, eps, samples=config.mc_samples,
            boundary_samples=config.boundary_samples, budget=config.budget,
            seed=seed_r, workers=config.workers,
        )
        union = rep["union"]
        return row(family, n, d, seed_r, rep["hull"].value, union.value,
                   union.std_error, rep["ratio"], rep["hull"].method,
                   union.method, rep["low_confidence"])

    two_point = []
    for d in config.d_values:
        seed_r = _derive_seed(config.seed, 2, inst)
        p = math.tanh(d / 2.0)
        pts = np.array([[-p, 0.0], [p, 0.0]])
        r = ratio_row("two-point", 2, float(d), seed_r, pts)
        two_point.append((float(d), r))
    for d in config.d_values:
        if d <= 2 * eps:
            continue
        row("two-point-euclidean", 2, float(d), _derive_seed(config.seed, 2, inst),
            math.pi * eps * eps + 2.0 * eps * d, 2.0 * math.pi * eps * eps, 0.0,
            euclidean_capsule_ratio(d, eps), "closed_form", "closed_form", False)
    cluster_ratios: dict[int, list[float]] = {}
    for n in config.dims:
        for k in range(config.instances):
            seed_r = _derive_seed(config.seed, n, 100 + k)
            pts = generate_points("clustered", n, 20, seed_r)
            r = ratio_row("cluster", n, "", seed_r, pts)
            cluster_ratios.setdefault(n, []).append(r)
            if not math.isfinite(r) or r < 1.0:
                failures.append(f"cluster ratio not >= 1: n={n} inst={k} {r!r}")
    seed_r = _derive_seed(config.seed, 2, 500)
    pts = generate_points("chain", 2, 8, seed_r)
    r = ratio_row("chain", 2, "", seed_r, pts)
    if not math.isfinite(r) or r <= 0:
        failures.append(f"chain ratio not finite/positive: {r!r}")
    seed_r = _derive_seed(config.seed, 2, 600)
    pts = generate_points("uniform-ball", 2, 40, seed_r)
    r = ratio_row("dense-ball", 2, "", seed_r, pts)
    if r > 1.1:
        failures.append(f"dense-ball ratio above 1.1: {r!r}")

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
        _check_dimension(n)  # before the first row, not partway through
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
    confined to disjoint spherical caps, at most 2n of them, span disjoint
    cones.  The other points are seeded ideal directions.  The hull of all
    points contains every simplex, so the volume sum is a feasible lower
    bound for the search.
    """
    groups = count // (n + 1)
    if groups < 1:
        raise ValueError("need at least n+1 points")
    simplices = []
    if n == 2:
        width = 2.0 * math.pi / groups
        for j in range(groups):
            base = j * width
            angles = [base + 0.1 * width, base + 0.5 * width, base + 0.9 * width]
            simplices.append(IDEAL_TRUNCATION * np.array(
                [[math.cos(a), math.sin(a)] for a in angles]
            ))
    else:
        beta = 0.35
        tangent_spread = regular_simplex_directions(n - 1)[:n]
        for c in _regular_directions(n, min(groups, 2 * n)):
            basis = _tangent_basis(c)
            group = [c]
            for t in tangent_spread:
                d = math.cos(beta) * c + math.sin(beta) * (t @ basis)
                group.append(d / np.linalg.norm(d))
            simplices.append(IDEAL_TRUNCATION * np.array(group))
    total = sum(simplex_volume(spx, preferred_method(n), budget=budget,
                               seed=seed).value for spx in simplices)
    flat = np.vstack(simplices)
    extra = count - flat.shape[0]
    if extra > 0:
        g = _uniform_directions(substream(seed), extra, n)
        flat = np.vstack([flat, IDEAL_TRUNCATION * g])
    return flat, total


# the hill climb's whole step: one direction moves by this times N(0, I)
MOVE_SCALE = 0.3


def cmd_extremal_search(config: RunConfig):
    """Seeded hill climb over point directions, maximizing hull volume.

    Starts from the disjoint-simplices baseline and keeps one
    configuration.  Each step moves one point's direction and keeps the
    move only when the hull volume rises, so the best value never drops
    below the baseline volume sum, and the trace of best values is
    non-decreasing.  The best hull is checked against `_fan_bound`, which
    brackets the constant of Theorem 1 as [best / N, fan_bound / N].
    """
    n = config.n
    count = max(config.sizes[0], n + 1) if config.sizes else n + 1
    obj_budget = max(config.budget // 10, 20_000)
    best, baseline = _disjoint_simplex_baseline(
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
    best_val = objective(best)
    header = ["step", "seed", "budget", "candidate", "best", "accepted"]
    rows: list[list] = [[0, config.seed, obj_budget, best_val, best_val, 1]]
    failures: list[str] = []
    for step in range(1, config.steps + 1):
        idx = int(rng.integers(count))
        cand = best.copy()
        v = cand[idx]
        r = np.linalg.norm(v)
        d = v / r + MOVE_SCALE * rng.standard_normal(n)
        cand[idx] = r * d / np.linalg.norm(d)
        cand_val = objective(cand)
        accepted = cand_val > best_val
        if accepted:
            best, best_val = cand, cand_val
        rows.append([
            step, config.seed, obj_budget, cand_val, best_val, int(accepted),
        ])
    if best_val < baseline * (1.0 - 1e-9):
        failures.append(
            f"search best {best_val!r} below baseline sum {baseline!r}"
        )
    verts = convex_hull(best).vertices.shape[0]
    fan_bound, name = _fan_bound(n, verts)
    if fan_bound is not None and best_val > fan_bound + 1e-9:
        failures.append(
            f"{n}D fan bound violated: N={count} V={verts} "
            f"best={best_val!r} > {name}={fan_bound!r}"
        )
    summary = {
        "n": n, "count": count, "baseline_sum": baseline, "best": best_val,
        "best_over_baseline": best_val / baseline if baseline > 0 else math.inf,
        "fan_bound": fan_bound,
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

            def stats(rng, m):
                pts, w = _dirichlet_draw(rng, verts, m)
                dmin = dist_matrix(pts, verts).min(axis=1)
                return np.array(
                    [w.sum()] + [w[dmin <= c * r].sum() for c in config.c_values]
                )

            sum_w, *sum_w_near = _chunk_sums(seed_r, samples, MC_CHUNK,
                                             stats).tolist()
            low = sum_w <= 0.0
            for c, near in zip(config.c_values, sum_w_near):
                frac = near / sum_w if sum_w > 0 else 0.0
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
        "low_confidence": bool(est.low_confidence),
        "achieved_rel_tol": est.to_json_dict()["achieved_rel_tol"],
        "seed": config.seed,
        "budget": config.budget,
    }
    header = ["n", "num_points", "seed", "budget", "volume", "std_error",
              "method"]
    rows = [[summary["n"], summary["num_points"], config.seed, config.budget,
             est.value, est.std_error, est.method]]
    return header, rows, [], summary
