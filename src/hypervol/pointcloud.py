"""Point-cloud CSV files.

Format: a header line `dim=<n>,model=<klein|poincare|hyperboloid>`, then
one point per row with n comma-separated floats.  Poincare rows p convert
to Klein via x = 2p/(1+|p|^2); hyperboloid rows store the spatial part s
of (s0, s) and convert via x = s/sqrt(1+|s|^2).  Klein rows, converted or
not, must pass `klein._check_points` on load and on save; near-ideal
points belong at norm `klein.IDEAL_TRUNCATION`.  Floats are written with
repr, so a Klein-model load/save round trip is byte-stable (converted
models round-trip values to the last ulp, not bytes).
"""

from __future__ import annotations

import numpy as np

from .klein import _check_dimension, _check_points

__all__ = ["load_points", "save_points", "MODELS"]

MODELS = ("klein", "poincare", "hyperboloid")


def _parse_header(line: str) -> tuple[int, str]:
    parts = dict(
        kv.split("=", 1) for kv in line.strip().split(",") if "=" in kv
    )
    if "dim" not in parts or "model" not in parts:
        raise ValueError("header must be 'dim=<n>,model=<name>'")
    n = int(parts["dim"])
    model = parts["model"].strip()
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_dimension(n)
    return n, model


def load_points(path) -> np.ndarray:
    """Load a point cloud, converting to Klein coordinates. Returns (m, n)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        n, model = _parse_header(header)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            vals = [float(tok) for tok in line.split(",")]
            if len(vals) != n:
                raise ValueError(f"line {lineno}: expected {n} columns")
            rows.append(vals)
    pts = np.asarray(rows, dtype=float).reshape(-1, n)
    if model == "poincare":
        # p and its inversion p/|p|^2 share a Klein point, so the rows are
        # checked as interior points before they convert
        _check_points(pts)
        pts = 2.0 * pts / (1.0 + np.sum(pts * pts, axis=1, keepdims=True))
    elif model == "hyperboloid":
        # rows are spatial parts, time part is implied
        pts = pts / np.sqrt(1.0 + np.sum(pts * pts, axis=1, keepdims=True))
    _check_points(pts)
    return pts


def save_points(path, pts: np.ndarray, model: str = "klein") -> None:
    """Write Klein-coordinate points (m, n) in the requested model."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[1]
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_points(pts)
    out = pts
    if model == "poincare":
        s = 1.0 + np.sqrt(1.0 - np.sum(pts * pts, axis=1, keepdims=True))
        out = pts / s
    elif model == "hyperboloid":
        out = pts / np.sqrt(1.0 - np.sum(pts * pts, axis=1, keepdims=True))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={n},model={model}\n")
        for row in out:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
