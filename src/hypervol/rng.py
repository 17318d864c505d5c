"""Counter-based random streams and the one chunked Monte Carlo reducer.

Every randomized operation in the library takes an explicit 64-bit seed.
Philox is counter-based, so (seed, index) pairs give statistically
independent substreams and parallel work can be split across substreams
without any coordination. Results depend only on the (seed, index)
assignment, never on scheduling.

Every Monte Carlo estimate goes through `_chunk_sums`, which fixes the
chunk contract: of `samples` draws in chunks of `chunk`, chunk c draws
min(chunk, samples - c * chunk) samples from substream(seed, c), and the
per-chunk sum arrays are added in chunk order.  The result is therefore
bitwise identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["substream"]


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for substream `index` of the stream keyed by `seed`."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    index = int(index) & 0xFFFFFFFFFFFFFFFF
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sums(seed: int, samples: int, chunk: int, stats, workers: int = 1):
    """Sum over chunks of `stats(rng, m)`, a 1-D array of per-chunk sums.

    Chunks run on a thread pool when workers > 1; the sum is taken in
    chunk order either way.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")

    def run(c: int):
        return stats(substream(seed, c), min(chunk, samples - c * chunk))

    chunks = range((samples + chunk - 1) // chunk)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = map(run, chunks)
    total = 0.0
    for part in parts:
        total = total + part
    return total
