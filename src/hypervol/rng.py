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
bitwise identical for any worker count.  `_mean_se` turns a sum and a sum
of squares into the mean and its standard error.

The parallelism of a Monte Carlo call is its `workers` alone: while any
`_chunk_sums` call runs, BLAS runs on one thread.  The chunks' matrix
products have an inner dimension of 2 to 5, where a second BLAS thread does
no useful work and spins.  The scope calls `openblas_set_num_threads_local`
in the OpenBLAS that numpy's wheels bundle (numpy.libs/ or numpy/.dylibs/).
Despite its name, that setter changes the thread count of the whole process
(OpenBLAS 0.3.31, pthreads build), so BLAS calls that other threads make
meanwhile run on one thread too; the count is restored when the last
running call returns.  Where numpy uses another BLAS (MKL, Accelerate, a
system OpenBLAS) or an OpenBLAS without the setter, the scope does nothing.
The thread count moves no bit of a result: the pinned outputs are tested
with the scope and without it.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["substream"]


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for substream `index` of the stream keyed by `seed`."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    index = int(index) & 0xFFFFFFFFFFFFFFFF
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blas_threads_setter():
    """`openblas_set_num_threads_local` of numpy's bundled OpenBLAS, or None.

    The library is opened only if numpy has already loaded it
    (RTLD_NOLOAD), so this loads nothing and starts no BLAS thread.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    mode = getattr(os, "RTLD_NOLOAD", 0) | ctypes.RTLD_LOCAL
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path, mode=mode).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the previous thread count
        return setter
    return None


class _OneBlasThread:
    """Context manager: BLAS on one thread while any holder is inside.

    The setter acts on the whole process, so the holders are counted: the
    first to enter saves the thread count and sets 1, the last to leave
    restores it.  A None setter makes the scope a no-op.
    """

    def __init__(self, setter):
        self.setter = setter
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def __enter__(self):
        if self.setter is not None:
            with self._lock:
                if self._holders == 0:
                    self._saved = self.setter(1)
                self._holders += 1
        return self

    def __exit__(self, *exc):
        if self.setter is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    self.setter(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread(_blas_threads_setter())


def _chunk_sums(seed: int, samples: int, chunk: int, stats, workers: int = 1):
    """Sum over chunks of `stats(rng, m)`, a 1-D array of per-chunk sums.

    Chunks run on a thread pool when workers > 1; the sum is taken in
    chunk order either way.  BLAS runs on one thread meanwhile.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")

    def run(c: int):
        return stats(substream(seed, c), min(chunk, samples - c * chunk))

    chunks = range((samples + chunk - 1) // chunk)
    total = 0.0
    with _ONE_BLAS_THREAD:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(run, chunks))
        else:
            parts = map(run, chunks)
        for part in parts:
            total = total + part
    return total


def _mean_se(total: float, total_sq: float, samples: int) -> tuple[float, float]:
    """Sample mean and its standard error from a sum and a sum of squares."""
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
