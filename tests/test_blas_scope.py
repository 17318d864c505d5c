"""One BLAS thread while Monte Carlo chunks run.

`rng._chunk_sums` holds `rng._ONE_BLAS_THREAD` for its whole call, so the
chunks' small matrix products never wake a second BLAS thread and the
parallelism is `workers` alone.  The setter comes from the OpenBLAS that
numpy loaded and acts on the whole process; the scope counts its holders
and the last one out restores the thread count.
"""

import glob
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hypervol import rng

SETTER = rng._ONE_BLAS_THREAD.setter
needs_setter = pytest.mark.skipif(
    SETTER is None,
    reason="numpy's BLAS has no openblas_set_num_threads_local "
           "(not numpy's bundled OpenBLAS, or one without the setter)",
)


@pytest.fixture
def caller_threads():
    """Set the caller's BLAS thread count to 2; restore the original after."""
    original = SETTER(2)
    yield 2
    SETTER(original)


@needs_setter
@pytest.mark.parametrize("workers", [1, 3])
def test_chunks_see_one_blas_thread(caller_threads, workers):
    seen = []

    def stats(gen, m):
        seen.append(SETTER(1))
        return np.array([gen.standard_normal(m).sum()])

    rng._chunk_sums(5, 600, 10, stats, workers=workers)
    assert len(seen) == 60 and set(seen) == {1}
    assert SETTER(caller_threads) == caller_threads  # restored on return


@needs_setter
def test_thread_count_restored_when_stats_raises(caller_threads):
    def stats(gen, m):
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        rng._chunk_sums(5, 40, 10, stats)
    assert SETTER(caller_threads) == caller_threads


@needs_setter
def test_import_leaves_thread_count(caller_threads):
    # a fresh interpreter sets 2, imports hypervol, and reads the count back
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    code = (
        "import ctypes, os, sys\n"
        "import numpy\n"
        "lib = ctypes.CDLL(sys.argv[1], mode=getattr(os, 'RTLD_NOLOAD', 0))\n"
        "setter = lib.openblas_set_num_threads_local\n"
        "setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int\n"
        "setter(2)\n"
        "import hypervol\n"
        "print(setter(2))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, sorted(paths)[0]],
                         env=env, capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "2"


def test_scope_counts_its_holders(monkeypatch):
    # a stand-in for the process-wide setter: calls from several threads
    # overlap, and a lost update would leave the count at 1 or restore it
    # while a chunk still runs
    count = [4]

    def setter(k):
        previous, count[0] = count[0], k
        return previous

    monkeypatch.setattr(rng, "_ONE_BLAS_THREAD", rng._OneBlasThread(setter))
    wrong = []

    def stats(gen, m):
        if count[0] != 1:
            wrong.append(count[0])
        return np.array([float(m)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(rng._chunk_sums, s, 200, 7, stats, 1 + s % 3)
                       for s in range(60)]
            totals = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert totals == [200.0] * 60
    assert wrong == []
    assert count[0] == 4


def test_no_setter_is_a_no_op(monkeypatch):
    monkeypatch.setattr(rng, "_ONE_BLAS_THREAD", rng._OneBlasThread(None))
    stats = lambda gen, m: np.array([gen.standard_normal(m).sum(), m])
    got = rng._chunk_sums(3, 1_000, 64, stats, workers=2)
    monkeypatch.undo()
    assert got.tobytes() == rng._chunk_sums(3, 1_000, 64, stats).tobytes()
