"""The pinned Monte Carlo outputs of test_sampling, with the BLAS scope off.

Running BLAS on one thread must not move a bit: each pin below is the same
test as in test_sampling, collected here again with the scope's setter
forced to None, as on a BLAS that does not offer it.
"""

import pytest

from hypervol import rng
from test_sampling import (  # noqa: F401  (collected here again)
    test_extension_volume_pinned,
    test_facet_decomposition_pinned,
    test_mass_near_vertices_pinned,
    test_polytope_mc_pinned,
    test_region_mc_pinned,
    test_simplex_mc_pinned,
)


@pytest.fixture(autouse=True)
def _no_blas_scope(monkeypatch):
    monkeypatch.setattr(rng, "_ONE_BLAS_THREAD", rng._OneBlasThread(None))
