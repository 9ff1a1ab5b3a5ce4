import numpy as np
import pytest
from hypothesis import settings

from scubasearch import NkqLandscape

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its run time bounded.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")


def constant_landscape(n: int, q: int = 2, value: int | None = None) -> NkqLandscape:
    """Every table entry equal: every genotype has the same total."""
    if value is None:
        value = q - 1
    tables = np.full((n, 2), value, dtype=np.int64)
    return NkqLandscape(n, 0, q, "random", np.empty((n, 0), dtype=np.int64), tables)


def onemax_landscape(n: int) -> NkqLandscape:
    """K=0, q=2 landscape whose total is the number of ones."""
    tables = np.tile(np.array([0, 1], dtype=np.int64), (n, 1))
    return NkqLandscape(n, 0, 2, "random", np.empty((n, 0), dtype=np.int64), tables)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
