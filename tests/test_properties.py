"""Property tests of the distance-2 scan against the brute-force oracles.

Landscapes and genotypes are drawn by Hypothesis under the deterministic
profile registered in ``conftest.py``. The large q values keep the scans
honest about integers: at ``q = 2**40`` totals pass 2**32, and at
``q = 2**58`` table values pass 2**53, above which float64 no longer holds
every integer, so any float arithmetic in a scan path shows as an inexact
total.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from scubasearch import (
    MODES,
    EvalCounter,
    NkqLandscape,
    extended_scan,
    generate,
    is_local,
    neutral_degree_instance_means,
)

Q_VALUES = (2, 3, 100, 2**40, 2**58)


@st.composite
def landscape_and_genotype(draw, q, max_n=10):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n - 1))
    mode = draw(st.sampled_from(MODES))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return generate(n, k, q, mode, seed=seed), np.array(bits, dtype=np.uint8)


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_extended_scan_matches_oracle(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    base = tuple(int(b) for b in s)
    total, flips, pairs = extended_scan(landscape, s)
    assert flips.dtype == np.int64 and pairs.dtype == np.int64
    assert total == oracles.naive_total(landscape, base)
    assert flips.tolist() == [
        oracles.naive_total(landscape, oracles.flip(base, a)) for a in range(n)
    ]
    # flip(flip(s, a), a) is s itself, so the diagonal's oracle is total.
    assert pairs.tolist() == [
        [oracles.naive_total(landscape, oracles.flip(oracles.flip(base, a), b))
         for b in range(n)]
        for a in range(n)
    ]


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_extended_scan_charge(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    known = data.draw(st.booleans())
    counter = EvalCounter(data.draw(st.integers(0, 1000)))
    start = counter.count
    total = landscape.total(s) if known else None
    got, _, _ = extended_scan(landscape, s, counter, total=total)
    assert got == landscape.total(s)
    assert counter.count - start == n + n * (n - 1) // 2


@pytest.mark.parametrize("q", (2, 3))
@given(data=st.data())
def test_is_local_v2_matches_oracle(q, data):
    landscape, s = data.draw(landscape_and_genotype(q, max_n=6))
    fm = oracles.fitness_map(landscape)
    base = tuple(int(b) for b in s)
    for guide in ("f", "evol"):
        assert is_local(landscape, s, guide, "V2") == oracles.is_local(fm, base, guide, "V2")


def test_neutral_degree_sampling_never_builds_pair_structure(monkeypatch):
    def refuse(self):
        raise AssertionError("pair structure built")

    monkeypatch.setattr(NkqLandscape, "_pair_structure", refuse)
    for k in (0, 2, 5):
        means = neutral_degree_instance_means(8, k, 2, samples=30, instances=2, seed=4)
        assert means.shape == (2,)
