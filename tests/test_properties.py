"""Property tests of the scan kernels, the score vector and the one-bit
searchers against the brute-force oracles.

Landscapes and genotypes are drawn by Hypothesis under the deterministic
profile registered in ``conftest.py``. The large q values keep the scans
honest about integers: at ``q = 2**40`` totals pass 2**32, and at
``q = 2**58`` table values pass 2**53, above which float64 no longer holds
every integer, so any float arithmetic in a scan path shows as an inexact
total. The q values at the edges of the table dtypes (128 | 129,
2**15 | 2**15+1, 2**31 | 2**31+1) put the largest entries each dtype holds
into the scans, so a sum or a pair term computed in the table dtype instead
of int64 wraps and shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scubasearch import (
    MODES,
    EvalCounter,
    NkqLandscape,
    PlateauScan,
    deserialize,
    extended_scan,
    generate,
    hill_climb,
    is_local,
    netcrawler,
    neutral_degree_instance_means,
    scuba,
    serialize,
)

Q_VALUES = (2, 3, 100, 128, 129, 2**15, 2**15 + 1, 2**31, 2**31 + 1, 2**40, 2**58)


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
    # extended_scan returns pair_scan's arrays as they are.
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
def test_batch_scan_matches_oracle(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    rows = [s.tolist()] + data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=3))
    states = np.array(rows, dtype=np.uint8)
    totals, flips = landscape.batch_scan(states)
    assert totals.dtype == np.int64 and flips.dtype == np.int64
    batch_totals = landscape.batch_totals(states)
    assert batch_totals.dtype == np.int64
    for b, row in enumerate(rows):
        base = tuple(row)
        assert totals[b] == batch_totals[b] == oracles.naive_total(landscape, base)
        assert flips[b].tolist() == [
            oracles.naive_total(landscape, oracles.flip(base, a)) for a in range(n)
        ]


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_delta_total_matches_oracle(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    base = tuple(int(b) for b in s)
    total = oracles.naive_total(landscape, base)
    for a in range(landscape.n):
        assert landscape.delta_total(s, total, a) == oracles.naive_total(
            landscape, oracles.flip(base, a))


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_serialization_round_trips_values_and_dtype(q, data):
    landscape, _ = data.draw(landscape_and_genotype(q))
    again = deserialize(serialize(landscape))
    assert again == landscape  # compares the table values too
    assert again.tables.dtype == landscape.tables.dtype == np.min_scalar_type(-q)


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


def _mutants(s, loci):
    states = np.repeat(s[None, :], len(loci), axis=0)
    states[np.arange(len(loci)), loci] ^= 1
    return states


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=50)
@given(data=st.data())
def test_score_vector_follows_flips(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    state = landscape.scores(s)
    first = PlateauScan(state)
    first_flips = landscape.batch_scan(s[None, :])[1][0]
    for locus in data.draw(st.lists(st.integers(0, n - 1), max_size=12)):
        state = state.flip(locus)
        s[locus] ^= 1
        totals, flips = landscape.batch_scan(s[None, :])
        assert state.s.tolist() == s.tolist()
        assert state.total == totals[0]
        assert state.d.dtype == np.int64
        assert state.d.tolist() == (flips[0] - totals[0]).tolist()
    loci = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    rows = state.mutant_deltas(loci)
    assert rows.dtype == np.int64 and rows.shape == (len(loci), n)
    totals, flips = landscape.batch_scan(_mutants(s, loci))
    assert rows.tolist() == (flips - totals[:, None]).tolist()
    # A view of an earlier score vector still reads that vector.
    assert first.flip_totals.tolist() == first_flips.tolist()


def _as_oracle_run(result):
    return {"terminal": tuple(int(b) for b in result.terminal),
            "total": result.fitness.total, "steps": result.steps,
            "flat": result.flat_count, "gate": result.gate_count,
            "evaluations": result.evaluations,
            "trace": [(step.kind, step.fitness.total) for step in result.trace]}


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_searchers_match_oracles(q, data):
    landscape, s = data.draw(landscape_and_genotype(q, max_n=8))
    n = landscape.n
    seed = data.draw(st.integers(0, 2**32 - 1))
    step_max = data.draw(st.integers(1, 300))
    runs = (
        (hill_climb, oracles.hill_climb, {}),
        (netcrawler, oracles.netcrawler, {"step_max": step_max}),
        (scuba, oracles.scuba, {}),
    )
    results = []
    for search, oracle, kwargs in runs:
        got = _as_oracle_run(
            search(landscape, s, np.random.default_rng(seed), trace=True, **kwargs))
        assert got == oracle(landscape, s, np.random.default_rng(seed), **kwargs)
        results.append(got)
    hc, nc, ss = results
    assert hc["evaluations"] == n * (hc["steps"] + 1)
    assert nc["evaluations"] == nc["steps"] == step_max
    assert ss["steps"] == ss["flat"] + ss["gate"]
