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
of int64 wraps and shows; hc2's carried pair sums are drawn at q on either
side of their own dtype's edges (``pair_edges``).
"""

import contextlib
import io
import os
import random
import tempfile
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scubasearch import (
    HEURISTICS,
    MODES,
    MOVE_KINDS,
    LandscapeFormatError,
    NkqLandscape,
    SweepConfig,
    build_graph,
    census,
    deserialize,
    extended_scan,
    generate,
    hill_climb,
    hill_climb2,
    netcrawler,
    neutral_degree_instance_means,
    neutral_mutation_profile,
    run_sweep,
    scuba,
    search,
    serialize,
)
from scubasearch import cli, heuristics
from scubasearch import landscape as landscape_module
from scubasearch.heuristics import _Runs
from scubasearch.landscape import _draw_bounded, _random_links, _table_dtype

Q_VALUES = (2, 3, 100, 128, 129, 2**15, 2**15 + 1, 2**31, 2**31 + 1, 2**40, 2**58)


@st.composite
def landscape_and_genotype(draw, q, max_n=10):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n - 1))
    mode = draw(st.sampled_from(MODES))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return generate(n, k, q, mode, seed=seed), np.array(bits, dtype=np.uint8)


@st.composite
def landscape_group(draw, qs, max_n=10, max_size=3):
    """One to ``max_size`` landscapes of one (n, k), each with its own seed,
    mode and q, drawn from ``qs``, q values of one table dtype."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n - 1))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=max_size, unique=True))
    return [generate(n, k, draw(st.sampled_from(qs)), draw(st.sampled_from(MODES)), seed=seed)
            for seed in seeds]


def dtype_mates(q):
    """``q`` and the smaller values of ``Q_VALUES`` whose tables share its
    dtype, so a group of them pair-sums at the largest q it holds."""
    return tuple(x for x in Q_VALUES if x <= q and _table_dtype(x) == _table_dtype(q))


def genotype_rows(data, n, min_size=1, max_size=4):
    return np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                       min_size=min_size, max_size=max_size)),
                    dtype=np.uint8).reshape(-1, n)


def block_rows(words):
    """Rows a kernel of ``words`` int64 words a row takes a block, by the
    one block rule at the current ``_SCAN_ENTRIES``."""
    return next(landscape_module._blocks(1, words)).stop


def fresh_scan(landscapes, instances, states):
    """``(pos, totals, deltas)`` of each row of ``states``, scanned alone by
    the group of one of landscape ``instances[r]``, its table positions
    offset by that instance's place in a group's flat tables."""
    scans = [landscapes[i]._group._row_deltas(row[None]) for i, row in zip(instances, states)]
    size = landscapes[0].tables.size
    return ([(pos[0] + i * size).tolist() for (pos, _, _), i in zip(scans, instances)],
            [int(totals[0]) for _, totals, _ in scans],
            [deltas[0].tolist() for _, _, deltas in scans])


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_extended_scan_matches_oracle(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    base = tuple(int(b) for b in s)
    _, totals, d = landscape._group._row_deltas(s[None])
    pairs = extended_scan(landscape, s)
    flips = totals[0] + d[0]
    assert flips.dtype == np.int64 and pairs.dtype == np.int64
    assert totals[0] == oracles.naive_total(landscape, base)
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
@settings(max_examples=50)
@given(data=st.data())
def test_pair_gains_match_oracle(q, data):
    # Row [r, a] of _pair_gains: the one-bit deltas of row r with locus a
    # flipped, so the diagonal is -d. A batch of rows over a group of
    # landscapes checks that each row's terms land in its own block, read
    # off its own instance's table and ball keys, built a row or two of
    # balls at a time: a build row holds n balls, each of 1 + (k+1)**2 index
    # words and pair targets, and n*n pair sums.
    landscapes = data.draw(landscape_group(dtype_mates(q), max_n=12))
    n, k = landscapes[0].n, landscapes[0].k
    rows = genotype_rows(data, n, max_size=3)
    instances = np.array(data.draw(st.lists(st.integers(0, len(landscapes) - 1),
                                            min_size=len(rows), max_size=len(rows))))
    block = data.draw(st.integers(1, 2))
    group = landscape_module._Group(landscapes)
    # C-ordered ball keys ravel in the scatter without a copy.
    assert group._keys.flags.c_contiguous
    runs = _Runs(group, instances, rows, trace=False)
    words = n * (1 + (k + 1) ** 2 + n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape_module, "_SCAN_ENTRIES", block * words)
        assert block_rows(words) == block
        gains = group._pair_gains(group._pair_sums(runs.idx, instances), runs.d)
    assert gains.dtype == group._pair_dtype and gains.shape == (len(rows), n, n)
    for r, (row, i) in enumerate(zip(rows.tolist(), instances.tolist())):
        assert np.diagonal(gains[r]).tolist() == (-runs.d[r]).tolist()
        for a in range(n):
            mutant = oracles.flip(tuple(row), a)
            total = oracles.naive_total(landscapes[i], mutant)
            assert gains[r, a].tolist() == [
                oracles.naive_total(landscapes[i], oracles.flip(mutant, b)) - total
                for b in range(n)
            ]


def pair_edges(n):
    """The q values on either side of the pair dtype's int16 | int32 and
    int32 | int64 edges for ``n`` loci, where ``2*n*(q-1) + 1`` passes 2**15
    and 2**31."""
    return tuple(q for bound in (2**15, 2**31)
                 for q in ((bound - 1) // (2 * n) + 1, (bound - 1) // (2 * n) + 2))


@settings(max_examples=80)
@given(data=st.data())
def test_carried_pair_sums_match_fresh_build(data):
    # hc2 carries each run's pair sums across its moves, moving only the
    # components that read the flipped locus, in the smallest dtype that
    # holds 2n(q-1) + 1: after any sequence of moves of any runs, P + d
    # with -d on the diagonal is what a fresh build gives, and the oracle.
    # Built a row of balls at a time, and moved a segment entry at a time.
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(0, min(n - 1, 5)))
    q = data.draw(st.sampled_from(Q_VALUES + pair_edges(n)))
    mates = (q, *(x for x in Q_VALUES if x < q and _table_dtype(x) == _table_dtype(q)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))
    landscapes = [generate(n, k, data.draw(st.sampled_from(mates)) if i else q,
                           data.draw(st.sampled_from(MODES)), seed=seed)
                  for i, seed in enumerate(seeds)]
    rows = genotype_rows(data, n, max_size=4)
    instances = np.array(data.draw(st.lists(st.integers(0, len(landscapes) - 1),
                                            min_size=len(rows), max_size=len(rows))))
    group = landscape_module._Group(landscapes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape_module, "_SCAN_ENTRIES", 1)
        # One row, ball or segment entry a block, whatever its words.
        assert block_rows(1) == 1
        runs = _Runs(group, instances, rows, trace=False)
        pairs = group._pair_sums(runs.idx, instances)
        assert pairs.dtype == group._pair_dtype == _table_dtype(2 * n * (q - 1) + 1)
        edges = dict(zip(pair_edges(n), (np.int16, np.int32, np.int32, np.int64)))
        if q in edges:
            assert pairs.dtype == edges[q]
        for _ in range(data.draw(st.integers(1, 6))):
            moved = np.array(sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))))
            loci = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=moved.size,
                                               max_size=moved.size)))
            gains = group._pair_gains(pairs[moved], runs.d[moved])
            group._move_pairs(pairs, runs.idx, moved, instances[moved] * n + loci)
            runs.flip(moved, loci, gains[np.arange(moved.size), loci])
            assert pairs.dtype == group._pair_dtype
            assert (group._pair_gains(pairs.copy(), runs.d).tolist()
                    == group._pair_gains(group._pair_sums(runs.idx, instances), runs.d).tolist())
        gains = group._pair_gains(pairs, runs.d)
        for r, (row, i) in enumerate(zip((runs.idx & 1).tolist(), instances.tolist())):
            for a in range(n):
                mutant = oracles.flip(tuple(row), a)
                total = oracles.naive_total(landscapes[i], mutant)
                assert gains[r, a].tolist() == [
                    oracles.naive_total(landscapes[i], oracles.flip(mutant, b)) - total
                    for b in range(n)
                ]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_hill_climb2_at_the_largest_totals(k):
    # n*(q-1) = 2**62 - 1, check_params' edge: a pair sum reaches 2n(q-1),
    # which int64 holds, though 2*n*q does not (its dtype would be object).
    n, q = 3, (2**62 - 1) // 3 + 1
    landscape = generate(n, k, q, seed=k)
    assert landscape._group._pair_dtype == np.int64
    for seed in range(8):
        s = np.random.default_rng([k, seed]).integers(0, 2, n, dtype=np.uint8)
        got = _as_oracle_run(hill_climb2(landscape, s, np.random.default_rng(seed), trace=True))
        assert got == oracles.hill_climb2(landscape, s, np.random.default_rng(seed))


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


def _check_scan(landscape, states, totals, flips, oracle_rows):
    """``batch_scan``'s ``(totals, flips)`` of ``states`` against each row
    scanned alone, and against the oracle at ``oracle_rows``."""
    n = landscape.n
    assert totals.dtype == np.int64 and totals.shape == (len(states),)
    assert flips.dtype == np.int64 and flips.shape == (len(states), n)
    for b, row in enumerate(states):
        alone_totals, alone_flips = landscape.batch_scan(row[None])
        assert totals[b] == alone_totals[0]
        assert flips[b].tolist() == alone_flips[0].tolist()
    for b in oracle_rows:
        base = tuple(int(a) for a in states[b])
        assert totals[b] == oracles.naive_total(landscape, base)
        assert flips[b].tolist() == [
            oracles.naive_total(landscape, oracles.flip(base, a)) for a in range(n)
        ]


@settings(max_examples=60)
@given(data=st.data())
def test_blocked_batch_scan_equals_rows_alone(data):
    # The block size is drawn from below one row (a block still holds one)
    # to 4(k+1) rows of positions, and the batch from empty to past several
    # blocks, the last one short. A block of R rows goes through
    # entries // ((k+1)*R) components at a time, at least one: from one
    # component to all n, so component blocks end short of n too.
    landscape, _ = data.draw(landscape_and_genotype(data.draw(st.sampled_from(
        (2, 3, 100, 2**40)))))
    n, k = landscape.n, landscape.k
    entries = data.draw(st.integers(1, 4 * n * (k + 1)))
    rows = data.draw(st.integers(0, 3 * max(1, entries // n) + 2))
    states = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=rows, max_size=rows)),
        dtype=np.uint8).reshape(rows, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape_module, "_SCAN_ENTRIES", entries)
        totals, flips = landscape.batch_scan(states)
        # A scan row holds n positions.
        assert block_rows(n) == max(1, entries // n)
    _check_scan(landscape, states, totals, flips, range(rows))


def test_blocked_batch_scan_at_paper_scale():
    # n=64, K=16 with the shipped block size: two whole blocks of 512 rows,
    # each gone through 3 components at a time, and a short one of 7 rows,
    # whose components are one block. The oracle reads the rows on each
    # side of every row-block boundary.
    landscape = generate(64, 16, 100, seed=15)
    block = landscape_module._SCAN_ENTRIES // 64
    assert landscape_module._SCAN_ENTRIES // (17 * block) == 3
    states = np.random.default_rng(15).integers(0, 2, (2 * block + 7, 64), dtype=np.uint8)
    totals, flips = landscape.batch_scan(states)
    assert block_rows(64) == block
    _check_scan(landscape, states, totals, flips,
                (0, block - 1, block, 2 * block - 1, 2 * block, len(states) - 1))


def delta_edges():
    """``(n, q, dtype)``: n*(q-1) just below, at and just past the largest
    value of int8, int16 and int32, with n up to 8, and the one-bit delta
    dtype it takes."""
    wider = {2**7 - 1: np.int16, 2**15 - 1: np.int32, 2**31 - 1: np.int64}
    for bound, narrow in zip(wider, (np.int8, np.int16, np.int32)):
        for top in (bound - 1, bound, bound + 1):
            n = max(d for d in range(1, 9) if top % d == 0)
            yield n, top // n + 1, narrow if top <= bound else wider[bound]


def extreme_landscape(n, q, sign):
    """Every component reads every locus (k = n-1) and holds q-1 at index
    0 and 0 elsewhere (``sign`` -1), or the reverse (+1), so at the all-zero
    genotype every one-bit delta is ``sign * n*(q-1)``."""
    tables = np.full((n, 2**n), q - 1 if sign > 0 else 0)
    tables[:, 0] = q - 1 - tables[:, 0]
    links = [[j for j in range(n) if j != i] for i in range(n)]
    return NkqLandscape(n, n - 1, q, MODES[0], links, tables)


@pytest.mark.parametrize("n, q, dtype", list(delta_edges()))
def test_delta_dtype_edges(n, q, dtype):
    # The scan sums each one-bit delta in the smallest signed dtype holding
    # n*(q-1); the extreme landscapes reach +-n(q-1), which one dtype less
    # would wrap. A group holding a smaller q of the same table dtype as
    # well scans both in the dtype its largest q sets.
    rows = np.vstack([np.zeros((1, n)), np.ones((1, n)),
                      np.random.default_rng(q).integers(0, 2, (3, n))]).astype(np.uint8)
    landscapes = [extreme_landscape(n, q, 1), extreme_landscape(n, q, -1),
                  generate(n, n - 1, q, seed=n)]
    if q > 2 and _table_dtype(q - 1) == _table_dtype(q):
        landscapes.insert(0, extreme_landscape(n, q - 1, 1))
    group = landscape_module._Group(landscapes)
    assert group._delta_dtype == dtype
    for i, landscape in enumerate(landscapes):
        _, totals, deltas = group._row_deltas(rows, i)
        alone_totals, flips = landscape.batch_scan(rows)
        assert deltas.dtype == dtype
        assert landscape._group._delta_dtype == _table_dtype(landscape.max_total + 1)
        for b, row in enumerate(rows.tolist()):
            total = oracles.naive_total(landscape, tuple(row))
            want = [oracles.naive_total(landscape, oracles.flip(tuple(row), a)) - total
                    for a in range(n)]
            assert totals[b] == alone_totals[b] == total
            assert deltas[b].tolist() == (flips[b] - total).tolist() == want
    up = len(landscapes) - 3
    for i, sign in ((up, 1), (up + 1, -1)):
        assert group._row_deltas(rows, i)[2][0].tolist() == [sign * n * (q - 1)] * n


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


@pytest.mark.parametrize("q", (2, 3))
@given(data=st.data())
def test_is_local_v2_matches_oracle(q, data):
    # All six locality predicates of the census, V2 among them, at the drawn
    # genotype's node.
    landscape, s = data.draw(landscape_and_genotype(q, max_n=6))
    fm = oracles.fitness_map(landscape)
    base = tuple(int(b) for b in s)
    node = int("".join(map(str, base)), 2)
    for (guide, structure), local in census(landscape).local_nodes.items():
        assert (node in local) == oracles.is_local(fm, base, guide, structure)


@settings(max_examples=30)
@given(n=st.integers(1, 300), k=st.integers(0, 299), seed=st.integers(0, 2**32 - 1))
@example(n=64, k=0, seed=1)
@example(n=64, k=16, seed=2)
@example(n=64, k=63, seed=3)
@example(n=3000, k=3, seed=4)
def test_random_links_match_the_per_locus_loop(n, k, seed):
    # The same links, and the stream left where the loop leaves it.
    k %= n
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    links = _random_links(n, k, rng)
    expected = oracles.random_links(n, k, oracle_rng)
    assert links.dtype == expected.dtype and links.tolist() == expected.tolist()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("q", Q_VALUES)
@given(data=st.data())
def test_generate_draws_one_draw_in_any_chunks(q, data):
    # Chunks of any size, straddling rows or not, give the table of one
    # draw; and the table generate hands over passes the constructor.
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(0, min(n - 1, 6)))
    mode = data.draw(st.sampled_from(MODES))
    seed = data.draw(st.integers(0, 2**32 - 1))
    chunk = data.draw(st.integers(1, 3 * 2 ** (k + 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape_module, "_SCAN_ENTRIES", chunk)
        landscape = generate(n, k, q, mode, seed=seed)
    assert landscape.tables.dtype == _table_dtype(q)
    assert np.array_equal(landscape.tables, oracles.generated_tables(n, k, q, mode, seed))
    assert landscape.links.dtype == np.int64
    assert not landscape.links.flags.writeable and not landscape.tables.flags.writeable
    rebuilt = NkqLandscape(n, k, q, mode, landscape.links, landscape.tables, landscape.seed)
    assert rebuilt == landscape


# The q the raw-word draw maps itself: every one up to 2**32, 2**32 included.
RAW_DRAW_QS = tuple(q for q in Q_VALUES if q < 2**32) + (2**32,)
# Sizes on both sides of the first two chunk edges.
CHUNK_EDGE_SIZES = tuple(m * landscape_module._SCAN_ENTRIES + d
                         for m in (1, 2) for d in (-1, 0, 1))


@pytest.mark.parametrize("q", RAW_DRAW_QS)
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), buffered=st.booleans(),
       size=st.one_of(st.integers(0, 9), st.sampled_from(CHUNK_EDGE_SIZES)))
def test_raw_word_draw_equals_integers(q, seed, buffered, size):
    # The values of one integers() draw, whether or not a half was buffered
    # beforehand.
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        # One 32-bit value leaves its word's high half buffered.
        rng.integers(0, 5)
        oracle_rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"]
    out = np.empty(size, dtype=np.int64)
    _draw_bounded(rng, q, out)
    assert np.array_equal(out, oracle_rng.integers(0, q, size, dtype=np.int64))


@settings(max_examples=30)
@given(data=st.data())
@example(data=None)
def test_row_positions_match_oracle(data):
    # Table positions up to k = 16, the paper grid's largest, where an
    # index packs 17 bits.
    if data is None:
        landscape = generate(17, 16, 2, seed=5)
        rows = np.array([[0] * 17, [1] * 17, [0, 1] * 8 + [1]], dtype=np.uint8)
    else:
        k = data.draw(st.integers(0, 16))
        n = data.draw(st.integers(k + 1, k + 4))
        landscape = generate(n, k, 2, data.draw(st.sampled_from(MODES)),
                             seed=data.draw(st.integers(0, 2**32 - 1)))
        rows = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                           min_size=1, max_size=4)), dtype=np.uint8)
    pos = landscape._group._row_deltas(rows)[0]
    assert pos.dtype == np.int64
    assert pos.tolist() == [oracles.table_positions(landscape, row) for row in rows]


@given(data=st.data())
@example(data=None)
def test_by_locus_rows_name_each_component_once(data):
    # The rows of keys instance*n + l tile the flat by-locus arrays in key
    # order; row instance*n + l lists the readers of l in that instance,
    # ascending, each once, with their weights, so one fancy XOR assignment
    # applies a flip, and the loci each reader reads as its targets. The
    # loci come from the links, by the packing rule of the format.
    if data is None:  # k = n-1: every component reads every locus
        landscapes = [generate(7, 6, 2, seed=1)]
    else:
        landscapes = data.draw(landscape_group((2,), max_n=14))
    group = landscape_module._Group(landscapes)
    n, k = group.n, group.k
    comps, weights, targets = group._comps, group._weights, group._targets
    starts, counts = group._starts, group._counts
    assert comps.shape == weights.shape == (len(landscapes) * n * (k + 1),)
    assert targets.shape == (comps.size, k + 1)
    assert starts.tolist() == (np.cumsum(counts) - counts).tolist()
    for i, landscape in enumerate(landscapes):
        loci = np.column_stack((np.arange(n), landscape.links))
        assert group._loci[i].tolist() == loci.tolist()
        for l in range(n):
            segment = slice(starts[i * n + l], starts[i * n + l] + counts[i * n + l])
            row = comps[segment].tolist()
            readers = [j for j in range(n) if l in loci[j]]
            assert row == readers
            assert weights[segment].tolist() == [1 << loci[j].tolist().index(l)
                                                 for j in readers]
            assert targets[segment].tolist() == loci[row].tolist()
    if k == n - 1:
        assert counts.tolist() == [n] * len(counts)


@pytest.mark.parametrize("heuristic", HEURISTICS)
@settings(max_examples=40)
@given(data=st.data())
def test_run_state_matches_a_fresh_scan_after_every_round(heuristic, data):
    # The flip update, and hc2's deltas read off its pair totals, against a
    # fresh scan of each run's genotype on its own instance after every
    # round; k = 0 and k = n-1 bound the lengths of the by-locus rows.
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.sampled_from((0, n - 1)) | st.integers(0, n - 1))
    q = data.draw(st.sampled_from((2, 3, 100, 2**40)))
    landscapes = [generate(n, k, q, data.draw(st.sampled_from(MODES)), seed=seed)
                  for seed in data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                                 max_size=3, unique=True))]
    runs = data.draw(st.integers(1, 6))
    starts = genotype_rows(data, n, runs, runs)
    instances = data.draw(st.lists(st.integers(0, len(landscapes) - 1), min_size=runs,
                                   max_size=runs))
    rngs = [np.random.default_rng(seed) for seed in data.draw(st.lists(
        st.integers(0, 2**32 - 1), min_size=runs, max_size=runs))]
    flip, rounds = _Runs.flip, []

    def checked_flip(state, *args, **kwargs):
        flip(state, *args, **kwargs)
        pos, totals, deltas = fresh_scan(landscapes, instances, (state.idx & 1).astype(np.uint8))
        assert state.idx.tolist() == pos
        assert state.total.tolist() == totals
        assert state.d.dtype == np.int64 and state.d.tolist() == deltas
        rounds.append(len(args[0]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Runs, "flip", checked_flip)
        heuristics._search(landscape_module._Group(landscapes), heuristic,
                           np.array(instances, dtype=np.intp), starts, rngs,
                           data.draw(st.integers(1, 600)), False)
    assert rounds


def test_neutral_degree_sampling_builds_one_group_per_landscape(monkeypatch):
    # degn scans each landscape with its cached group of one, built on its
    # first scan; later scans of the landscape reuse it.
    sizes = []
    init = landscape_module._Group.__init__

    def counted_init(group, landscapes):
        sizes.append(len(landscapes))
        init(group, landscapes)

    monkeypatch.setattr(landscape_module._Group, "__init__", counted_init)
    for k in (0, 2, 5):
        means = neutral_degree_instance_means(8, k, 2, samples=30, instances=2, seed=4)
        assert means.shape == (2,)
    assert sizes == [1] * 6
    landscape = generate(8, 2, 2, seed=4)
    for _ in range(3):
        landscape.batch_scan(np.zeros((2, 8), dtype=np.uint8))
    assert sizes == [1] * 7


def test_neutral_degree_sampling_counts_every_row_whatever_the_block(monkeypatch):
    # degn scans each drawn chunk one scan block at a time: blocks of three
    # rows, the last one short, count what one block of all 50 rows counts.
    whole = neutral_degree_instance_means(8, 2, 2, samples=50, instances=2, seed=4)
    monkeypatch.setattr(landscape_module, "_SCAN_ENTRIES", 3 * 8)
    blocked = neutral_degree_instance_means(8, 2, 2, samples=50, instances=2, seed=4)
    assert blocked.tolist() == whole.tolist()


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=50)
@given(data=st.data())
def test_score_vector_follows_flips(q, data):
    # The run state's flip update, moving several runs on a group of
    # landscapes at once, against a fresh scan of every run's genotype on
    # its own instance.
    landscapes = data.draw(landscape_group(dtype_mates(q)))
    n = landscapes[0].n
    states = genotype_rows(data, n)
    instances = np.array(data.draw(st.lists(st.integers(0, len(landscapes) - 1),
                                            min_size=len(states), max_size=len(states))))
    runs = _Runs(landscape_module._Group(landscapes), instances, states, trace=False)
    for moves in data.draw(st.lists(st.dictionaries(
            st.integers(0, len(states) - 1), st.integers(0, n - 1), min_size=1), max_size=8)):
        rows, loci = np.array(list(moves)), np.array(list(moves.values()))
        runs.flip(rows, loci)
        states[rows, loci] ^= 1
        pos, totals, deltas = fresh_scan(landscapes, instances, states)
        assert runs.idx.tolist() == pos
        assert runs.total.tolist() == totals
        assert runs.d.dtype == np.int64 and runs.d.tolist() == deltas
    # The batched mutant deltas: row r holds the one-bit deltas of genotype
    # rows[r] with loci[r] flipped, read by the key instance*n + locus.
    rows = np.array(data.draw(st.lists(st.integers(0, len(states) - 1), min_size=1,
                                       max_size=2 * n)))
    loci = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows.size,
                                       max_size=rows.size)))
    held = runs.idx.tolist(), runs.d.tolist()
    got = runs.group._mutant_deltas(runs.idx, runs.d, rows, instances[rows] * n + loci)
    assert got.dtype == np.int64 and got.shape == (rows.size, n)
    # The mutant deltas read the run state in place and write none of it.
    assert (runs.idx.tolist(), runs.d.tolist()) == held
    mutants = states[rows]
    mutants[np.arange(rows.size), loci] ^= 1
    for r, (i, mutant) in enumerate(zip(instances[rows], mutants)):
        totals, flips = landscapes[i].batch_scan(mutant[None])
        assert got[r].tolist() == (flips[0] - totals[0]).tolist()


def _as_oracle_run(result):
    return {"terminal": tuple(int(b) for b in result.terminal),
            "total": result.fitness.total, "steps": result.steps,
            "flat": result.flat_count, "gate": result.gate_count,
            "evaluations": result.evaluations,
            "trace": [(MOVE_KINDS[kind], total) for kind, total in
                      zip(result.trace.kinds.tolist(), result.trace.totals.tolist())]}


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
        (hill_climb2, oracles.hill_climb2, {}),
    )
    results = []
    for search, oracle, kwargs in runs:
        got = _as_oracle_run(
            search(landscape, s, np.random.default_rng(seed), trace=True, **kwargs))
        assert got == oracle(landscape, s, np.random.default_rng(seed), **kwargs)
        results.append(got)
    hc, nc, ss, hc2 = results
    assert hc["evaluations"] == n * (hc["steps"] + 1)
    assert nc["evaluations"] == nc["steps"] == step_max
    assert ss["steps"] == ss["flat"] + ss["gate"]
    assert hc2["evaluations"] == (n + comb(n, 2)) * (hc2["steps"] + 1)


def _run_arrays(result):
    """Everything a run reports, each trace array with its dtype."""
    trace = result.trace
    return (result.terminal.tolist(), result.fitness.total, result.fitness.normalized,
            result.steps, result.flat_count, result.gate_count, result.evaluations,
            [(str(a.dtype), a.tolist()) for a in (trace.s0, trace.loci, trace.totals,
                                                   trace.kinds, trace.degns)])


@pytest.mark.parametrize("heuristic", ("hc", "nc", "hc2", "ss"))
@settings(max_examples=60)
@given(data=st.data())
def test_batch_of_runs_equals_runs_alone(heuristic, data):
    # Runs advanced together stop in different rounds, and small q gives
    # ties to break; step_max reaches past one chunk of netcrawler proposals,
    # and hc2 reads the pair totals of `chunk` runs at a time, so a batch may
    # span several chunks, the last one short, and builds and moves them in
    # blocks of a row or two of balls; scuba's guard reads its mutant deltas
    # in blocks of a few rows, and the start-up scan of an instance's R runs
    # goes through block*n // R of their components at a time, in blocks of
    # block*(k+1) rows. The runs are spread at random over one
    # to three landscapes of one (n, k), their q values drawn from one table
    # dtype, so chunks and blocks straddle them. The netcrawler reads a
    # window of a few proposals per round, wider as runs finish, so windows
    # straddle chunk ends.
    landscapes = data.draw(landscape_group(data.draw(st.sampled_from(
        ((2, 3, 4, 100), (2**31 + 1, 2**40))))))
    n = landscapes[0].n
    runs = data.draw(st.integers(2, 12))
    starts = genotype_rows(data, n, runs, runs)
    instances = data.draw(st.lists(st.integers(0, len(landscapes) - 1), min_size=runs,
                                   max_size=runs))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=runs, max_size=runs))
    step_max = data.draw(st.integers(1, 1100))
    chunk = data.draw(st.integers(1, runs))
    block = data.draw(st.integers(1, 4))
    window = data.draw(st.integers(1, 3))
    crawl = data.draw(st.integers(0, 40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heuristics, "_PAIR_ENTRIES", chunk * n * n)
        patch.setattr(heuristics, "_WINDOW", window)
        patch.setattr(heuristics, "_CRAWL_ENTRIES", crawl)
        patch.setattr(landscape_module, "_SCAN_ENTRIES", block * n * (landscapes[0].k + 1))
        group = landscape_module._Group(landscapes)
        k = landscapes[0].k
        assert block_rows(n) == block * (k + 1)
        assert block_rows(n + 4 * (k + 1) ** 2) == max(1, block * n * (k + 1)
                                                       // (n + 4 * (k + 1) ** 2))
        assert block_rows(n * (1 + (k + 1) ** 2 + n)) == max(1, block * (k + 1)
                                                             // (1 + (k + 1) ** 2 + n))
        batch = heuristics._search(group, heuristic, np.array(instances, dtype=np.intp), starts,
                                   [np.random.default_rng(seed) for seed in seeds], step_max,
                                   True)
    assert len(batch) == runs
    for s0, i, seed, got in zip(starts, instances, seeds, batch):
        alone = search(landscapes[i], heuristic, [s0], [np.random.default_rng(seed)], step_max,
                       trace=True)
        assert _run_arrays(got) == _run_arrays(alone[0])


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_group_of_q_values_of_one_dtype_equals_runs_alone(heuristic):
    # q = 3 and 100 share int8 tables, so one group holds both: hc2 sums its
    # pair terms in the dtype of q = 100, and each run's normalized fitness
    # divides by its own landscape's n*(q-1).
    landscapes = [generate(8, 3, q, seed=seed) for q, seed in ((3, 1), (100, 2), (3, 3))]
    instances = np.array([0, 1, 2, 1, 0, 1], dtype=np.intp)
    starts = np.random.default_rng(0).integers(0, 2, size=(len(instances), 8), dtype=np.uint8)
    batch = heuristics._search(landscape_module._Group(landscapes), heuristic, instances, starts,
                               [np.random.default_rng(seed) for seed in range(len(starts))],
                               300, True)
    for seed, (s0, i, got) in enumerate(zip(starts, instances, batch)):
        alone = search(landscapes[i], heuristic, [s0], [np.random.default_rng(seed)], 300,
                       trace=True)
        assert _run_arrays(got) == _run_arrays(alone[0])


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=30)
@given(data=st.data())
def test_hill_climb2_counter_law_and_trace_kinds(q, data):
    landscape, s = data.draw(landscape_and_genotype(q))
    n = landscape.n
    result = hill_climb2(landscape, s, np.random.default_rng(data.draw(
        st.integers(0, 2**32 - 1))), trace=True)
    assert result.evaluations == (n + comb(n, 2)) * (result.steps + 1)
    kinds = result.trace.kinds
    assert len(result.trace) == result.steps + 1
    assert kinds[0] == MOVE_KINDS.index("init")
    assert np.count_nonzero(kinds == MOVE_KINDS.index("neutral")) == result.flat_count
    assert np.count_nonzero(kinds == MOVE_KINDS.index("improve")) == result.gate_count
    assert np.count_nonzero(kinds == MOVE_KINDS.index("descend")) == (
        result.steps - result.flat_count - result.gate_count)


def _check_moves(graph, result, kind_names):
    """The trace of ``result`` read against the exhaustive graph: each entry's
    total and neutral degree, and for each move its source node, target node,
    locus and kind. Returns ``(sources, targets, loci, kinds, terminal)``:
    the first four over the moves that changed the node."""
    trace = result.trace
    n = graph.n
    nodes = trace.genotypes().astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
    totals = graph.totals[nodes]
    assert trace.totals.tolist() == totals.tolist()
    assert trace.degns.tolist() == (
        graph.neighbor_totals[nodes] == totals[:, None]).sum(axis=1).tolist()
    assert set(MOVE_KINDS[kind] for kind in trace.kinds[1:]) <= set(kind_names)
    moved = np.flatnonzero(trace.loci[1:] >= 0) + 1
    src, dst, loci = nodes[moved - 1], nodes[moved], trace.loci[moved]
    assert (graph.neighbor_ids[src, loci] == dst).all()
    stayed = np.flatnonzero(trace.loci[1:] < 0) + 1
    assert (nodes[stayed] == nodes[stayed - 1]).all()
    kinds = [MOVE_KINDS[kind] for kind in trace.kinds[moved]]
    for u, v, kind in zip(src.tolist(), dst.tolist(), kinds):
        change = graph.totals[v] - graph.totals[u]
        assert kind == ("improve" if change > 0 else "neutral" if change == 0
                        else "descend")
    return src, dst, loci, kinds, int(nodes[-1])


@pytest.mark.parametrize("q", (2, 3, 100))
@given(data=st.data())
def test_searchers_follow_the_exhaustive_graph(q, data):
    # Every move is one the searcher's rule allows at that node, whatever the
    # tie-break, and every terminal lies in the rule's stop set; the rules are
    # read off the graph's exhaustive arrays, which share no code with the
    # score vector the searchers carry.
    landscape, s = data.draw(landscape_and_genotype(q))
    seed = data.draw(st.integers(0, 2**32 - 1))
    graph = build_graph(landscape)
    local = graph.local
    best = graph.neighbor_totals.max(axis=1)
    plateau_best = graph.plateau_evols.max(axis=1)

    def run(search, **kwargs):
        return search(landscape, s, np.random.default_rng(seed), trace=True, **kwargs)

    src, dst, loci, _, end = _check_moves(graph, run(hill_climb), ("improve",))
    assert (graph.neighbor_totals[src, loci] == best[src]).all()
    assert local["f", "V"][end] and not local["f", "V"][src].any()

    step_max = data.draw(st.integers(1, 100))
    _check_moves(graph, run(netcrawler, step_max=step_max),
                 ("improve", "neutral", "reject"))

    src, dst, loci, kinds, end = _check_moves(graph, run(scuba), ("improve", "neutral"))
    flat = np.array([kind == "neutral" for kind in kinds], dtype=bool)
    assert not local["evol", "Vn"][src[flat]].any()
    assert (graph.plateau_evols[src[flat], loci[flat]] == plateau_best[src[flat]]).all()
    assert local["evol", "Vn"][src[~flat]].all()
    assert (graph.neighbor_totals[src[~flat], loci[~flat]] == best[src[~flat]]).all()
    assert local["evol", "Vn"][end] and local["f", "V"][end]

    src, dst, loci, _, end = _check_moves(graph, run(hill_climb2),
                                          ("improve", "neutral", "descend"))
    assert not local["f", "V2"][src].any() and local["f", "V2"][end]
    direct = graph.evol_v[src] == graph.evol_v2[src]
    assert (graph.totals[dst[direct]] == graph.evol_v2[src[direct]]).all()
    assert (graph.evol_v[dst[~direct]] == graph.evol_v2[src[~direct]]).all()


def _profile_as_tuples(rows):
    return [(r.heuristic, r.degn, r.steps, r.p_neutral_step, r.visits,
             r.p_neutral_state) for r in rows]


@settings(max_examples=50)
@given(data=st.data())
def test_profile_matches_rescan_oracle(data):
    n = data.draw(st.integers(1, 10))
    config = SweepConfig(
        n=n, k_values=tuple(sorted(set(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=2))))),
        q_values=tuple(sorted(set(data.draw(st.lists(
            st.sampled_from(Q_VALUES), min_size=1, max_size=2))))),
        base_seed=data.draw(st.integers(0, 2**32 - 1)),
        heuristics=("nc", "ss", "hc2"), runs=data.draw(st.integers(1, 3)),
        instances=data.draw(st.integers(1, 2)), step_max=data.draw(st.integers(1, 40)),
        mode=data.draw(st.sampled_from(MODES)), profile=("nc", "ss", "hc2"))
    report = run_sweep(config)
    heuristics = ("nc", "ss", "hc2")
    assert _profile_as_tuples(neutral_mutation_profile(report, heuristics)) == \
        oracles.neutral_mutation_profile(report, heuristics)
    degns = {}
    for rec, landscape, trace in oracles.replays(report):
        key = (rec.k, rec.q, rec.landscape_seed)
        if key not in degns:
            degns[key] = oracles.memo_degn(landscape)
        for recorded, genotype in zip(trace.degns.tolist(), trace.genotypes().tolist()):
            assert recorded == degns[key](tuple(genotype))


@pytest.mark.parametrize("step_max", [1, 31, 32, 33, 512, 513, 1025])
@settings(max_examples=8)
@given(data=st.data())
def test_profile_counts_match_traced_runs(step_max, data):
    # The netcrawler's windows (_WINDOW = 32 proposals, more while few runs
    # are live) and chunks (_PROPOSALS = 512) end at these budgets; a small
    # _CRAWL_ENTRIES keeps every window at _WINDOW.
    n = data.draw(st.integers(1, 10))
    config = SweepConfig(
        n=n, k_values=(data.draw(st.integers(0, n - 1)),),
        q_values=tuple(sorted(set(data.draw(st.lists(
            st.sampled_from((2, 3, 129)), min_size=1, max_size=2))))),
        base_seed=data.draw(st.integers(0, 2**32 - 1)), runs=data.draw(st.integers(1, 12)),
        instances=data.draw(st.integers(1, 3)), step_max=step_max, profile=HEURISTICS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heuristics, "_CRAWL_ENTRIES", data.draw(st.sampled_from((1, 2**11))))
        report = run_sweep(config)
    counts = {h: np.zeros((4, n + 1), dtype=np.int64) for h in HEURISTICS}
    for rec, _, trace in oracles.replays(report):
        counts[rec.heuristic] += oracles.trace_counts(trace, n)
    for h in HEURISTICS:
        assert report.profiles[h].dtype == np.int64
        assert report.profiles[h].tolist() == counts[h].tolist()


# Chunks that keep a document close to valid (integers, signs, separators)
# are drawn as often as arbitrary bytes.
_chunk = st.one_of(st.integers(-2**70, 2**70).map(lambda v: str(v).encode()),
                   st.sampled_from((b"-", b" ", b"\n", b"_", b"none")),
                   st.binary(min_size=1, max_size=3))


@st.composite
def mutated_document(draw):
    """A small landscape's document with one to four edits (one field
    replaced, or bytes replaced, inserted or deleted), then maybe cut short."""
    n = draw(st.sampled_from(range(1, 7)))
    landscape = generate(n, draw(st.sampled_from(range(n))),
                         draw(st.sampled_from((2, 3, 129, 2**40))),
                         draw(st.sampled_from(MODES)), seed=draw(st.integers(0, 99)))
    doc = serialize(landscape).encode()
    # Positions come from a random.Random seeded by the draw, which spreads
    # them evenly, so edits land in the locus lines as often as their share
    # of the document (positions drawn by Hypothesis favour the start).
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("field", "replace", "insert", "delete")))
        chunk = draw(_chunk)
        if kind == "field":
            fields = doc.split(b" ")
            fields[rnd.randrange(len(fields))] = chunk
            doc = b" ".join(fields)
            continue
        at = rnd.randrange(len(doc) + 1)
        if kind == "insert":
            doc = doc[:at] + chunk + doc[at:]
        else:
            doc = doc[:at] + (chunk if kind == "replace" else b"") + doc[at + len(chunk):]
    return doc[:rnd.randrange(len(doc) + 1)] if draw(st.booleans()) else doc


# A link too large for int64, and a byte that is not UTF-8.
_OVERFLOWING_LINK = (b"format nkq-landscape-1\nn 2\nk 1\nq 2\nmode random\nseed 1\n"
                     b"0 99999999999999999999 0 1 1 0\n1 0 1 0 0 1\n")
_NOT_UTF8 = b"\x80ormat nkq-landscape-1\nn 1\nk 0\nq 2\nmode random\nseed 0\n0 1 1\n"


@settings(max_examples=200)
@example(doc=_OVERFLOWING_LINK)
@example(doc=_NOT_UTF8)
@given(doc=mutated_document())
def test_deserialize_rejects_mutated_documents_with_format_error(doc):
    try:
        landscape = deserialize(doc.decode("latin-1"))
    except LandscapeFormatError:
        return
    assert isinstance(landscape, NkqLandscape)


def _parses(doc: bytes) -> bool:
    try:
        deserialize(doc.decode("utf-8"))
    except (UnicodeDecodeError, LandscapeFormatError):
        return False
    return True


@settings(max_examples=40)
@example(doc=_OVERFLOWING_LINK)
@example(doc=_NOT_UTF8)
@given(doc=mutated_document())
def test_cli_run_reports_mutated_landscape_files_in_one_line(doc):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--heuristic", "hc", "--landscape", path,
                           "--seed", "1"])
    finally:
        os.unlink(path)
    if _parses(doc):
        assert rc == 0 and err.getvalue() == ""
    else:
        assert rc == 2
        assert err.getvalue().count("\n") == 1
        assert "malformed landscape file" in err.getvalue()
        assert "Traceback" not in err.getvalue()
