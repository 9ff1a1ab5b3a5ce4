"""Stream equivalence: the seeds, Generators, starts and tie-breaks a sweep
draws in bulk against numpy's own SeedSequence, ``default_rng`` and
``Generator.integers``, value for value and half for half."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scubasearch import HEURISTICS, derive_seed, experiments, run_seed
from scubasearch import heuristics as hx

# Entropy parts at the word edges SeedSequence splits on.
EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 7)
parts_strategy = st.one_of(st.sampled_from(EDGE_PARTS), st.integers(0, 2**70))


@settings(max_examples=200)
@given(parts=st.lists(parts_strategy, min_size=1, max_size=9),
       n_words=st.integers(1, 4))
@example(parts=[0], n_words=1)
@example(parts=[2**64] * 9, n_words=4)
def test_mix_matches_seed_sequence(parts, n_words):
    want = np.random.SeedSequence(parts).generate_state(n_words, np.uint64).tolist()
    assert experiments._seed_state(parts, n_words) == want
    assert derive_seed(*parts) == want[0]


@settings(max_examples=60)
@given(base=parts_strategy, k=st.integers(0, 63),
       rows=st.lists(st.tuples(st.sampled_from((2, 3, 2**32 - 1, 2**32, 2**40, 2**62)),
                               st.sampled_from(HEURISTICS), st.integers(0, 999),
                               st.integers(0, 2**20 - 1)), min_size=1, max_size=12))
@example(base=2**32 + 1, k=4, rows=[(2, "hc", 0, 0), (2**40, "ss", 3, 7), (3, "nc", 1, 1)])
def test_bulk_rows_match_one_at_a_time(base, k, rows):
    # Rows of one-word and two-word q mix in one call, in groups of one
    # entropy layout, into the seeds run_seed gives one at a time.
    (seeds, rngs, starts), = experiments._run_streams(base, 10, k, rows, len(rows))
    assert seeds == [run_seed(base, k, q, h, instance, run) for q, h, instance, run in rows]
    assert seeds == [int(np.random.SeedSequence(
        [base, experiments._RUN_STREAM, k, q, HEURISTICS.index(h) + 1, instance, run]
    ).generate_state(1, np.uint64)[0]) for q, h, instance, run in rows]


@settings(max_examples=60)
@given(seeds=st.lists(st.one_of(st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1)),
                                st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=8))
def test_seed_words_build_default_rng(seeds):
    # Seeds below 2**32 enter as one word, the rest as two, in one call.
    words = np.stack(experiments._seed_state([np.array(seeds, dtype=np.uint64)], 4), axis=1)
    feed = experiments._SeedWords(words)
    for seed in seeds:
        built = np.random.Generator(np.random.PCG64(feed))
        assert built.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def position(rng):
    """What of a PCG64 Generator's state decides its later draws: the LCG
    state and increment, and the buffered half if it holds one (a half it
    no longer holds may stay in the state, stale)."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"] and state["uinteger"]


@pytest.mark.parametrize("base", [7, 2**32 + 5])
def test_starts_and_the_state_they_leave(base):
    # ceil(n/4) halves, odd or even, and the one left buffered.
    for n in range(1, 131):
        rows = [(3, "nc", 0, run) for run in range(3)]
        (seeds, rngs, starts), = experiments._run_streams(base, n, 2, rows, 3)
        assert starts.shape == (3, n) and starts.dtype == np.uint8
        for seed, rng, start in zip(seeds, rngs, starts):
            want = np.random.default_rng(seed)
            assert start.tolist() == want.integers(0, 2, size=n, dtype=np.uint8).tolist()
            assert position(rng) == position(want)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), skip=st.integers(0, 3), m=st.integers(0, 40))
def test_next_halves_match_one_uint32_draw(seed, skip, m):
    # From a whole word or after a buffered half, the halves and the
    # position left are those of one integers(0, 2**32, uint32) draw.
    rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for generator in (rng, want):
        generator.integers(0, 2**32, size=skip, dtype=np.uint32)
    halves = hx._next_halves(rng, m, hx._buffered(rng))
    assert halves.dtype == np.uint32
    assert halves.tolist() == want.integers(0, 2**32, size=m, dtype=np.uint32).tolist()
    assert position(rng) == position(want)
    assert rng.integers(2**40) == want.integers(2**40)


# Counts of one (no half read), small ones, and 2**31 + 1, which rejects
# almost half of all halves.
count_strategy = st.one_of(st.sampled_from((1, 2, 3, 7, 64, 2**31 + 1, 2**32 - 1)),
                           st.integers(1, 2**32 - 1))


@settings(max_examples=60)
@given(block=st.sampled_from((1, 2, 16)), seed=st.integers(0, 2**64 - 1),
       buffered=st.booleans(),
       rounds=st.lists(st.lists(st.tuples(st.integers(0, 5), count_strategy),
                                max_size=6), max_size=12))
@example(block=16, seed=3, buffered=True, rounds=[[(0, 1), (1, 2**31 + 1)]] * 20)
@example(block=1, seed=4, buffered=False, rounds=[[(0, 1)], [(0, 5)], [(0, 1)], [(0, 5)]])
def test_tie_breaks_match_sequential_integers(block, seed, buffered, rounds):
    # Each round draws for some runs at once; each run's draws are the
    # values its own sequential integers(c) calls give, whatever the block
    # size, from Generators that may hold a buffered half.
    def streams():
        rngs = [np.random.default_rng([seed, r]) for r in range(6)]
        if buffered:
            for rng in rngs:
                rng.integers(0, 2, size=5, dtype=np.uint8)  # two halves, one buffered
        return rngs

    # A run reads whether its stream holds a buffered half once, at its
    # first refill, and follows it from then on.
    reads, read = [], hx._buffered

    def counted(rng):
        reads.append(id(rng))
        return read(rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hx, "_BLOCK", block)
        patch.setattr(hx, "_buffered", counted)
        halves, sequential = hx._Halves(streams()), streams()
        for draws in rounds:
            draws = dict(draws)  # one draw per run per round
            runs = np.array(list(draws), dtype=np.intp)
            counts = np.array(list(draws.values()), dtype=np.int64)
            got = hx._bounded(halves, runs, counts)
            assert got.dtype == np.int64
            assert got.tolist() == [int(sequential[r].integers(c)) for r, c in draws.items()]
    assert len(reads) == len(set(reads))


def test_draw_picks_the_drawn_candidate():
    # Row i's candidates, ascending; the draw indexes them.
    picks = np.array([[0, 1, 0, 1, 1], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
    seeds = (11, 12, 13)
    halves = hx._Halves([np.random.default_rng(s) for s in seeds])
    loci = hx._draw(halves, np.arange(3), picks)
    want = [np.flatnonzero(row)[np.random.default_rng(s).integers(row.sum())]
            for s, row in zip(seeds, picks)]
    assert loci.tolist() == want
    assert halves.used.tolist() == [1, hx._BLOCK, 1]  # one candidate reads no half
