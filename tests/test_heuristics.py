import gc
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from scubasearch import (
    RANDOM,
    LandscapeError,
    generate,
    hill_climb,
    hill_climb2,
    netcrawler,
    scuba,
    search,
)
from scubasearch import heuristics
from scubasearch import landscape as landscape_module
from scubasearch.heuristics import (MOVE_KINDS, MOVE_NEUTRAL, MOVE_REJECT, STEP_MAX_LIMIT,
                                    _Runs)

NEUTRAL, REJECT = MOVE_KINDS.index(MOVE_NEUTRAL), MOVE_KINDS.index(MOVE_REJECT)


def scan(landscape, s):
    """``(total, flip totals)`` of ``s`` from one batch scan."""
    totals, flips = landscape.batch_scan(s[None, :])
    return int(totals[0]), flips[0]


def is_v_local(landscape, s) -> bool:
    total, flips = scan(landscape, s)
    return int(flips.max()) <= total


def evolvability(landscape, s) -> int:
    total, flips = scan(landscape, s)
    return max(total, int(flips.max()))


def assert_trace_non_decreasing(result):
    assert (np.diff(result.trace.totals) >= 0).all()


class TestHillClimb:
    def test_onemax_climbs_to_all_ones(self):
        n = 12
        landscape = onemax_landscape(n)
        result = hill_climb(landscape, np.zeros(n, dtype=np.uint8),
                            np.random.default_rng(0))
        assert result.terminal.tolist() == [1] * n
        assert result.steps == n
        assert result.fitness.normalized == 1.0
        assert result.evaluations == n * (n + 1)

    def test_constant_stops_immediately(self):
        landscape = constant_landscape(8)
        s0 = np.zeros(8, dtype=np.uint8)
        result = hill_climb(landscape, s0, np.random.default_rng(0))
        assert result.terminal.tolist() == s0.tolist()
        assert result.steps == 0
        assert result.evaluations == 8

    def test_terminal_is_local_and_accounting(self, rng):
        landscape = generate(16, 3, 3, RANDOM, seed=5)
        for seed in range(10):
            result = hill_climb(landscape, rng.integers(0, 2, 16, dtype=np.uint8),
                                np.random.default_rng(seed), trace=True)
            assert is_v_local(landscape, result.terminal)
            assert result.evaluations == 16 * (result.steps + 1)
            assert result.gate_count == result.steps
            assert result.flat_count == 0
            assert_trace_non_decreasing(result)
            assert (np.diff(result.trace.totals) > 0).all()


class TestTrace:
    @pytest.mark.parametrize("search", [hill_climb, hill_climb2, scuba, netcrawler])
    def test_read_paths_agree(self, search):
        # The rebuilt genotypes and the recorded totals tell one story.
        landscape = generate(12, 2, 4, RANDOM, seed=9)
        s0 = np.random.default_rng(4).integers(0, 2, 12, dtype=np.uint8)
        result = search(landscape, s0, np.random.default_rng(3), trace=True)
        trace = result.trace
        genotypes = trace.genotypes()
        assert genotypes.shape == (len(trace), 12) and genotypes.dtype == np.uint8
        assert landscape.batch_totals(genotypes).tolist() == trace.totals.tolist()
        assert genotypes[0].tolist() == s0.tolist() == trace.s0.tolist()
        assert genotypes[-1].tolist() == result.terminal.tolist()
        assert trace.totals[-1] == result.fitness.total

    def test_loci_name_the_flipped_bit(self, rng):
        # Every searcher changes its state at every step but the start and a
        # netcrawler rejection. At q=2 scuba also makes flat moves.
        landscape = generate(12, 1, 2, RANDOM, seed=9)
        scuba_flat = 0
        for search in (hill_climb, netcrawler, hill_climb2, scuba):
            for seed in range(3):
                s0 = rng.integers(0, 2, 12, dtype=np.uint8)
                result = search(landscape, s0, np.random.default_rng(seed), trace=True)
                trace = result.trace
                genotypes = trace.genotypes()
                assert trace.loci[0] == -1
                for i in range(1, len(trace)):
                    changed = np.flatnonzero(genotypes[i] != genotypes[i - 1]).tolist()
                    assert changed == ([] if trace.loci[i] == -1 else [trace.loci[i]])
                    assert (trace.loci[i] == -1) == (trace.kinds[i] == REJECT), \
                        search.__name__
                if search is scuba:
                    scuba_flat += result.flat_count
        assert scuba_flat > 0

    def test_arrays_are_read_only(self, rng):
        landscape = generate(8, 1, 2, RANDOM, seed=5)
        trace = scuba(landscape, rng.integers(0, 2, 8, dtype=np.uint8),
                      np.random.default_rng(2), trace=True).trace
        for array in (trace.s0, trace.loci, trace.totals, trace.kinds, trace.degns):
            with pytest.raises(ValueError):
                array[0] = 0


class TestNetcrawler:
    def test_constant_accepts_everything(self):
        landscape = constant_landscape(8)
        result = netcrawler(landscape, np.zeros(8, dtype=np.uint8),
                            np.random.default_rng(1), 50, trace=True)
        assert result.fitness.total == landscape.total(np.zeros(8, dtype=np.uint8))
        assert result.flat_count == 50
        assert result.gate_count == 0
        assert (result.trace.kinds[1:] == NEUTRAL).all()

    def test_budget_and_accounting(self, rng):
        landscape = generate(16, 3, 3, RANDOM, seed=5)
        result = netcrawler(landscape, rng.integers(0, 2, 16, dtype=np.uint8),
                            np.random.default_rng(2), 300, trace=True)
        assert result.steps == 300
        assert result.evaluations == 300
        assert len(result.trace) == 301
        assert_trace_non_decreasing(result)

    def test_default_step_max_is_300(self, rng):
        landscape = generate(8, 1, 2, RANDOM, seed=5)
        result = netcrawler(landscape, rng.integers(0, 2, 8, dtype=np.uint8),
                            np.random.default_rng(2))
        assert result.evaluations == 300

    def test_rejects_deleterious(self, rng):
        landscape = generate(12, 2, 4, RANDOM, seed=9)
        result = netcrawler(landscape, rng.integers(0, 2, 12, dtype=np.uint8),
                            np.random.default_rng(3), 200, trace=True)
        trace = result.trace
        genotypes = trace.genotypes()
        for i in range(1, len(trace)):
            if trace.kinds[i] == REJECT:
                assert trace.totals[i] == trace.totals[i - 1]
                assert genotypes[i].tolist() == genotypes[i - 1].tolist()
            else:
                assert trace.totals[i] >= trace.totals[i - 1]

    def test_neutral_proposal_frequency_matches_degn(self):
        # frequency of neutral proposals from a fixed state ~ Degn/n
        landscape = generate(16, 1, 2, RANDOM, seed=12)
        rng = np.random.default_rng(99)
        s = rng.integers(0, 2, 16, dtype=np.uint8)
        total, flips = scan(landscape, s)
        d = int(np.count_nonzero(flips == total))
        proposals = rng.integers(0, 16, size=20000)
        freq = float((flips[proposals] == total).mean())
        p = d / 16
        sigma = np.sqrt(p * (1 - p) / 20000)
        assert abs(freq - p) <= 3 * sigma + 1e-12

    def test_step_max_validation(self):
        landscape = constant_landscape(4)
        with pytest.raises(ValueError):
            netcrawler(landscape, np.zeros(4, dtype=np.uint8),
                       np.random.default_rng(0), 0)
        with pytest.raises(ValueError, match="STEP_MAX_LIMIT"):
            netcrawler(landscape, np.zeros(4, dtype=np.uint8),
                       np.random.default_rng(0), STEP_MAX_LIMIT + 1)


class TestHillClimb2:
    def test_onemax_climbs_to_all_ones(self):
        n = 10
        landscape = onemax_landscape(n)
        result = hill_climb2(landscape, np.zeros(n, dtype=np.uint8),
                             np.random.default_rng(0))
        assert result.terminal.tolist() == [1] * n
        assert result.fitness.normalized == 1.0

    def test_terminal_is_v2_local_hence_v_local(self, rng):
        landscape = generate(12, 3, 3, RANDOM, seed=6)
        for seed in range(8):
            result = hill_climb2(landscape, rng.integers(0, 2, 12, dtype=np.uint8),
                                 np.random.default_rng(seed))
            terminal = tuple(result.terminal.tolist())
            total = oracles.naive_total(landscape, terminal)
            for m in oracles.extended_neighborhood(terminal):  # V2, hence V
                assert oracles.naive_total(landscape, m) <= total

    def test_per_step_scan_cost_window(self, rng):
        n = 12
        landscape = generate(n, 2, 2, RANDOM, seed=7)
        pair_cost = n * (n - 1) // 2
        for seed in range(6):
            result = hill_climb2(landscape, rng.integers(0, 2, n, dtype=np.uint8),
                                 np.random.default_rng(seed))
            per_step = result.evaluations / (result.steps + 1)
            assert pair_cost <= per_step <= pair_cost + n
            assert result.evaluations == (result.steps + 1) * (n + pair_cost)

    def test_beats_plain_hc_on_deceptive_plateau(self):
        # all-zero tables except a distance-2 peak: HC stalls, HC2 finds it
        n = 6
        tables = np.zeros((n, 2), dtype=np.int64)
        tables[0][1] = 1
        tables[1][1] = 1
        landscape = generate(n, 0, 2, RANDOM, seed=0)
        landscape = type(landscape)(n, 0, 2, RANDOM, np.empty((n, 0)), tables)
        s0 = np.zeros(n, dtype=np.uint8)
        hc2 = hill_climb2(landscape, s0, np.random.default_rng(1))
        assert hc2.fitness.total == 2


class TestScuba:
    def test_constant_no_moves(self):
        n = 8
        landscape = constant_landscape(n)
        s0 = np.zeros(n, dtype=np.uint8)
        result = scuba(landscape, s0, np.random.default_rng(0))
        assert result.terminal.tolist() == s0.tolist()
        assert result.flat_count == 0
        assert result.gate_count == 0
        # one guard evaluation at full neutrality: (1 + n) * n queries
        assert result.evaluations == (1 + n) * n

    def test_onemax_behaves_like_hc(self):
        n = 10
        landscape = onemax_landscape(n)
        result = scuba(landscape, np.zeros(n, dtype=np.uint8),
                       np.random.default_rng(0))
        assert result.fitness.normalized == 1.0
        assert result.flat_count == 0
        assert result.gate_count == n

    def test_invariants_on_random_runs(self, rng):
        landscape = generate(16, 2, 2, RANDOM, seed=8)
        for seed in range(8):
            result = scuba(landscape, rng.integers(0, 2, 16, dtype=np.uint8),
                           np.random.default_rng(seed), trace=True)
            assert result.steps == result.flat_count + result.gate_count
            assert is_v_local(landscape, result.terminal)
            assert_trace_non_decreasing(result)
            # flat moves keep the total and strictly increase evolvability
            trace = result.trace
            genotypes = trace.genotypes()
            for i in range(1, len(trace)):
                if trace.kinds[i] == NEUTRAL:
                    assert trace.totals[i] == trace.totals[i - 1]
                    assert (evolvability(landscape, genotypes[i])
                            > evolvability(landscape, genotypes[i - 1]))
                else:
                    assert trace.totals[i] > trace.totals[i - 1]

    def test_exact_guard_accounting(self, rng):
        # one guard evaluation per trace state, each costing (1 + Degn) * n
        landscape = generate(16, 1, 2, RANDOM, seed=9)
        degn = oracles.memo_degn(landscape)
        for seed in range(6):
            result = scuba(landscape, rng.integers(0, 2, 16, dtype=np.uint8),
                           np.random.default_rng(seed), trace=True)
            expected = sum(
                (1 + degn(tuple(genotype))) * 16
                for genotype in result.trace.genotypes().tolist()
            )
            assert result.evaluations == expected

    def test_terminals_are_brute_force_local_maxima(self):
        landscape = generate(8, 2, 2, RANDOM, seed=10)
        fm = oracles.fitness_map(landscape)
        local = oracles.v_local_set(fm)
        for s in oracles.all_genotypes(8):
            result = scuba(landscape, np.array(s, dtype=np.uint8),
                           np.random.default_rng(hash(s) & 0xFFFF))
            assert tuple(result.terminal.tolist()) in local

    def test_reproducible(self, rng):
        landscape = generate(20, 3, 2, RANDOM, seed=11)
        s0 = rng.integers(0, 2, 20, dtype=np.uint8)
        a = scuba(landscape, s0, np.random.default_rng(42))
        b = scuba(landscape, s0, np.random.default_rng(42))
        assert a.terminal.tolist() == b.terminal.tolist()
        assert (a.steps, a.flat_count, a.gate_count, a.evaluations) == \
               (b.steps, b.flat_count, b.gate_count, b.evaluations)


@pytest.mark.parametrize("heuristic, k, runs, bound",
                         [("ss", 2, 256, 1.5), ("ss", 16, 256, 1.25), ("hc", 16, 256, 1.25),
                          ("nc", 16, 256, 1.75), ("hc2", 16, 64, 4)])
def test_search_peak_is_bounded(heuristic, k, runs, bound):
    # n=64, q=2. Scuba's 256 runs read 5203 neutral neighbors in their
    # first round at K=2; in guard blocks the search peaks at 0.99 MiB, and
    # one block of them all peaks near 4.7. At K=16 the start-up scan of
    # all 256 runs takes the scan kernel's row blocks and peaks at 1.0 MiB
    # (4.7 in one block), which sets the peak of ss (1.05) and hc (1.02);
    # the flip's terms, in blocks too, peaked at 2.3 when scattered whole.
    # The netcrawler's 256 x 512 proposals take it to 1.51. Each K=16 bound
    # is its peak plus about 0.2 MiB. hc2's 64 runs are one chunk whose
    # distance-2 balls, built and moved in blocks, peak at 1.7 MiB, and
    # gathered whole at 10.3.
    landscape = generate(64, k, 2, seed=5)
    starts = np.random.default_rng(0).integers(0, 2, (runs, 64), dtype=np.uint8)
    # A first search builds the landscape's group and its lazy arrays.
    search(landscape, heuristic, starts[:1], [np.random.default_rng(0)])
    rngs = [np.random.default_rng(seed) for seed in range(runs)]
    gc.collect()
    tracemalloc.start()
    try:
        search(landscape, heuristic, starts, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2**20


@pytest.mark.slow
class TestVanishingNeutrality:
    def test_scuba_cost_approaches_hill_climbing(self):
        # with q large the plateaus vanish and scuba degenerates to climbing
        rng = np.random.default_rng(8)
        hc_evals, ss_evals = [], []
        for seed in range(20):
            landscape = generate(64, 0, 100, RANDOM, seed=seed)
            s0 = rng.integers(0, 2, 64, dtype=np.uint8)
            hc_evals.append(hill_climb(landscape, s0, np.random.default_rng(seed)).evaluations)
            ss_evals.append(scuba(landscape, s0, np.random.default_rng(seed)).evaluations)
        ratio = np.mean(ss_evals) / np.mean(hc_evals)
        assert 1.0 <= ratio < 4.0


@pytest.mark.parametrize("heuristic", ["hc", "nc", "hc2", "ss"])
@pytest.mark.parametrize("runs,streams", [(1, 0), (2, 1), (1, 2)])
def test_search_needs_one_stream_per_start(heuristic, runs, streams):
    # Each run draws from its own stream only, so a start without a stream,
    # or a stream without a start, is refused before any run starts.
    landscape = generate(6, 1, 2, RANDOM, seed=1)
    starts = [np.zeros(6, dtype=np.uint8)] * runs
    rngs = [np.random.default_rng(i) for i in range(streams)]
    with pytest.raises(ValueError, match=f"{runs} starts but {streams} rngs"):
        search(landscape, heuristic, starts, rngs)


@pytest.mark.parametrize("heuristic", ["hc", "nc", "hc2", "ss"])
def test_search_refuses_mixed_landscapes_and_stray_instances(heuristic):
    # search takes one landscape: a sequence of them, or instances to spread
    # runs over, is refused; zero runs give zero results.
    landscape = generate(6, 1, 2, RANDOM, seed=1)
    starts = [np.zeros(6, dtype=np.uint8)] * 2
    rngs = [np.random.default_rng(i) for i in range(2)]
    for landscapes in ([landscape, landscape], [landscape], []):
        with pytest.raises(LandscapeError, match="search takes one NkqLandscape, got list"):
            search(landscapes, heuristic, starts, rngs)
    with pytest.raises(TypeError, match="instances"):
        search(landscape, heuristic, starts, rngs, instances=[0, 0])
    assert search(landscape, heuristic, [], []) == []


@pytest.mark.parametrize("heuristic", ["hc", "nc", "hc2", "ss"])
@pytest.mark.parametrize("step_max", [0, STEP_MAX_LIMIT + 1, 300.0, True])
def test_search_checks_step_max_before_building_a_group(heuristic, step_max, monkeypatch):
    # search is the engine's checked door: every heuristic's step_max is
    # checked there, before a group is built or a run state made.
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(landscape_module, "_Group", refuse)
    landscape = generate(6, 1, 2, RANDOM, seed=1)
    with pytest.raises(ValueError, match="step_max must be"):
        search(landscape, heuristic, [np.zeros(6, dtype=np.uint8)],
               [np.random.default_rng(0)], step_max)


def test_search_refuses_hc2_pair_totals_before_building_a_group(monkeypatch):
    # At n = 11586, n*n passes MAX_TABLE_ENTRIES, so hc2 is refused before
    # its run state or a pair-gain array is made.
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(landscape_module, "_Group", refuse)
    landscape = generate(11586, 0, 2, "adjacent", seed=1)
    with pytest.raises(LandscapeError, match="MAX_TABLE_ENTRIES"):
        search(landscape, "hc2", [np.zeros(landscape.n, dtype=np.uint8)],
               [np.random.default_rng(0)])


@pytest.mark.parametrize("heuristic", ["hc", "nc", "hc2", "ss"])
def test_untraced_runs_do_no_trace_work(heuristic, monkeypatch):
    def refuse(*args):
        raise AssertionError("an untraced run logged a move")

    monkeypatch.setattr(_Runs, "_log", refuse)
    # Reading the kind of a move would index None.
    monkeypatch.setattr(heuristics, "_KIND_OF_SIGN", None)
    landscape = generate(16, 2, 2, RANDOM, seed=4)
    starts = [np.random.default_rng(i).integers(0, 2, 16, dtype=np.uint8) for i in range(5)]
    results = search(landscape, heuristic, starts,
                     [np.random.default_rng(i) for i in range(5)], 700)
    assert all(result.trace is None and result.steps for result in results)


class TestSharedLandscapeConcurrency:
    def test_threaded_runs_match_sequential(self, rng):
        # one immutable landscape, many runs with private rngs
        from concurrent.futures import ThreadPoolExecutor

        landscape = generate(24, 3, 2, RANDOM, seed=77)
        starts = [rng.integers(0, 2, 24, dtype=np.uint8) for _ in range(16)]
        sequential = [scuba(landscape, s, np.random.default_rng(i))
                      for i, s in enumerate(starts)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda pair: scuba(landscape, pair[1], np.random.default_rng(pair[0])),
                enumerate(starts)))
        for a, b in zip(sequential, threaded):
            assert a.terminal.tolist() == b.terminal.tolist()
            assert a.evaluations == b.evaluations
