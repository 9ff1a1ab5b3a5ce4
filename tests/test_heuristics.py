import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from scubasearch import (
    RANDOM,
    EvalCounter,
    evol,
    generate,
    hill_climb,
    hill_climb2,
    is_local,
    netcrawler,
    neutral_degree,
    scuba,
)
from scubasearch.heuristics import MOVE_NEUTRAL, MOVE_REJECT


def assert_trace_non_decreasing(result):
    totals = [step.fitness.total for step in result.trace]
    assert all(a <= b for a, b in zip(totals, totals[1:]))


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
            assert is_local(landscape, result.terminal, "f", "V")
            assert result.evaluations == 16 * (result.steps + 1)
            assert result.gate_count == result.steps
            assert result.flat_count == 0
            assert_trace_non_decreasing(result)
            totals = [step.fitness.total for step in result.trace]
            assert all(a < b for a, b in zip(totals, totals[1:]))


class TestTrace:
    @pytest.mark.parametrize("search", [hill_climb, hill_climb2, scuba, netcrawler])
    def test_read_paths_agree(self, search):
        landscape = generate(12, 2, 4, RANDOM, seed=9)
        s0 = np.random.default_rng(4).integers(0, 2, 12, dtype=np.uint8)
        result = search(landscape, s0, np.random.default_rng(3), trace=True)
        trace = result.trace
        steps = list(trace)
        assert len(steps) == len(trace) == len(trace.genotypes())
        assert steps[0].genotype.tolist() == s0.tolist()
        assert steps[-1].genotype.tolist() == result.terminal.tolist()
        assert steps[-1].fitness == result.fitness
        for i, step in enumerate(steps):
            for other in (trace[i], trace[i - len(trace)]):
                assert other.genotype.tolist() == step.genotype.tolist()
                assert other.fitness == step.fitness
                assert other.fitness.normalized == step.fitness.normalized
                assert other.kind == step.kind
            assert landscape.total(step.genotype) == step.fitness.total
        for part in (slice(1, None), slice(None, -1), slice(2, 9, 3), slice(None, None, -1)):
            assert [(s.genotype.tolist(), s.fitness.total, s.kind) for s in trace[part]] \
                == [(s.genotype.tolist(), s.fitness.total, s.kind) for s in steps[part]]
        with pytest.raises(IndexError):
            trace[len(trace)]

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
                    assert (trace.loci[i] == -1) == (trace[i].kind == MOVE_REJECT), \
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
        kinds = [step.kind for step in result.trace[1:]]
        assert all(kind == MOVE_NEUTRAL for kind in kinds)

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
        previous = result.trace[0]
        for step in result.trace[1:]:
            if step.kind == MOVE_REJECT:
                assert step.fitness.total == previous.fitness.total
                assert step.genotype.tolist() == previous.genotype.tolist()
            else:
                assert step.fitness.total >= previous.fitness.total
            previous = step

    def test_neutral_proposal_frequency_matches_degn(self):
        # frequency of neutral proposals from a fixed state ~ Degn/n
        landscape = generate(16, 1, 2, RANDOM, seed=12)
        rng = np.random.default_rng(99)
        s = rng.integers(0, 2, 16, dtype=np.uint8)
        d = neutral_degree(landscape, s)
        totals, flips = landscape.batch_scan(s[None, :])
        total, flips = totals[0], flips[0]
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
            assert is_local(landscape, result.terminal, "f", "V2")
            assert is_local(landscape, result.terminal, "f", "V")

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
            assert is_local(landscape, result.terminal, "f", "V")
            assert_trace_non_decreasing(result)
            # flat moves keep the total and strictly increase evolvability
            previous = result.trace[0]
            for step in result.trace[1:]:
                if step.kind == MOVE_NEUTRAL:
                    assert step.fitness.total == previous.fitness.total
                    assert (evol(landscape, step.genotype).total
                            > evol(landscape, previous.genotype).total)
                else:
                    assert step.fitness.total > previous.fitness.total
                previous = step

    def test_exact_guard_accounting(self, rng):
        # one guard evaluation per trace state, each costing (1 + Degn) * n
        landscape = generate(16, 1, 2, RANDOM, seed=9)
        for seed in range(6):
            result = scuba(landscape, rng.integers(0, 2, 16, dtype=np.uint8),
                           np.random.default_rng(seed), trace=True)
            expected = sum(
                (1 + neutral_degree(landscape, step.genotype)) * 16
                for step in result.trace
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


class TestSharedLandscapeConcurrency:
    def test_threaded_runs_match_sequential(self, rng):
        # one immutable landscape, many runs with private rng/counters
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


class TestCountersShared:
    def test_external_counter_accumulates(self, rng):
        landscape = generate(10, 1, 2, RANDOM, seed=16)
        counter = EvalCounter()
        r1 = hill_climb(landscape, rng.integers(0, 2, 10, dtype=np.uint8),
                        np.random.default_rng(0), counter)
        after_first = counter.count
        r2 = hill_climb(landscape, rng.integers(0, 2, 10, dtype=np.uint8),
                        np.random.default_rng(1), counter)
        assert r1.evaluations == after_first
        assert r2.evaluations == counter.count
        assert counter.count > after_first
