import gc
import io
import weakref

import numpy as np
import pytest

from conftest import constant_landscape
from scubasearch import (
    PROFILE_HEADER,
    RECORDS_HEADER,
    STEP_STATS_HEADER,
    SWEEP_HEADER,
    NkqLandscape,
    SweepConfig,
    SweepReport,
    derive_seed,
    experiments,
    generate,
    landscape_seed,
    neutral_degree,
    neutral_degree_instance_means,
    neutral_degree_stats,
    neutral_mutation_profile,
    run_heuristic,
    run_seed,
    run_sweep,
    scuba,
    step_stats,
    write_csv,
    write_profile_csv,
    write_records,
    write_step_stats_csv,
)


def small_config(**overrides):
    params = dict(n=10, k_values=(0, 2), q_values=(2,), base_seed=77,
                  heuristics=("hc", "ss"), runs=4, instances=2)
    params.update(overrides)
    return SweepConfig(**params)


class TestSeedDerivation:
    def test_repeatable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_any_index_changes_stream(self):
        base = (5, 0, 2, 1, 3, 7)
        reference = derive_seed(*base)
        for position in range(len(base)):
            changed = list(base)
            changed[position] += 1
            assert derive_seed(*changed) != reference

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -2)

    def test_landscape_seed_is_heuristic_agnostic(self):
        report = run_sweep(small_config())
        by_heuristic = {}
        for rec in report.records:
            by_heuristic.setdefault((rec.k, rec.q, rec.instance), set()).add(
                rec.landscape_seed)
        for seeds in by_heuristic.values():
            assert len(seeds) == 1

    def test_run_seeds_differ_per_heuristic(self):
        assert run_seed(1, 0, 2, "hc", 0, 0) != run_seed(1, 0, 2, "ss", 0, 0)


class TestRunSweep:
    def test_record_counts_and_instance_assignment(self):
        config = small_config()
        report = run_sweep(config)
        assert len(report.records) == 2 * 2 * 1 * 4  # heuristics x k x q x runs
        for rec in report.records:
            assert rec.instance == rec.run % config.instances

    def test_single_cell_single_run_matches_raw(self):
        config = SweepConfig(n=8, k_values=(2,), q_values=(3,), base_seed=5,
                             heuristics=("ss",), runs=1, instances=1)
        report = run_sweep(config)
        assert len(report.records) == 1
        rec = report.records[0]

        landscape = generate(8, 2, 3, seed=landscape_seed(5, 2, 3, 0))
        rng = np.random.default_rng(run_seed(5, 2, 3, "ss", 0, 0))
        s0 = rng.integers(0, 2, 8, dtype=np.uint8)
        raw = scuba(landscape, s0, rng)
        assert rec.fitness_total == raw.fitness.total
        assert rec.evaluations == raw.evaluations
        assert rec.steps == raw.steps

        cell = report.cells()[0]
        assert cell.runs == 1
        assert cell.mean_fitness == raw.fitness.normalized
        assert cell.std_fitness == 0.0
        assert cell.mean_evals == raw.evaluations

    def test_reproducible(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        for x, y in zip(a.records, b.records):
            assert (x.fitness_total, x.evaluations, x.run_seed) == \
                   (y.fitness_total, y.evaluations, y.run_seed)

    def test_holds_one_cell_of_landscapes_and_keeps_record_order(self, monkeypatch):
        alive = []
        most_alive = []

        def tracked_generate(*args, **kwargs):
            landscape = generate(*args, **kwargs)
            gc.collect()
            alive.append(weakref.ref(landscape))
            most_alive.append(sum(ref() is not None for ref in alive))
            return landscape

        monkeypatch.setattr(experiments, "generate", tracked_generate)
        config = small_config(k_values=(0, 2, 3), q_values=(2, 3), runs=5,
                              instances=2)
        report = run_sweep(config)
        assert len(alive) == 3 * 2 * 2
        assert max(most_alive) == config.instances
        assert [(r.heuristic, r.k, r.q, r.run) for r in report.records] == [
            (h, k, q, r) for h in config.heuristics for k in config.k_values
            for q in config.q_values for r in range(config.runs)
        ]

    def test_dispatch_rejects_unknown(self):
        landscape = generate(6, 1, 2, seed=1)
        with pytest.raises(ValueError):
            run_heuristic(landscape, "sa", np.random.default_rng(0), 300, False)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(k_values=(10,))
        with pytest.raises(ValueError):
            small_config(q_values=(1,))
        with pytest.raises(ValueError):
            small_config(heuristics=("hc", "annealing"))
        with pytest.raises(ValueError, match="repeat"):
            small_config(heuristics=("hc", "ss", "hc"))
        with pytest.raises(ValueError):
            small_config(runs=0)
        with pytest.raises(ValueError):
            small_config(base_seed=-1)

    def test_config_rejects_oversized_tables(self):
        with pytest.raises(ValueError, match="table entries"):
            small_config(n=64, k_values=(2, 30))


class TestCsvOutput:
    def test_header_and_determinism(self):
        report = run_sweep(small_config())
        a, b = io.StringIO(), io.StringIO()
        write_csv(report, a)
        write_csv(run_sweep(small_config()), b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 4  # one row per cell
        # normalized fitness printed with 6 decimals
        assert lines[1].split(",")[5].count(".") == 1
        assert len(lines[1].split(",")[5].split(".")[1]) == 6

    def test_empty_report_is_header_only(self):
        report = SweepReport(small_config())
        buf = io.StringIO()
        write_csv(report, buf)
        assert buf.getvalue() == SWEEP_HEADER + "\n"

    def test_rows_in_cell_order(self):
        report = run_sweep(small_config())
        buf = io.StringIO()
        write_csv(report, buf)
        rows = [line.split(",")[:3] for line in buf.getvalue().splitlines()[1:]]
        assert rows == [["hc", "10", "0"], ["hc", "10", "2"],
                        ["ss", "10", "0"], ["ss", "10", "2"]]

    def test_records_csv(self, tmp_path):
        report = run_sweep(small_config())
        dest = tmp_path / "records.csv"
        write_records(report, dest)
        lines = dest.read_text().splitlines()
        assert lines[0] == RECORDS_HEADER
        assert len(lines) == 1 + len(report.records)


class TestNeutralDegreeStats:
    def test_k0_analytic_small(self):
        # K=0: each locus is neutral with probability 1/q -> mean n/q
        mean = neutral_degree_stats(32, 0, 2, samples=200, instances=60, seed=3)
        assert abs(mean - 16.0) < 1.0

    def test_constant_tables_give_full_degree(self):
        landscape = constant_landscape(16)
        assert neutral_degree(landscape, np.zeros(16, dtype=np.uint8)) == 16

    def test_instance_means_shape_and_determinism(self):
        a = neutral_degree_instance_means(12, 2, 3, samples=50, instances=4, seed=9)
        b = neutral_degree_instance_means(12, 2, 3, samples=50, instances=4, seed=9)
        assert a.shape == (4,)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            neutral_degree_instance_means(8, 0, 2, samples=0)


class TestNeutralMutationProfile:
    def test_requires_traces(self):
        report = run_sweep(small_config(heuristics=("ss",)))
        with pytest.raises(ValueError, match="traces"):
            neutral_mutation_profile(report)

    def test_netcrawler_matches_degn_over_n(self):
        config = SweepConfig(n=16, k_values=(1,), q_values=(2,), base_seed=11,
                             heuristics=("nc",), runs=60, instances=3,
                             step_max=300, keep_traces=True)
        rows = neutral_mutation_profile(run_sweep(config))
        checked = 0
        for row in rows:
            assert row.heuristic == "nc"
            if row.steps >= 300:
                p = row.degn / 16
                sigma = np.sqrt(p * (1 - p) / row.steps)
                assert abs(row.p_neutral_step - p) <= 4 * sigma + 1e-12
                checked += 1
        assert checked >= 3

    def test_scuba_rows_per_state_equals_per_step(self):
        config = SweepConfig(n=16, k_values=(2,), q_values=(2,), base_seed=13,
                             heuristics=("ss",), runs=30, instances=3,
                             keep_traces=True)
        rows = neutral_mutation_profile(run_sweep(config))
        assert rows, "scuba runs should produce profile rows"
        for row in rows:
            # every scuba step leaves its state, so the two statistics agree
            assert row.steps == row.visits
            assert row.p_neutral_step == row.p_neutral_state

    def test_profile_neither_regenerates_nor_rescans(self, monkeypatch):
        calls = []
        original = NkqLandscape.generate.__func__

        def counting_generate(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(NkqLandscape, "generate", classmethod(counting_generate))
        config = SweepConfig(n=12, k_values=(0, 2), q_values=(2, 3), base_seed=8,
                             heuristics=("nc", "ss"), runs=5, instances=3,
                             step_max=80, keep_traces=True)
        report = run_sweep(config)

        def refuse(*args, **kwargs):
            raise AssertionError("the profile scanned a landscape")

        monkeypatch.setattr(NkqLandscape, "batch_scan", refuse)
        monkeypatch.setattr(NkqLandscape, "scores", refuse)
        assert neutral_mutation_profile(report)
        # One landscape per (cell, instance), built by the sweep alone.
        assert len(calls) == 2 * 2 * 3

    def test_trace_holds_no_per_step_arrays(self):
        landscape = generate(64, 2, 2, seed=3)
        for result in (
            run_heuristic(landscape, "nc", np.random.default_rng(1), 300, trace=True),
            run_heuristic(landscape, "ss", np.random.default_rng(2), 300, trace=True),
        ):
            trace = result.trace
            arrays = [value for value in vars(trace).values()
                      if isinstance(value, np.ndarray)]
            assert all(isinstance(value, (np.ndarray, int)) for value in vars(trace).values())
            assert len(arrays) == 5  # s0 and one array per field
            assert sum(a.nbytes for a in arrays) <= 64 + 24 * len(trace)

    def test_profile_csv(self):
        config = SweepConfig(n=12, k_values=(1,), q_values=(2,), base_seed=3,
                             heuristics=("nc",), runs=5, instances=1,
                             step_max=50, keep_traces=True)
        rows = neutral_mutation_profile(run_sweep(config))
        buf = io.StringIO()
        write_profile_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == PROFILE_HEADER
        assert len(lines) == 1 + len(rows)


@pytest.mark.slow
class TestProfileOrdering:
    def test_scuba_above_netcrawler_pointwise(self):
        # neutral-move probability at fixed degn: scuba >= netcrawler (q=3, n=64)
        config = SweepConfig(n=64, k_values=(4,), q_values=(3,), base_seed=2025,
                             heuristics=("nc", "ss"), runs=120, instances=10,
                             step_max=300, keep_traces=True)
        rows = neutral_mutation_profile(run_sweep(config))
        nc = {r.degn: r for r in rows if r.heuristic == "nc"}
        ss = {r.degn: r for r in rows if r.heuristic == "ss"}
        comparable = [d for d in ss if d in nc
                      and ss[d].steps >= 100 and nc[d].steps >= 100 and d > 0]
        assert len(comparable) >= 5
        for d in comparable:
            assert ss[d].p_neutral_step >= nc[d].p_neutral_step


class TestStepStats:
    def test_groups_scuba_by_cell(self):
        config = small_config(heuristics=("hc", "ss"), k_values=(0, 2))
        report = run_sweep(config)
        rows = step_stats(report)
        assert [(r.k, r.q) for r in rows] == [(0, 2), (2, 2)]
        groups = report.records_by_cell()
        for row in rows:
            recs = groups[("ss", row.k, row.q)]
            assert row.runs == len(recs)
            assert row.mean_steps == pytest.approx(np.mean([r.steps for r in recs]))
            assert row.mean_flat == pytest.approx(np.mean([r.flat for r in recs]))

    def test_step_stats_csv(self):
        report = run_sweep(small_config())
        buf = io.StringIO()
        write_step_stats_csv(step_stats(report), buf)
        assert buf.getvalue().splitlines()[0] == STEP_STATS_HEADER
