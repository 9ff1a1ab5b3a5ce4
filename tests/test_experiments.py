import gc
import io
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import constant_landscape
from scubasearch import (
    PROFILE_HEADER,
    RECORDS_HEADER,
    STEP_STATS_HEADER,
    SWEEP_HEADER,
    LandscapeError,
    NkqLandscape,
    SweepConfig,
    SweepReport,
    derive_seed,
    experiments,
    generate,
    landscape_seed,
    neutral_degree_instance_means,
    neutral_degree_stats,
    neutral_mutation_profile,
    run_seed,
    run_sweep,
    scuba,
    search,
    step_stats,
    write_csv,
    write_profile_csv,
    write_records,
    write_step_stats_csv,
)
from scubasearch import heuristics as hx
from scubasearch import landscape as landscape_module
from scubasearch.heuristics import COUNT_LIMIT, HEURISTICS
from scubasearch.landscape import _table_dtype


def small_config(**overrides):
    params = dict(n=10, k_values=(0, 2), q_values=(2,), base_seed=77,
                  heuristics=("hc", "ss"), runs=4, instances=2)
    params.update(overrides)
    return SweepConfig(**params)


def track_landscapes(monkeypatch) -> list[int]:
    """Patch ``experiments.generate`` to record, as each landscape is made,
    how many of the landscapes it made are alive; returns those counts."""
    alive = []
    most_alive = []

    def tracked_generate(*args, **kwargs):
        landscape = generate(*args, **kwargs)
        gc.collect()
        alive.append(weakref.ref(landscape))
        most_alive.append(sum(ref() is not None for ref in alive))
        return landscape

    monkeypatch.setattr(experiments, "generate", tracked_generate)
    return most_alive


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

    @pytest.mark.parametrize("part", [1.7, 1.0, True, "1", None])
    def test_non_integer_part_rejected(self, part):
        # 1.7 used to mix as 1 and True as 1.
        with pytest.raises(ValueError, match="seed part must be an integer"):
            derive_seed(5, part)

    def test_numpy_integer_parts_accepted(self):
        assert derive_seed(np.int64(5), np.uint8(1)) == derive_seed(5, 1)

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

def run_object_bytes(n) -> int:
    """Bytes tracemalloc sees one run's Generator and start genotype take,
    made as ``_run_group`` makes them: the growth from 128 more runs, per
    run, so one-off allocations cancel."""
    seeds = [run_seed(1, 0, 2, "hc", 0, r) for r in range(192)]
    rngs, starts, traced = [None] * len(seeds), [None] * len(seeds), []
    tracemalloc.start()
    try:
        for r, seed in enumerate(seeds):
            rngs[r] = np.random.default_rng(seed)
            starts[r] = rngs[r].integers(0, 2, size=n, dtype=np.uint8)
            if r in (63, 191):
                traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return (traced[1] - traced[0]) // 128


def batch_bytes(landscapes, runs) -> int:
    """Bytes the arrays of ``landscapes`` and of a batch of ``runs`` runs on
    each of them hold, netcrawler proposals and each run's Generator and
    start genotype included; a group of one reads its table uncopied, so it
    counts twice, as a batch of several copies it; a view counts as the
    array it views, and an array held twice once."""
    group = landscape_module._Group(landscapes)
    state = hx._Runs(group, np.repeat(np.arange(len(landscapes)), runs),
                     np.zeros((len(landscapes) * runs, group.n), dtype=np.uint8), trace=False)
    arrays = {id(base): base for owner in (*landscapes, group, state)
              for value in vars(owner).values() if isinstance(value, np.ndarray)
              for base in [value if value.base is None else value.base]}
    copy = landscapes[0].tables.nbytes if len(landscapes) == 1 else 0
    return (copy + sum(a.nbytes for a in arrays.values())
            + len(landscapes) * runs * (8 * hx._PROPOSALS + run_object_bytes(group.n)))


def track_groups(monkeypatch) -> list[int]:
    """Patch ``_Group.__init__`` to record the number of landscapes of each
    group built; returns those numbers."""
    sizes = []
    init = landscape_module._Group.__init__

    def counted_init(group, landscapes):
        sizes.append(len(landscapes))
        init(group, landscapes)

    monkeypatch.setattr(landscape_module._Group, "__init__", counted_init)
    return sizes


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

    def test_groups_instances_under_the_bound_and_keeps_record_order(self, monkeypatch):
        config = small_config(k_values=(0, 2, 3), q_values=(2, 3), runs=5,
                              instances=2)
        # With the bound below one instance, each runs alone.
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_BATCH_BYTES", 1)
            most_alive = track_landscapes(patch)
            alone = run_sweep(config)
        assert most_alive == [1] * (3 * 2 * 2)
        # With the shipped bound, the instances of every q of one K share a
        # batch and hold at most the bound.
        most_alive = track_landscapes(monkeypatch)
        report = run_sweep(config)
        assert most_alive == [1, 2, 3, 4] * 3
        held = max(batch_bytes([generate(config.n, k, q, seed=1)], 3)
                   for k in config.k_values for q in config.q_values)
        assert max(most_alive) * held <= experiments._BATCH_BYTES
        assert [(r.heuristic, r.k, r.q, r.run) for r in report.records] == [
            (h, k, q, r) for h in config.heuristics for k in config.k_values
            for q in config.q_values for r in range(config.runs)
        ]
        assert [vars(r) for r in report.records] == [vars(r) for r in alone.records]

    @pytest.mark.parametrize("bound, sizes", [(None, [4] * 3), (1, [1] * 12)])
    def test_builds_one_group_per_instance_group(self, bound, sizes, monkeypatch):
        # Every heuristic of a K runs on the one group of the instances of
        # all its q values.
        config = small_config(k_values=(0, 2, 3), q_values=(2, 3), runs=5, instances=2,
                              heuristics=HEURISTICS)
        if bound is not None:
            monkeypatch.setattr(experiments, "_BATCH_BYTES", bound)
        built = track_groups(monkeypatch)
        run_sweep(config)
        assert built == sizes

    def test_groups_hold_one_table_dtype(self, monkeypatch):
        # q = 2 and 3 keep int8 tables and q = 300 int16 ones, so each K
        # runs in two groups, one per dtype, and every run gives the record
        # it gives alone.
        config = small_config(q_values=(2, 300, 3), runs=5, heuristics=HEURISTICS)
        dtypes = []
        init = landscape_module._Group.__init__

        def recorded_init(group, landscapes):
            dtypes.append([str(landscape.tables.dtype) for landscape in landscapes])
            init(group, landscapes)

        with monkeypatch.context() as patch:
            patch.setattr(landscape_module._Group, "__init__", recorded_init)
            report = run_sweep(config)
        assert dtypes == [["int8"] * 4, ["int16"] * 2] * 2
        monkeypatch.setattr(experiments, "_BATCH_BYTES", 1)
        assert [vars(r) for r in report.records] == [vars(r) for r in run_sweep(config).records]

    @pytest.mark.parametrize("runs, instances", [(1000, 1000), (1000, 8)])
    def test_batch_bound_counts_structure_and_run_state(self, runs, instances, monkeypatch):
        # A K=0 table holds 2n = 128 bytes, so 1000 tables, or 8, fit the
        # bound many times over; with their flip structures, by-locus rows
        # and ball keys, or with 125 runs' positions, deltas and proposals
        # each, they do not, and the batch splits.
        config = SweepConfig(n=64, k_values=(0,), q_values=(2,), base_seed=3,
                             heuristics=("hc",), runs=runs, instances=instances)
        made, alive = [], []

        def tracked_generate(*args, **kwargs):
            landscape = generate(*args, **kwargs)
            made.append(weakref.ref(landscape))
            alive.append(sum(ref() is not None for ref in made[-instances:]))
            return landscape

        monkeypatch.setattr(experiments, "generate", tracked_generate)
        run_sweep(config)
        assert len(made) == instances
        held = batch_bytes([generate(64, 0, 2, seed=1)], runs // instances)
        assert instances * 128 < experiments._BATCH_BYTES < instances * held
        assert 1 < max(alive) < instances
        assert max(alive) * held <= experiments._BATCH_BYTES

    def test_many_low_k_instances_share_large_groups(self, monkeypatch):
        # An n=64, K=0 instance holds about 12 KB with its run, so a thousand
        # of them run in six groups, and give the records they give alone.
        config = SweepConfig(n=64, k_values=(0,), q_values=(2,), base_seed=3,
                             heuristics=("hc", "nc"), runs=1000, instances=1000, step_max=20)
        with monkeypatch.context() as patch:
            built = track_groups(patch)
            report = run_sweep(config)
        assert sum(built) == 1000 and min(built[:-1]) >= 150
        monkeypatch.setattr(experiments, "_BATCH_BYTES", 1)
        assert [vars(r) for r in report.records] == [vars(r) for r in run_sweep(config).records]

    @pytest.mark.parametrize("heuristic", ["nc", "ss"])
    def test_traced_batch_peaks_near_what_it_keeps(self, heuristic):
        # One sweep-traced cell runs its 50 runs over 4 instances as one
        # batch. The log fills the trace arrays round by round and scuba's
        # guard reads its mutant deltas in blocks, so the batch's temporaries
        # stay within 0.6 MB (MiB) of the records it keeps.
        config = SweepConfig(n=64, k_values=(4,), q_values=(2,), base_seed=42,
                             heuristics=(heuristic,), runs=50, instances=4, keep_traces=True)
        run_sweep(config)  # first-call allocations are not the batch's
        gc.collect()
        tracemalloc.start()
        try:
            report = run_sweep(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.records) == 50
        assert peak - kept <= 0.6 * 2**20

    @pytest.mark.parametrize("n, k, q, mode, runs", [
        (2, 1, 2, "random", 1), (10, 0, 2, "random", 3), (10, 9, 2**40, "random", 1),
        (12, 3, 100, "adjacent", 7), (64, 4, 2, "random", 13), (64, 16, 100, "random", 5)])
    def test_instance_bytes_bound_the_arrays_of_a_batch(self, n, k, q, mode, runs):
        # Every instance of one (n, k) and table dtype holds arrays of the
        # same sizes, whatever its q, so one instance's measure bounds a
        # batch of any of them, to within the few bytes per run the run
        # state's count leaves over.
        config = SweepConfig(n=n, k_values=(k,), q_values=(q,), base_seed=1,
                             runs=runs, instances=1, mode=mode)
        mate = q - 1 if q > 2 else 3
        assert _table_dtype(mate) == _table_dtype(q)
        landscapes = [generate(n, k, value, mode, seed=seed)
                      for value, seed in ((q, 5), (mate, 6), (q, 7))]
        held = {experiments._held_bytes(config, landscape) for landscape in landscapes}
        assert len(held) == 1
        for batch in (landscapes[:1], landscapes):
            assert 0 <= len(batch) * min(held) - batch_bytes(batch, runs) <= 8 * len(batch) * runs

    def test_dispatch_rejects_unknown(self):
        landscape = generate(6, 1, 2, seed=1)
        with pytest.raises(ValueError):
            search(landscape, "sa", [np.zeros(6, dtype=np.uint8)],
                   [np.random.default_rng(0)], 300, False)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(k_values=(10,))
        with pytest.raises(ValueError):
            small_config(q_values=(1,))
        with pytest.raises(ValueError):
            small_config(heuristics=("hc", "annealing"))
        with pytest.raises(ValueError, match="repeat"):
            small_config(heuristics=("hc", "ss", "hc"))
        # A repeated k or q used to run its cells twice, doubling their runs.
        with pytest.raises(ValueError, match="k_values must not repeat"):
            small_config(k_values=(2, 0, 2))
        with pytest.raises(ValueError, match="q_values must not repeat"):
            small_config(q_values=(2, 3, 2))
        with pytest.raises(ValueError):
            small_config(runs=0)
        with pytest.raises(ValueError):
            small_config(base_seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("n", 10.0), ("runs", 2.5), ("runs", True), ("instances", 2.0),
        ("step_max", 300.0), ("base_seed", 0.5), ("base_seed", True),
        ("k_values", (2.5,)), ("q_values", (2.0,)),
    ])
    def test_config_refuses_non_integers(self, field, value):
        # base_seed=0.5 used to run as seed 0 and report 0.5; runs=2.5 died
        # with a bare TypeError once the sweep started.
        name = {"k_values": "k", "q_values": "q"}.get(field, field)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_config(**{field: value})

    def test_config_bounds_the_work(self):
        # Runs x heuristics x cells is bounded, not each count on its own:
        # two heuristics on two cells reach COUNT_LIMIT at a quarter of it.
        small_config(runs=COUNT_LIMIT // 4, instances=COUNT_LIMIT)
        with pytest.raises(ValueError, match="COUNT_LIMIT"):
            small_config(runs=COUNT_LIMIT // 4 + 1)
        with pytest.raises(ValueError, match="COUNT_LIMIT"):
            small_config(k_values=(0, 2, 4), runs=COUNT_LIMIT // 4)
        with pytest.raises(ValueError, match="COUNT_LIMIT"):
            small_config(instances=COUNT_LIMIT + 1)

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
        assert oracles.memo_degn(landscape)((0,) * 16) == 16

    def test_instance_means_shape_and_determinism(self):
        a = neutral_degree_instance_means(12, 2, 3, samples=50, instances=4, seed=9)
        b = neutral_degree_instance_means(12, 2, 3, samples=50, instances=4, seed=9)
        assert a.shape == (4,)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            neutral_degree_instance_means(8, 0, 2, samples=0)
        with pytest.raises(ValueError, match="samples must be an integer"):
            neutral_degree_instance_means(8, 0, 2, samples=50.0)
        # seed=0.9 used to run as seed 0.
        with pytest.raises(ValueError, match="seed part must be an integer"):
            neutral_degree_instance_means(8, 0, 2, samples=50, instances=1, seed=0.9)
        with pytest.raises(ValueError, match="COUNT_LIMIT"):
            neutral_degree_instance_means(8, 0, 2, samples=1024, instances=COUNT_LIMIT // 1024 + 1)
        # Checked before the sample chunk is sized: these used to raise
        # ZeroDivisionError and TypeError.
        for n, k, q in ((0, 0, 2), (5, -1, 2), ("8", 0, 2)):
            with pytest.raises(LandscapeError):
                neutral_degree_instance_means(n, k, q, samples=10, instances=1)

    def test_holds_one_landscape(self, monkeypatch):
        most_alive = track_landscapes(monkeypatch)
        neutral_degree_instance_means(12, 2, 3, samples=50, instances=4, seed=9)
        assert most_alive == [1, 1, 1, 1]


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
        monkeypatch.setattr(NkqLandscape, "_row_deltas", refuse)
        assert neutral_mutation_profile(report)
        # One landscape per (cell, instance), built by the sweep alone.
        assert len(calls) == 2 * 2 * 3

    def test_trace_holds_no_per_step_arrays(self):
        landscape = generate(64, 2, 2, seed=3)
        for heuristic, seed in (("nc", 1), ("ss", 2)):
            rng = np.random.default_rng(seed)
            s0 = rng.integers(0, 2, size=landscape.n, dtype=np.uint8)
            result, = search(landscape, heuristic, [s0], [rng], 300, trace=True)
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
        assert [(r.heuristic, r.k, r.q) for r in rows] == [("ss", 0, 2), ("ss", 2, 2)]
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
