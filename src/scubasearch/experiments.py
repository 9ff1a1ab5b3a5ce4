"""Seeded sweep harness and statistics over (K, q, heuristic) grids.

Every run in a sweep is reproducible in isolation: the landscape of
instance ``i`` in cell ``(k, q)`` and the RNG stream of run ``r`` are both
derived from the sweep's base seed with :func:`derive_seed`, so repeating a
configuration reproduces every output byte. All heuristics of a cell share
the same ``instances`` landscapes; run streams are heuristic-specific.
Results aggregate into per-cell means (fitness, evaluations, step counters)
plus the neutral-move statistics used for profile and step-count curves.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import Optional

import numpy as np

from . import heuristics as hx
from .landscape import RANDOM, _Group, _table_dtype, check_params, check_seed, generate

_LANDSCAPE_STREAM = 101
_RUN_STREAM = 102
_SAMPLE_STREAM = 103

# Bytes the instances of one lockstep batch may hold, with their runs' state
# (_run_k): on the paper grid the instances of all q values of one K <= 8
# share a batch, and a K=12 or K=16 one runs alone. Larger batches saved no
# CPU there, and the heap a batch leaves behind can stay resident: at 2**22
# (K=12 in threes) sweep-grid's peak RSS rose by up to 4 MB for some output
# paths.
_BATCH_BYTES = 2**21
# Bytes tracemalloc sees one run's Generator (with its PCG64 and SeedSequence)
# and its start genotype's array header take as _run_group makes them, on
# numpy 2.4: 824 and 112; the start's n bytes of data are counted apart.
_RUN_OBJECT_BYTES = 824 + 112

SWEEP_HEADER = (
    "heuristic,n,k,q,runs,mean_fitness,std_fitness,"
    "mean_evals,mean_steps,mean_flat,mean_gate"
)
RECORDS_HEADER = (
    "heuristic,n,k,q,instance,run,landscape_seed,run_seed,"
    "fitness_total,steps,flat,gate,evaluations"
)
PROFILE_HEADER = "heuristic,degn,steps,p_neutral_step,visits,p_neutral_state"
STEP_STATS_HEADER = "k,q,runs,mean_steps,mean_flat"


def derive_seed(*parts: int) -> int:
    """Stable 64-bit mix of non-negative integer parts.

    Changing any part changes the stream; repeating the tuple reproduces it.
    A part that is not a non-negative integer raises ``ValueError``.
    """
    for p in parts:
        check_seed(p, "seed part")
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def landscape_seed(base_seed: int, k: int, q: int, instance: int) -> int:
    """Seed of instance ``instance`` of cell ``(k, q)``; heuristic-agnostic."""
    return derive_seed(base_seed, _LANDSCAPE_STREAM, k, q, instance)


def run_seed(base_seed: int, k: int, q: int, heuristic: str, instance: int,
             run: int) -> int:
    """Seed of one run's RNG stream (initial genotype and tie-breaks)."""
    # A heuristic's id in the seed is its position in HEURISTICS plus one,
    # so reordering HEURISTICS would change every run stream.
    return derive_seed(base_seed, _RUN_STREAM, k, q,
                       hx.HEURISTICS.index(heuristic) + 1, instance, run)


def check_grid(n, k_values, q_values, mode=RANDOM) -> None:
    """Raise ``ValueError`` unless ``k_values`` and ``q_values`` are non-empty,
    every (k, q) pair passes :func:`~.landscape.check_params` and no value
    repeats, so no cell is run or written twice."""
    if not k_values or not q_values:
        raise ValueError("k_values and q_values must be non-empty")
    for k in k_values:
        for q in q_values:
            check_params(n, k, q, mode)
    for name, values in (("k_values", k_values), ("q_values", q_values)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat")


@dataclass
class SweepConfig:
    """Grid description: which cells to run and with what budgets.

    ``runs`` runs per cell are spread round-robin over ``instances``
    landscapes (run ``r`` uses instance ``r % instances``). ``keep_traces``
    keeps each run's compact :class:`~.heuristics.Trace` on its record, which
    the neutral-mutation profile needs.
    """

    n: int
    k_values: tuple[int, ...]
    q_values: tuple[int, ...]
    base_seed: int
    heuristics: tuple[str, ...] = hx.HEURISTICS
    runs: int = 100
    instances: int = 10
    step_max: int = 300
    mode: str = RANDOM
    keep_traces: bool = False

    def __post_init__(self):
        self.k_values = tuple(self.k_values)
        self.q_values = tuple(self.q_values)
        self.heuristics = tuple(self.heuristics)
        # Checked before the conversion, so a float k or q is refused, not truncated.
        check_grid(self.n, self.k_values, self.q_values, self.mode)
        self.k_values = tuple(map(int, self.k_values))
        self.q_values = tuple(map(int, self.q_values))
        for h in self.heuristics:
            if h not in hx.HEURISTICS:
                raise ValueError(f"unknown heuristic {h!r}")
        if len(set(self.heuristics)) != len(self.heuristics):
            raise ValueError("heuristics must not repeat")
        if "hc2" in self.heuristics:
            hx.check_pair_totals(self.n)
        hx.check_counts({"runs": self.runs, "heuristics": len(self.heuristics)},
                        len(self.k_values) * len(self.q_values))
        hx.check_counts({"instances": self.instances})
        hx.check_step_max(self.step_max)
        check_seed(self.base_seed, "base_seed")


@dataclass
class RunRecord:
    """Raw outcome of one run, sufficient to reproduce or re-analyze it."""

    heuristic: str
    k: int
    q: int
    instance: int
    run: int
    landscape_seed: int
    run_seed: int
    fitness_total: int
    fitness_norm: float
    steps: int
    flat: int
    gate: int
    evaluations: int
    trace: Optional[hx.Trace] = None


@dataclass
class CellStats:
    heuristic: str
    k: int
    q: int
    runs: int
    mean_fitness: float
    std_fitness: float
    mean_evals: float
    mean_steps: float
    mean_flat: float
    mean_gate: float


@dataclass
class SweepReport:
    """All per-run records of a sweep, aggregable per cell in config order."""

    config: SweepConfig
    records: list[RunRecord] = field(default_factory=list)

    def records_by_cell(self) -> dict[tuple[str, int, int], list[RunRecord]]:
        """Records grouped by (heuristic, k, q) in one pass, each group in
        record order."""
        groups: dict[tuple[str, int, int], list[RunRecord]] = defaultdict(list)
        for r in self.records:
            groups[(r.heuristic, r.k, r.q)].append(r)
        return dict(groups)

    def cells(self) -> list[CellStats]:
        """Per-cell statistics, ordered by (heuristic, k, q) config index."""
        groups = self.records_by_cell()
        out = []
        for h in self.config.heuristics:
            for k in self.config.k_values:
                for q in self.config.q_values:
                    recs = groups.get((h, k, q))
                    if not recs:
                        continue
                    norm = np.array([r.fitness_norm for r in recs])
                    out.append(CellStats(
                        heuristic=h, k=k, q=q, runs=len(recs),
                        mean_fitness=float(norm.mean()),
                        std_fitness=float(norm.std()),
                        mean_evals=float(np.mean([r.evaluations for r in recs])),
                        mean_steps=float(np.mean([r.steps for r in recs])),
                        mean_flat=float(np.mean([r.flat for r in recs])),
                        mean_gate=float(np.mean([r.gate for r in recs])),
                    ))
        return out


def _held_bytes(config: SweepConfig, landscape) -> int:
    """Bytes an instance holds in a batch of several, the same for every
    instance of ``landscape``'s (n, k) and table dtype: its arrays, the
    batch's copy of its table and what the batch stacks for it, and its
    runs' positions, deltas, starts, counters and proposals, and each run's
    Generator and start genotype."""
    arrays = [*vars(landscape).values(), *_Group._instance_arrays(landscape)]
    runs = -(-config.runs // config.instances)
    return (sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None)
            + landscape.tables.nbytes
            + runs * (18 * config.n + 48 + 8 * hx._PROPOSALS + _RUN_OBJECT_BYTES))


def _run_k(config: SweepConfig, k: int) -> dict[tuple[int, str], list[RunRecord]]:
    """Every heuristic's runs on the cells of K ``k``, keyed by (q,
    heuristic). The instances of all q values run in groups of as many as
    fit in :data:`_BATCH_BYTES`, at least one. A group holds one table
    dtype, so the q values of each dtype form one chain of groups, whose
    instances, with arrays of one set of sizes, each count
    :func:`_held_bytes` of its first. A group's landscapes and their one
    :class:`~.landscape._Group` serve a batch per heuristic and are dropped
    before the next group's landscapes are generated. Records are filled by
    (q, heuristic, run) index, so their order does not depend on the
    grouping."""
    out = {(q, h): [None] * config.runs for q in config.q_values for h in config.heuristics}
    instances = min(config.instances, config.runs)
    by_dtype = sorted(config.q_values, key=lambda q: _table_dtype(q).itemsize)
    for _, chain in groupby(by_dtype, _table_dtype):
        cells = [(q, i) for q in chain for i in range(instances)]
        made = (generate(config.n, k, q, config.mode,
                         seed=landscape_seed(config.base_seed, k, q, i)) for q, i in cells)
        landscapes = [next(made)]
        size = max(1, _BATCH_BYTES // _held_bytes(config, landscapes[0]))
        for low in range(0, len(cells), size):
            landscapes += islice(made, size - len(landscapes))
            _run_group(config, k, cells[low:low + size], landscapes, out)
            landscapes = []
    return out


def _run_group(config: SweepConfig, k: int, cells, landscapes, out) -> None:
    """Run each heuristic's runs on ``landscapes``, the instances of K ``k``
    named by the (q, instance) pairs ``cells``, as one lockstep batch, and
    put their records into ``out`` (:func:`_run_k`)."""
    batch = _Group(landscapes)
    runs = [(i, q, inst, r) for i, (q, inst) in enumerate(cells)
            for r in range(inst, config.runs, config.instances)]
    at = np.array([i for i, *_ in runs], dtype=np.intp)
    for h in config.heuristics:
        seeds = [run_seed(config.base_seed, k, q, h, inst, r) for _, q, inst, r in runs]
        rngs = [np.random.default_rng(rs) for rs in seeds]
        starts = np.array([rng.integers(0, 2, size=config.n, dtype=np.uint8) for rng in rngs])
        results = hx._search(batch, h, at, starts, rngs, config.step_max, config.keep_traces)
        for (i, q, inst, r), rs, result in zip(runs, seeds, results):
            out[(q, h)][r] = RunRecord(
                heuristic=h, k=k, q=q, instance=inst, run=r,
                landscape_seed=landscapes[i].seed, run_seed=rs,
                fitness_total=result.fitness.total,
                fitness_norm=result.fitness.normalized,
                steps=result.steps, flat=result.flat_count,
                gate=result.gate_count, evaluations=result.evaluations,
                trace=result.trace,
            )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run every cell of the grid; uniform-random initial genotypes per run.

    K values run in order, the instances of all q values of one K in groups,
    each group as one lockstep batch per heuristic (:func:`_run_k`); the
    records aggregate in config order (heuristic, k, q, run). Every run has
    its own seed and reads only its own landscape, so the report and the
    files written from it never depend on the grouping or on scheduling.
    """
    by_k = {k: _run_k(config, k) for k in config.k_values}
    report = SweepReport(config)
    for h in config.heuristics:
        for k in config.k_values:
            for q in config.q_values:
                report.records.extend(by_k[k][(q, h)])
    return report


# -- neutral degree sampling (Table-style statistics) ------------------------

def neutral_degree_instance_means(n, k, q, samples=1000, instances=10, seed=0,
                                  mode=RANDOM) -> np.ndarray:
    """Mean neutral degree of uniform-random genotypes, one value per instance."""
    check_params(n, k, q, mode)
    hx.check_counts({"samples": samples, "instances": instances})
    means = np.empty(instances)
    # Rows drawn per rng call. batch_scan bounds its own temporaries, so
    # this bounds only the draw; it stays as it is because a uint8 draw
    # drops its buffered bytes at the end of each call, so another chunk
    # would move the stream whenever n is not a multiple of 4.
    chunk = max(1, 4_000_000 // (n * (k + 1)))
    for inst in range(instances):
        landscape = generate(n, k, q, mode,
                             seed=landscape_seed(seed, k, q, inst))
        rng = np.random.default_rng(derive_seed(seed, _SAMPLE_STREAM, k, q, inst))
        acc = 0
        for done in range(0, samples, chunk):
            states = rng.integers(0, 2, size=(min(chunk, samples - done), n), dtype=np.uint8)
            totals, flips = landscape.batch_scan(states)
            acc += int((flips == totals[:, None]).sum())
        means[inst] = acc / samples
        # Drop this instance's landscape before the next one is generated.
        del landscape
    return means


def neutral_degree_stats(n, k, q, samples=1000, instances=10, seed=0,
                         mode=RANDOM) -> float:
    """Mean neutral degree over ``instances`` x ``samples`` random genotypes."""
    return float(neutral_degree_instance_means(
        n, k, q, samples, instances, seed, mode).mean())


# -- neutral-mutation profile and step-count curves ---------------------------

@dataclass
class ProfileRow:
    """Neutral-move probability of one heuristic at one neutral degree.

    ``p_neutral_step`` conditions on steps (for the netcrawler: proposals)
    leaving states of degree ``degn``; ``p_neutral_state`` conditions on
    visited states, where consecutive occupancy (netcrawler rejections)
    collapses into one visit and a visit still open at run end is dropped.
    """

    heuristic: str
    degn: int
    steps: int
    p_neutral_step: float
    visits: int
    p_neutral_state: float


def neutral_mutation_profile(report: SweepReport,
                             heuristics=("nc", "ss")) -> list[ProfileRow]:
    """Empirical P(neutral move | source Degn = d) per heuristic.

    Requires traces on the matching records, and reads only their neutral
    degrees and kinds of move: no landscape is built or scanned. Netcrawler
    bins every proposal by the neutral degree of its source state; scuba
    bins every move. A rejection keeps the state, so a visit closes on each
    step that is not a rejection, and that step's source degree is the
    visit's. Bins never observed are absent from the result, not zero.
    """
    width = report.config.n + 1
    # Per heuristic: steps, neutral steps, visits and neutral visits per degree.
    acc: dict[str, np.ndarray] = {}
    for rec in report.records:
        if rec.heuristic not in heuristics:
            continue
        if rec.trace is None:
            raise ValueError(
                "neutral_mutation_profile needs traces; run the sweep with "
                "keep_traces=True"
            )
        sources = rec.trace.degns[:-1]
        kinds = rec.trace.kinds[1:]
        neutral = kinds == hx.MOVE_KINDS.index(hx.MOVE_NEUTRAL)
        closes = kinds != hx.MOVE_KINDS.index(hx.MOVE_REJECT)
        counts = acc.setdefault(rec.heuristic, np.zeros((4, width), dtype=np.int64))
        for row, binned in enumerate((sources, sources[neutral], sources[closes],
                                      sources[closes & neutral])):
            counts[row] += np.bincount(binned, minlength=width)

    rows = []
    for h in sorted(acc):
        steps, neutral, visits, neutral_visits = acc[h].tolist()
        for d in np.flatnonzero(acc[h][0]).tolist():
            rows.append(ProfileRow(
                heuristic=h, degn=d, steps=steps[d],
                p_neutral_step=neutral[d] / steps[d],
                visits=visits[d],
                p_neutral_state=neutral_visits[d] / visits[d] if visits[d] else 0.0,
            ))
    return rows


def step_stats(report: SweepReport) -> list[CellStats]:
    """The ``"ss"`` rows of :meth:`SweepReport.cells`: scuba's per-cell mean
    total steps (flat+gate) and mean flat moves, among the rest."""
    return [c for c in report.cells() if c.heuristic == "ss"]


# -- CSV output ---------------------------------------------------------------

def _open_dest(dest):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w", newline=""), True


def _write_rows(dest, header: str, rows) -> None:
    fh, owned = _open_dest(dest)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow(row)
    finally:
        if owned:
            fh.close()


def write_csv(report: SweepReport, dest) -> None:
    """One row per cell in (heuristic, k, q) config order.

    Header: ``heuristic,n,k,q,runs,mean_fitness,std_fitness,mean_evals,
    mean_steps,mean_flat,mean_gate``. Fitness columns carry 6 decimals; all
    formatting is fixed so identical configs produce identical bytes.
    """
    n = report.config.n
    rows = [
        (c.heuristic, n, c.k, c.q, c.runs,
         f"{c.mean_fitness:.6f}", f"{c.std_fitness:.6f}",
         f"{c.mean_evals:.6f}", f"{c.mean_steps:.6f}",
         f"{c.mean_flat:.6f}", f"{c.mean_gate:.6f}")
        for c in report.cells()
    ]
    _write_rows(dest, SWEEP_HEADER, rows)


def write_records(report: SweepReport, dest) -> None:
    """One row per run: seeds, terminal fitness total and counters."""
    n = report.config.n
    rows = [
        (r.heuristic, n, r.k, r.q, r.instance, r.run,
         r.landscape_seed, r.run_seed, r.fitness_total,
         r.steps, r.flat, r.gate, r.evaluations)
        for r in report.records
    ]
    _write_rows(dest, RECORDS_HEADER, rows)


def write_profile_csv(rows: list[ProfileRow], dest) -> None:
    _write_rows(dest, PROFILE_HEADER, [
        (r.heuristic, r.degn, r.steps, f"{r.p_neutral_step:.6f}",
         r.visits, f"{r.p_neutral_state:.6f}")
        for r in rows
    ])


def write_step_stats_csv(rows: list[CellStats], dest) -> None:
    _write_rows(dest, STEP_STATS_HEADER, [
        (r.k, r.q, r.runs, f"{r.mean_steps:.6f}", f"{r.mean_flat:.6f}")
        for r in rows
    ])
