"""Seeded sweep harness and statistics over (K, q, heuristic) grids.

Every run in a sweep is reproducible in isolation: the landscape of
instance ``i`` in cell ``(k, q)`` and the RNG stream of run ``r`` are both
derived from the sweep's base seed with :func:`derive_seed`, so repeating a
configuration reproduces every output byte. :func:`derive_seed` is
``SeedSequence``'s mix, written here once for one seed or, over uint64
arrays, for a batch: a sweep mixes the run seeds of all heuristics of a
group, and the PCG64 seeding words they give, in one pass, and draws each
run's start from raw 32-bit halves. All heuristics of a cell share
the same ``instances`` landscapes; run streams are heuristic-specific.
Results aggregate into per-cell means (fitness, evaluations, step counters)
plus the neutral-move statistics used for profile and step-count curves. A
profiled sweep has the engine count, per heuristic, its steps and visits by
source neutral degree, so it keeps no run traces.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby, islice

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
# Bytes tracemalloc sees one run's Generator (with its PCG64) take as
# _run_group makes it, on numpy 2.4, and one RunResult of a batch, less its
# n alleles, on CPython 3.11 (its ints and float vary by a few dozen bytes).
_RUN_OBJECT_BYTES = 544
_RESULT_BYTES = 400

# SeedSequence's hash constants (numpy.random.bit_generator), which NEP 19
# keeps stable with its output.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

SWEEP_HEADER = (
    "heuristic,n,k,q,runs,mean_fitness,std_fitness,"
    "mean_evals,mean_steps,mean_flat,mean_gate"
)
RECORDS_HEADER = (
    "heuristic,n,k,q,instance,run,landscape_seed,run_seed,"
    "fitness_total,steps,flat,gate,evaluations"
)
PROFILE_HEADER = "heuristic,degn,steps,p_neutral_step,visits,p_neutral_state"
# The heuristics whose neutral-mutation profile a sweep writes.
PROFILE_HEURISTICS = ("nc", "ss")
STEP_STATS_HEADER = "k,q,runs,mean_steps,mean_flat"


def _mix(entropy, n_words) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)``, word by
    word, for 32-bit entropy words that are Python ints or equal-length
    uint64 arrays, one entry per row; a word of the result is an array if
    any entropy word is. The hash constants' sequence does not depend on the
    data, so every row mixes at once."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        # A uint64 array wraps where a Python int goes negative; both mask
        # to the same 32 bits.
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_b = [], _INIT_B
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ (value >> 16))
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _words(part: int) -> list[int]:
    """The 32-bit words of a non-negative int, low first, at least one, as
    ``SeedSequence`` reads an entropy part."""
    words = [part & _MASK32]
    while part := part >> 32:
        words.append(part & _MASK32)
    return words


def _seed_state(parts, n_words) -> list:
    """``SeedSequence(parts).generate_state(n_words, np.uint64)``: Python
    ints when every part is a non-negative Python int, else uint64 arrays
    with one entry per row, when some parts are uint64 arrays of one length.
    An array entry enters as one word, or two where it is 2**32 or more, so
    the rows mix in groups of one entropy layout."""
    arrays = [j for j, p in enumerate(parts) if isinstance(p, np.ndarray)]
    if not arrays:
        return _mix([w for p in parts for w in _words(p)], n_words)
    layout = sum((parts[j] > _MASK32).astype(np.int64) << b for b, j in enumerate(arrays))
    out = np.empty((n_words, len(layout)), dtype=np.uint64)
    # A set, not np.unique, which imports numpy.ma (1 MB) on first use.
    for key in set(layout.tolist()):
        rows = np.flatnonzero(layout == key)
        words, b = [], 0
        for p in parts:
            if not isinstance(p, np.ndarray):
                words += _words(p)
                continue
            words.append(p[rows] & _MASK32)
            if key >> b & 1:
                words.append(p[rows] >> 32)
            b += 1
        out[:, rows] = _mix(words, n_words)
    return list(out)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit mix of non-negative integer parts.

    Changing any part changes the stream; repeating the tuple reproduces it.
    A part that is not a non-negative integer raises ``ValueError``.
    """
    for p in parts:
        check_seed(p, "seed part")
    return _seed_state([int(p) for p in parts], 1)[0]


def landscape_seed(base_seed: int, k: int, q: int, instance: int) -> int:
    """Seed of instance ``instance`` of cell ``(k, q)``; heuristic-agnostic."""
    return derive_seed(base_seed, _LANDSCAPE_STREAM, k, q, instance)


def run_seed(base_seed: int, k: int, q: int, heuristic: str, instance: int,
             run: int) -> int:
    """Seed of one run's RNG stream (initial genotype and tie-breaks)."""
    # A heuristic's id is its position in HEURISTICS plus one (_run_streams).
    return derive_seed(base_seed, _RUN_STREAM, k, q,
                       hx.HEURISTICS.index(heuristic) + 1, instance, run)


class _SeedWords:
    """PCG64 seeding words mixed in bulk: each ``generate_state`` call, one
    per PCG64 built from it, returns the next row of an (R, 4) uint64 array,
    which for a run seed s is ``SeedSequence(s).generate_state(4,
    np.uint64)``, so the PCG64 is ``default_rng(s)``'s."""

    def __init__(self, words):
        # A PCG64 takes an ISeedSequence. Registered here, not subclassed,
        # so importing this module does not load numpy.random.
        np.random.bit_generator.ISeedSequence.register(_SeedWords)
        self._rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self._rows)


def _run_streams(base_seed, n, k, rows, size):
    """Yield ``(seeds, rngs, starts)`` for each ``size`` consecutive runs of
    ``rows``, (q, heuristic, instance, run) tuples of cells of K ``k``:
    their :func:`run_seed` values, their Generators, each
    ``default_rng(seed)``'s, and the (size, n) uint8 start genotypes each
    draws first. The seeds of all rows and their PCG64 seeding words are
    mixed at once, the Generators built as each batch is asked for. A start
    is ``integers(0, 2, size=n, dtype=np.uint8)``, read off the next
    ``ceil(n/4)`` halves (:func:`~.heuristics._next_halves`), which that
    draw consumes, leaving the same one buffered: bit j is the top bit of
    little-endian byte j, numpy's Lemire map of a byte onto {0, 1}."""
    # A heuristic's id in the seed is its position in HEURISTICS plus one,
    # so reordering HEURISTICS would change every run stream.
    cells = np.array([(q, hx.HEURISTICS.index(h) + 1, instance, run)
                      for q, h, instance, run in rows], dtype=np.uint64).T
    seeds, = _seed_state([int(base_seed), _RUN_STREAM, int(k), *cells], 1)
    feed = _SeedWords(np.stack(_seed_state([seeds], 4), axis=1))
    halves = -(-n // 4)
    for low in range(0, seeds.size, size):
        rngs = [np.random.Generator(np.random.PCG64(feed))
                for _ in range(min(size, seeds.size - low))]
        # A Generator built from seeding words holds no buffered half.
        drawn = np.array([hx._next_halves(rng, halves, False) for rng in rngs])
        starts = drawn.astype("<u4", copy=False).view(np.uint8)[:, :n] >> 7
        yield seeds[low:low + size].tolist(), rngs, starts


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
    landscapes (run ``r`` uses instance ``r % instances``). ``profile``
    names the heuristics, each one of ``heuristics``, whose steps and visits
    are counted by source neutral degree into :attr:`SweepReport.profiles`,
    which the neutral-mutation profile reads; the others count nothing.
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
    profile: tuple[str, ...] = ()

    def __post_init__(self):
        self.k_values = tuple(self.k_values)
        self.q_values = tuple(self.q_values)
        self.heuristics = tuple(self.heuristics)
        self.profile = tuple(self.profile)
        # Checked before the conversion, so a float k or q is refused, not truncated.
        check_grid(self.n, self.k_values, self.q_values, self.mode)
        self.k_values = tuple(map(int, self.k_values))
        self.q_values = tuple(map(int, self.q_values))
        for h in self.heuristics:
            if h not in hx.HEURISTICS:
                raise ValueError(f"unknown heuristic {h!r}")
        if len(set(self.heuristics)) != len(self.heuristics):
            raise ValueError("heuristics must not repeat")
        for h in self.profile:
            if h not in self.heuristics:
                raise ValueError(f"profiled heuristic {h!r} is not one of {self.heuristics}")
        if len(set(self.profile)) != len(self.profile):
            raise ValueError("profile must not repeat")
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
    """All per-run records of a sweep, aggregable per cell in config order.

    It also holds ``profiles[h]`` for each heuristic h of the sweep's
    ``profile``: h's (4, n+1) int64 counts over all its runs, indexed by the
    neutral degree of the state each step leaves: steps, neutral steps,
    visits closed and neutral visits closed (:mod:`~.heuristics`).
    """

    config: SweepConfig
    records: list[RunRecord] = field(default_factory=list)
    profiles: dict[str, np.ndarray] = field(default_factory=dict)

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
    instance of ``landscape``'s (n, k) and table dtype: its links and table,
    the arrays of a throwaway group of one (the batch's group holds them,
    and its searchers build those a group builds on first use) and the
    batch's copy of its table, and its runs' positions, deltas, starts,
    counters, proposals, tie-break halves, Generators and results, and
    each heuristic's seed and PCG64 seeding words for each run."""
    group = _Group([landscape])
    group._targets, group._keys  # built into vars(group)
    arrays = [landscape.links, landscape.tables, *vars(group).values()]
    runs = -(-config.runs // config.instances)
    return (sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None)
            + landscape.tables.nbytes
            + runs * (18 * config.n + 48 + 8 * hx._PROPOSALS + 4 * hx._BLOCK
                      + _RUN_OBJECT_BYTES + _RESULT_BYTES + 40 * len(config.heuristics)))


def _run_k(config: SweepConfig, k: int, profiles) -> dict[tuple[int, str], list[RunRecord]]:
    """Every heuristic's runs on the cells of K ``k``, keyed by (q,
    heuristic). The instances of all q values run in groups of as many as
    fit in :data:`_BATCH_BYTES`, at least one. A group holds one table
    dtype, so the q values of each dtype form one chain of groups, whose
    instances, with arrays of one set of sizes, each count
    :func:`_held_bytes` of its first. A group's landscapes and their one
    :class:`~.landscape._Group` serve a batch per heuristic and are dropped
    before the next group's landscapes are generated. Records are filled by
    (q, heuristic, run) index, so their order does not depend on the
    grouping. Each heuristic's steps are counted into ``profiles[h]``, if
    there."""
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
            _run_group(config, k, cells[low:low + size], landscapes, out, profiles)
            landscapes = []
    return out


def _run_group(config: SweepConfig, k: int, cells, landscapes, out, profiles) -> None:
    """Run each heuristic's runs on ``landscapes``, the instances of K ``k``
    named by the (q, instance) pairs ``cells``, as one lockstep batch, and
    put their records into ``out`` (:func:`_run_k`)."""
    batch = _Group(landscapes)
    runs = [(i, q, inst, r) for i, (q, inst) in enumerate(cells)
            for r in range(inst, config.runs, config.instances)]
    at = np.array([i for i, *_ in runs], dtype=np.intp)
    streams = _run_streams(config.base_seed, config.n, k,
                           [(q, h, inst, r) for h in config.heuristics for _, q, inst, r in runs],
                           len(runs))
    for h, (seeds, rngs, starts) in zip(config.heuristics, streams):
        results = hx._search(batch, h, at, starts, rngs, config.step_max, False,
                             profiles.get(h))
        for (i, q, inst, r), rs, result in zip(runs, seeds, results):
            out[(q, h)][r] = RunRecord(
                heuristic=h, k=k, q=q, instance=inst, run=r,
                landscape_seed=landscapes[i].seed, run_seed=rs,
                fitness_total=result.fitness.total,
                fitness_norm=result.fitness.normalized,
                steps=result.steps, flat=result.flat_count,
                gate=result.gate_count, evaluations=result.evaluations,
            )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run every cell of the grid; uniform-random initial genotypes per run.

    K values run in order, the instances of all q values of one K in groups,
    each group as one lockstep batch per heuristic (:func:`_run_k`); the
    records aggregate in config order (heuristic, k, q, run). Every run has
    its own seed and reads only its own landscape, so the report and the
    files written from it never depend on the grouping or on scheduling.
    """
    report = SweepReport(config)
    report.profiles = {h: np.zeros((4, config.n + 1), dtype=np.int64) for h in config.profile}
    by_k = {k: _run_k(config, k, report.profiles) for k in config.k_values}
    for h in config.heuristics:
        for k in config.k_values:
            for q in config.q_values:
                report.records.extend(by_k[k][(q, h)])
    return report


# -- neutral degree sampling (Table-style statistics) ------------------------

def neutral_degree_instance_means(n, k, q, samples=1000, instances=10, seed=0,
                                  mode=RANDOM) -> np.ndarray:
    """Mean neutral degree of uniform-random genotypes, one value per instance.

    Each drawn chunk is scanned one block of the scan kernel's rows at a
    time (:meth:`~.landscape.NkqLandscape.batch_scan`: ``_SCAN_ENTRIES //
    n`` rows, components outer and rows inner, deltas in the smallest dtype
    holding ``n*(q-1)``) and counted there, so no (samples, n) int64 flip
    matrix is held; the chunks drawn, and so the stream, do not depend on
    the block."""
    check_params(n, k, q, mode)
    hx.check_counts({"samples": samples, "instances": instances})
    means = np.empty(instances)
    # Rows drawn per rng call. It stays as it is because a uint8 draw drops
    # its buffered bytes at the end of each call, so another chunk would
    # move the stream whenever n is not a multiple of 4.
    chunk = max(1, 4_000_000 // (n * (k + 1)))
    for inst in range(instances):
        landscape = generate(n, k, q, mode,
                             seed=landscape_seed(seed, k, q, inst))
        rng = np.random.default_rng(derive_seed(seed, _SAMPLE_STREAM, k, q, inst))
        block = landscape._group._scan_rows
        acc = 0
        for done in range(0, samples, chunk):
            states = rng.integers(0, 2, size=(min(chunk, samples - done), n), dtype=np.uint8)
            for lo in range(0, len(states), block):
                totals, flips = landscape.batch_scan(states[lo:lo + block])
                acc += np.count_nonzero(flips == totals[:, None])
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
                             heuristics=PROFILE_HEURISTICS) -> list[ProfileRow]:
    """Empirical P(neutral move | source Degn = d) per heuristic.

    Reads the counts a profiled sweep's engine kept
    (:attr:`SweepReport.profiles`): no trace is kept, and no landscape is
    built or scanned. Netcrawler bins every proposal by the neutral degree
    of its source state; scuba bins every move. A rejection keeps the
    state, so a visit closes on each step that is not a rejection, and that
    step's source degree is the visit's. Bins never observed are absent
    from the result, not zero, and so are heuristics the sweep did not
    run. A heuristic of ``heuristics`` that the sweep ran without counting
    it (not in its ``profile``) raises ``ValueError``.
    """
    uncounted = [h for h in heuristics
                 if h in report.config.heuristics and h not in report.profiles]
    if uncounted:
        raise ValueError(f"neutral_mutation_profile needs a sweep with {', '.join(uncounted)} "
                         f"in its profile")
    rows = []
    for h in sorted(set(heuristics) & report.profiles.keys()):
        counts = report.profiles[h]
        steps, neutral, visits, neutral_visits = counts.tolist()
        for d in np.flatnonzero(counts[0]).tolist():
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
