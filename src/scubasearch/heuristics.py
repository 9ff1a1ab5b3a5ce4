"""Local search heuristics over NKq landscapes.

Four searchers:

* ``hill_climb``     - move to a uniformly chosen fittest neighbor until no
  neighbor is strictly fitter (scuba with an empty neutral phase).
* ``netcrawler``     - fixed budget of uniform one-bit proposals, accepting
  every non-deleterious move (neutral drift).
* ``hill_climb2``    - like hill climbing but guided by the distance-2
  neighborhood; stops at distance-2 local maxima.
* ``scuba``          - alternates a neutral phase that greedily increases
  evolvability along the current plateau (flat moves) with strict
  fitness-improving jumps (gate moves), until a local maximum.

Every run owns its RNG stream, so arbitrarily many runs may execute
concurrently over one shared landscape. Each searcher states its own charge
of fitness queries (``RunResult.evaluations``): the initial point's fitness
is known and not charged, and each scan of a point's neighbors costs ``n``
queries, so hill climbing costs ``n*(steps+1)``, the netcrawler
``step_max``, two-step hill climbing ``(n + n*(n-1)/2)*(steps+1)``, and
scuba ``(1+Degn(s))*n`` per inner-guard evaluation.

The charges are the queries, not the compute: the searchers carry the
one-bit deltas ``d`` of the current point across moves (and hc2 its pair
sums) instead of rescanning it, yet each step is charged as a full scan.
:func:`search` advances the runs of one landscape together in one run state
(:class:`_Runs`), and a sweep the runs of a group of instances
(:func:`_search`), over the kernels of :class:`~.landscape._Group`. Each run
reads only its own landscape and draws from its own stream only what it
would draw alone, so batching cannot change an output; the four searchers
are batches of one. Locality over every genotype of a small landscape is
:func:`~.pathgraph.census`.

With ``trace=True`` a run also returns a compact :class:`Trace`: the start
genotype plus, per step, the flipped locus, the total, the kind of move and
the neutral degree of the state arrived at, which each searcher already
knows from its deltas. :meth:`Trace.genotypes` rebuilds every step's
genotype at once. Without a trace the searchers do no per-step trace work.

A sweep asks for no trace. Given a ``(4, n+1)`` int64 ``profile``,
:func:`_search` adds to it, binned by the neutral degree of the state a step
leaves, each run's steps, neutral steps (gain 0), visits closed and neutral
visits closed: a move is one step that closes the visit of the state it
leaves, and a netcrawler rejection one step that stays. Only then does the
run state track each run's neutral degree, so without a profile a round
does no counting work.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

import numpy as np

from .landscape import (MAX_TABLE_ENTRIES, FitnessValue, LandscapeError, NkqLandscape,
                        _fitness, as_genotype, check_integer)

MOVE_INIT = "init"
MOVE_IMPROVE = "improve"
MOVE_NEUTRAL = "neutral"
MOVE_DESCEND = "descend"
MOVE_REJECT = "reject"
# A trace stores each kind of move as its index in MOVE_KINDS.
MOVE_KINDS = (MOVE_INIT, MOVE_IMPROVE, MOVE_NEUTRAL, MOVE_DESCEND, MOVE_REJECT)
_INIT, _IMPROVE, _NEUTRAL, _DESCEND, _REJECT = range(len(MOVE_KINDS))
# The kind of a move, indexed by the sign of its gain (-1 is the last).
_KIND_OF_SIGN = np.array([_NEUTRAL, _IMPROVE, _DESCEND], dtype=np.int8)

HEURISTICS = ("hc", "nc", "hc2", "ss")

# The largest netcrawler budget a run may ask for, far above the paper's 300;
# a larger one is refused before anything is drawn.
STEP_MAX_LIMIT = 2**20
# The most runs (runs x heuristics x cells) of a sweep, or genotypes (samples
# x instances x cells) of a neutral-degree table; more is refused.
COUNT_LIMIT = 2**20
# Netcrawler proposals a run draws at a time, so a batch holds at most
# runs x _PROPOSALS of them, never runs x step_max.
_PROPOSALS = 512
# Proposals one netcrawler round reads per live run, past the run's cursor:
# at least _WINDOW, and more while few runs are live, to about
# _CRAWL_ENTRIES in all, so a small batch needs few rounds.
_WINDOW = 32
_CRAWL_ENTRIES = 2**11
# Tie-break halves a run draws from its stream at a time (_Halves).
_BLOCK = 16
# Entries of the (n, n) pair sums hc2 carries for a chunk of runs, each
# chunk run to its end, so a batch holds those of at most max(1,
# _PAIR_ENTRIES // n**2) runs at a time (64 at n=64), plus one round's
# gains of as many, each entry at most 8 bytes (int16 on the paper grid).
_PAIR_ENTRIES = 2**18


class Trace:
    """Read-only trace of one run: the start genotype ``s0`` plus four arrays
    with one entry per step, the start being entry 0.

    ``loci`` holds the locus flipped to reach the state, or -1 when the state
    did not change (the start or a netcrawler rejection);
    ``totals`` (int64) its total; ``kinds`` how it was reached, as an index
    into :data:`MOVE_KINDS`; ``degns`` its neutral degree.
    """

    def __init__(self, s0, loci, totals, kinds, degns):
        self.s0 = np.array(s0, dtype=np.uint8)
        self.loci = np.asarray(loci, dtype=np.int32)
        self.totals = np.asarray(totals, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.degns = np.asarray(degns, dtype=np.int32)
        for array in (self.s0, self.loci, self.totals, self.kinds, self.degns):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.loci)

    def genotypes(self) -> np.ndarray:
        """``(len, n)`` uint8: row i is the genotype of entry i, one prefix
        XOR of ``loci`` over ``s0``."""
        rows = np.zeros((len(self), self.s0.size), dtype=np.uint8)
        moved = np.flatnonzero(self.loci >= 0)
        rows[moved, self.loci[moved]] = 1
        rows = np.bitwise_xor.accumulate(rows, axis=0)
        rows ^= self.s0
        return rows


@dataclass
class RunResult:
    """Outcome of one heuristic run.

    ``flat_count`` counts accepted fitness-preserving moves and
    ``gate_count`` strictly improving ones. For scuba these are exactly the
    neutral-phase and jump-phase move counters and ``steps`` is their sum;
    for the netcrawler ``steps`` counts proposals (accepted or not); hill
    climbing moves are all improving, and two-step hill climbing's
    lookahead moves may be neither (a fitness dip counts in neither).
    """

    terminal: np.ndarray
    fitness: FitnessValue
    steps: int
    flat_count: int
    gate_count: int
    evaluations: int
    trace: Trace | None = None


def check_step_max(step_max, name="step_max") -> None:
    """Raise ``ValueError`` unless ``step_max`` is an integer in ``[1,
    STEP_MAX_LIMIT]``."""
    check_integer(name, step_max)
    if not 1 <= step_max <= STEP_MAX_LIMIT:
        bound = ">= 1" if step_max < 1 else f"<= STEP_MAX_LIMIT = {STEP_MAX_LIMIT}"
        raise ValueError(f"{name} must be {bound}, got {step_max}")


def check_counts(counts: dict, cells=1) -> None:
    """Raise ``ValueError`` unless every count in ``counts`` (name: count) is
    an integer >= 1 and the work they ask for, their product times ``cells``,
    is <= ``COUNT_LIMIT``."""
    for name, count in counts.items():
        check_integer(name, count)
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if (work := prod(counts.values()) * cells) > COUNT_LIMIT:
        raise ValueError(f"{' x '.join(counts)} x {cells} cells = {work}, "
                         f"above COUNT_LIMIT = {COUNT_LIMIT}")


def check_pair_totals(n) -> None:
    """Raise ``LandscapeError`` if hc2's (n, n) pair totals exceed ``MAX_TABLE_ENTRIES``."""
    if n * n > MAX_TABLE_ENTRIES:
        raise LandscapeError(f"hc2 needs n*n = {n}*{n} pair totals, above MAX_TABLE_ENTRIES "
                             f"= {MAX_TABLE_ENTRIES}; use n <= {isqrt(MAX_TABLE_ENTRIES)}")


class _Runs:
    """The run state of R runs over a :class:`~.landscape._Group`: per run
    its instance (``instances``), start genotype (``s0``), components'
    positions in the group's flat tables (``idx``, whose bit 0 in column j
    is the allele at locus j) and one-bit deltas (``d``), all (R, n), its
    total (``total``) and its neutral, improving and descending moves
    (``moves``, (R, 3), indexed by the sign of the gain). With a trace it
    logs every move: ``(runs, entries, loci, totals, kinds, degns)``. With a
    ``profile`` it keeps each run's neutral degree (``degn``), and each move
    counts into it (:meth:`flip`), each netcrawler rejection too
    (:func:`_crawl`)."""

    def __init__(self, group, instances, starts, trace, profile=None):
        self.group, self.instances, self.s0 = group, instances, starts
        self.idx, self.d = (np.empty(self.s0.shape, dtype=np.int64) for _ in range(2))
        self.total = np.empty(len(self.s0), dtype=np.int64)
        for i in range(len(group.max_totals)):
            rows = np.flatnonzero(instances == i)
            self.idx[rows], self.total[rows], self.d[rows] = group._row_deltas(self.s0[rows], i)
        self.moves = np.zeros((len(self.s0), 3), dtype=np.int64)
        self.profile = profile
        if profile is not None:
            self.degn = (self.d == 0).sum(axis=1)
        self.log = [] if trace else None
        if trace:
            runs = np.arange(len(self.s0))
            self._log(runs, np.zeros_like(runs), np.full_like(runs, -1), np.full_like(runs, _INIT))

    def _log(self, runs, entries, loci, kinds):
        degns = self.group.n - np.count_nonzero(self.d[runs], axis=1)
        self.log.append((runs, entries, loci, self.total[runs], kinds, degns))

    def flip(self, runs, loci, deltas=None, entries=None):
        """Flip locus ``loci[i]`` of run ``runs[i]`` for every i at once. A
        move that keeps the total is flat, one that raises it a gate move,
        one that lowers it (an hc2 lookahead) neither. Row i of ``deltas``,
        if given, holds the one-bit deltas of run ``runs[i]`` with
        ``loci[i]`` flipped, so they need no update. A traced move reaches
        trace entry ``entries[i]``, by default the run's moves so far. A
        profile counts each move as a step, neutral if flat, that closes
        the visit of the degree it leaves."""
        gains = self.d[runs, loci]
        signs = np.sign(gains)
        self.moves[runs, signs] += 1
        self.total[runs] += gains
        self.group._flip(self.idx, self.d, runs, self.instances[runs] * self.group.n + loci,
                         deltas)
        if self.log is not None:
            if entries is None:
                entries = self.moves[runs].sum(axis=1)
            self._log(runs, entries, loci, _KIND_OF_SIGN[signs])
        if self.profile is not None:
            width = self.group.n + 1
            left = self.degn[runs]
            self.profile[::2] += np.bincount(left, minlength=width)  # steps, visits
            self.profile[1::2] += np.bincount(left[signs == 0], minlength=width)
            self.degn[runs] = (self.d[runs] == 0).sum(axis=1)

    def results(self, steps, evaluations) -> list[RunResult]:
        """One result per run, with a trace of ``steps[r] + 1`` entries for
        run r. An entry no move logged is a netcrawler rejection: locus -1,
        and the total and neutral degree of the entry before it."""
        traces = [None] * len(self.s0)
        if self.log is not None:
            bounds = np.concatenate(([0], np.cumsum(steps + 1)))
            size = int(bounds[-1])
            loci, kinds = np.full(size, -1, np.int32), np.full(size, _REJECT, np.int8)
            totals, degns = np.empty(size, np.int64), np.empty(size, np.int32)
            while self.log:
                run, entry, locus, total, kind, degn = self.log.pop()
                at = bounds[run] + entry
                loci[at], kinds[at], totals[at], degns[at] = locus, kind, total, degn
            # Each run's entry 0 is logged, so each logged entry's values
            # repeat over the rejections up to the next logged one.
            logged = np.flatnonzero(kinds != _REJECT)
            if logged.size < size:
                repeats = np.diff(logged, append=size)
                totals[:] = np.repeat(totals[logged], repeats)
                degns[:] = np.repeat(degns[logged], repeats)
            columns = loci, totals, kinds, degns
            traces = [Trace(s0, *(column[a:b] for column in columns))
                      for s0, a, b in zip(self.s0, bounds[:-1].tolist(), bounds[1:].tolist())]
        max_totals = self.group.max_totals
        return [RunResult(s, _fitness(total, max_totals[i]), *counts, trace)
                for s, i, total, *counts, trace in zip(
                    (self.idx & 1).astype(np.uint8), self.instances.tolist(),
                    self.total.tolist(), steps.tolist(), self.moves[:, 0].tolist(),
                    self.moves[:, 1].tolist(), evaluations.tolist(), traces)]


def _buffered(rng) -> bool:
    """Whether ``rng`` is a PCG64 Generator holding a buffered half, read
    off its state (a dict of Python ints, about a microsecond)."""
    bits = rng.bit_generator
    return type(bits) is np.random.PCG64 and bool(bits.state["has_uint32"])


def _next_halves(rng, m, buffered) -> np.ndarray:
    """``rng.integers(0, 2**32, size=m, dtype=np.uint32)``: the next m
    32-bit halves of ``rng``'s stream, low half of each word first, a half
    the Generator holds buffered first, and an odd last word's high half
    left buffered; ``buffered`` is :func:`_buffered` of ``rng``, which the
    caller knows (m halves leave one buffered exactly when it differs from
    m being odd). A PCG64 with none buffered gives its whole words from one
    ``random_raw`` call, several times cheaper than ``integers``; the last
    half of an odd m comes from ``integers``, which buffers the other as
    the one draw would."""
    if buffered or type(rng.bit_generator) is not np.random.PCG64:
        return rng.integers(0, 2**32, size=m, dtype=np.uint32)
    halves = rng.bit_generator.random_raw(m // 2).astype("<u8", copy=False).view("<u4")
    if m % 2:
        halves = np.append(halves, rng.integers(0, 2**32, dtype=np.uint32))
    return halves


class _Halves:
    """Each run's next 32-bit halves of its stream, for its tie-breaks: row
    r of ``block`` holds run r's, of which it has read ``used[r]``. A run
    that has read all ``_BLOCK`` refills them (:meth:`refill`) with
    :func:`_next_halves`, the halves its ``integers(c)`` calls would take;
    whether its stream holds a buffered half (``buffered[r]``) is read at
    its first refill and follows from then on."""

    def __init__(self, rngs):
        self.rngs = rngs
        self.block = np.empty((len(rngs), _BLOCK), dtype=np.uint32)
        self.used = np.full(len(rngs), _BLOCK)
        self.buffered = [None] * len(rngs)

    def refill(self, r) -> None:
        """Draw run r's next ``_BLOCK`` halves into its row of ``block``."""
        rng, buffered = self.rngs[r], self.buffered[r]
        if buffered is None:
            buffered = _buffered(rng)
        self.block[r] = _next_halves(rng, _BLOCK, buffered)
        self.buffered[r] = buffered != (_BLOCK % 2 == 1)


def _bounded(halves, runs, counts) -> np.ndarray:
    """What ``integers(counts[i])`` of run ``runs[i]``'s own stream gives,
    for every i at once, as int64: numpy's Lemire map of the run's next
    half x, ``(x*c) >> 32``, rejecting x while ``x*c mod 2**32 < 2**32 %
    c``. A count of one reads no half."""
    draws = np.zeros(runs.size, dtype=np.int64)
    tied = np.flatnonzero(counts > 1)
    c = counts[tied].astype(np.uint64)
    while tied.size:
        rows = runs[tied]
        used = halves.used[rows]
        if used.max() == _BLOCK:
            spent = used == _BLOCK
            for r in rows[spent].tolist():
                halves.refill(r)
            used[spent] = 0
        halves.used[rows] = used + 1
        m = halves.block[rows, used] * c
        draws[tied] = m >> 32
        # A half is rejected with probability (2**32 % c) / 2**32, so
        # rarely unless c is large.
        again = (m & 0xFFFFFFFF) < 2**32 % c
        tied, c = tied[again], c[again]
    return draws


def _draw(halves, runs, picks):
    """The locus each of ``runs`` moves at: run ``runs[i]`` draws one
    ``integers(#candidates)`` from its own stream (:func:`_bounded`) over
    its candidate loci, row i of ``picks``, in ascending order, all read
    off one ``flatnonzero`` of ``picks``."""
    n = picks.shape[1]
    at = np.flatnonzero(picks)
    # Row i's candidates are at[bounds[i]:bounds[i + 1]].
    bounds = np.searchsorted(at, np.arange(0, picks.size + 1, n))
    starts = bounds[:-1]
    return at[starts + _bounded(halves, runs, bounds[1:] - starts)] % n


def _climb(runs, halves, neutral_phase) -> list[RunResult]:
    """Hill climbing, or scuba when ``neutral_phase``, of each of ``runs``,
    run i drawing from its ``halves``; each round moves every live run once.

    At each point: if ``neutral_phase`` and some neutral neighbor has a
    strictly higher evolvability than the point itself, flip to a uniformly
    chosen one of highest evolvability (flat move); else, if some neighbor is
    strictly fitter, flip to a uniformly chosen fittest one (gate move); else
    stop. Reading ``total + d`` is charged ``n`` queries, and scuba's guard,
    read from the mutant deltas of the neutral neighbors, ``Degn * n`` more.
    """
    group = runs.group
    # The neutral neighbors each run's guard has read.
    guarded = np.zeros(len(runs.s0), dtype=np.int64)
    live = np.arange(len(runs.s0))
    while live.size:
        d = runs.d[live]
        gain = d.max(axis=1)
        picks = d == gain[:, None]
        moving = gain > 0
        if neutral_phase:
            at, loci = np.nonzero(d == 0)
            guarded[live] += np.bincount(at, minlength=live.size)
            # A neutral neighbor's evolvability, less the point's total, is
            # its best one-bit delta; flipping back (delta 0) is one of them.
            rows = live[at]
            keys = runs.instances[rows] * group.n + loci
            lifts = group._mutant_lifts(runs.idx, runs.d, rows, keys)
            lift = np.full(live.size, -1, dtype=np.int64)
            np.maximum.at(lift, at, lifts)
            flat = lift > np.maximum(gain, 0)
            picks[flat] = False
            best = flat[at] & (lifts == lift[at])
            picks[at[best], loci[best]] = True
            moving |= flat
        live = live[moving]
        runs.flip(live, _draw(halves, live, picks[moving]))
    steps = runs.moves.sum(axis=1)
    return runs.results(steps, group.n * (steps + 1 + guarded))


def _climb2(runs, halves) -> list[RunResult]:
    """:func:`hill_climb2` of each of ``runs``, run i drawing from its
    ``halves``, in chunks of ``max(1, _PAIR_ENTRIES // n**2)`` runs, each
    run to its end; each round moves every live run of the chunk once. A
    chunk carries its runs' pair sums across moves: built once, then moved
    with each run's flip by the components that read the flipped locus."""
    group, n = runs.group, runs.group.n
    chunk = max(1, _PAIR_ENTRIES // (n * n))
    for first in range(0, len(runs.s0), chunk):
        live = np.arange(first, min(first + chunk, len(runs.s0)))
        pairs = group._pair_sums(runs.idx[live], runs.instances[live])
        while live.size:
            d = runs.d[live]
            gains = group._pair_gains(pairs[live - first], d)
            # Locus a's best gain is the best one in its one-bit mutant's
            # neighborhood: the mutant itself (0 more) or a pair, the point
            # itself (a flipped back, -d[a] more) included.
            best = d + np.maximum(gains.max(axis=2), 0)
            ext = best.max(axis=1)
            picks = np.where((d.max(axis=1) == ext)[:, None], d, best) == ext[:, None]
            moving = np.flatnonzero(ext > 0)
            live = live[moving]
            loci = _draw(halves, live, picks[moving])
            group._move_pairs(pairs, runs.idx[first:], live - first,
                              runs.instances[live] * n + loci)
            runs.flip(live, loci, gains[moving, loci])
    steps = runs.moves.sum(axis=1)
    return runs.results(steps, (steps + 1) * (n + n * (n - 1) // 2))


def _crawl(runs, rngs, step_max) -> list[RunResult]:
    """The netcrawler of each of ``runs``, run i drawing from ``rngs[i]``
    its proposals ``_PROPOSALS`` at a time, by one ``integers(n, size=...)``
    call a chunk; the chunks continue one stream. Each round reads, for every run
    with proposals left in the chunk, a window of the next ones at its
    current point: a run with an accepted one moves straight to the first,
    and a run without one rejects them all and stays."""
    for first in range(0, step_max, _PROPOSALS):
        width = min(_PROPOSALS, step_max - first)
        proposals = np.array([rng.integers(runs.group.n, size=width) for rng in rngs])
        cursor = np.zeros(len(rngs), dtype=np.int64)
        live = np.arange(len(rngs))
        while live.size:
            reach = min(width, max(_WINDOW, _CRAWL_ENTRIES // live.size))
            # A window past the chunk's end repeats its last proposal, which
            # leaves the first accepted one where it is.
            at = np.minimum(cursor[live, None] + np.arange(reach), width - 1)
            loci = proposals[live[:, None], at]
            accepted = runs.d[live[:, None], loci] >= 0
            found = accepted.any(axis=1)
            # A run with no accepted proposal moves its cursor past the window.
            hit = np.where(found, accepted.argmax(axis=1), reach - 1)
            rows = np.arange(live.size)
            ends = at[rows, hit] + 1
            if runs.profile is not None:
                # The proposals a run passed are steps at its degree; flip
                # counts an accepted one.
                np.add.at(runs.profile[0], runs.degn[live], ends - cursor[live] - found)
            cursor[live] = ends
            moved = live[found]
            runs.flip(moved, loci[found, hit[found]],
                      entries=None if runs.log is None else first + cursor[moved])
            live = live[cursor[live] < width]
    del proposals  # the last chunk's, before the traces are built
    steps = np.full(len(rngs), step_max, dtype=np.int64)
    return runs.results(steps, steps)


def search(landscape, heuristic, starts, rngs, step_max=300, trace=False) -> list[RunResult]:
    """One run of ``heuristic`` on ``landscape`` from each genotype of
    ``starts``, run i drawing its tie-breaks and proposals from ``rngs[i]``
    only, so each result is the one the run gives alone; the runs advance
    together. Tie-breaks are drawn ``_BLOCK`` halves at a time, so a
    Generator may be left up to one block past the last half its run
    used. The engine's one checked door: every input is checked here,
    before anything is built."""
    if not isinstance(landscape, NkqLandscape):
        raise LandscapeError(f"search takes one NkqLandscape, got {type(landscape).__name__}")
    if len(starts) != len(rngs):
        raise ValueError(f"{len(starts)} starts but {len(rngs)} rngs; each run needs its own")
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    check_step_max(step_max)
    n = landscape.n
    if heuristic == "hc2":
        check_pair_totals(n)
    starts = np.array([as_genotype(s, n) for s in starts], dtype=np.uint8).reshape(-1, n)
    return _search(landscape._group, heuristic, np.zeros(len(starts), dtype=np.intp),
                   starts, rngs, step_max, trace)


def _search(group, heuristic, instances, starts, rngs, step_max, trace,
            profile=None) -> list[RunResult]:
    """:func:`search` over a built group, unchecked: run i starts from row i
    of the (R, n) uint8 matrix ``starts`` on the group's landscape
    ``instances[i]`` (intp); a group serves any number of calls. Each run's
    steps are added to ``profile``, if given (:class:`_Runs`)."""
    runs = _Runs(group, instances, starts, trace, profile)
    if heuristic == "nc":
        return _crawl(runs, rngs, step_max)
    if heuristic == "hc2":
        return _climb2(runs, _Halves(rngs))
    return _climb(runs, _Halves(rngs), neutral_phase=heuristic == "ss")


def hill_climb(landscape, s0, rng, trace=False) -> RunResult:
    """Steepest-ascent hill climbing: jump to a uniformly chosen fittest
    neighbor until none is strictly fitter, a (non-strict) local maximum.
    Costs ``n`` queries per point visited."""
    return search(landscape, "hc", [s0], [rng], trace=trace)[0]


def netcrawler(landscape, s0, rng, step_max=300, trace=False) -> RunResult:
    """Uniform one-bit proposals for exactly ``step_max`` steps, accepting
    every proposal that does not lower the total (neutral moves accepted).

    Runs the full budget, each proposal one query, accepted or not; with a
    trace, the last improving entry marks the step after which the crawl
    stopped gaining fitness. ``step_max`` must lie in ``[1,
    STEP_MAX_LIMIT]``.
    """
    return search(landscape, "nc", [s0], [rng], step_max, trace)[0]


def hill_climb2(landscape, s0, rng, trace=False) -> RunResult:
    """Hill climbing guided by the distance-2 neighborhood.

    While some point within distance 2 beats the current one: if a direct
    neighbor attains the extended maximum, move to it; otherwise move to a
    neighbor whose own neighborhood attains it (such a lookahead move may
    lower the current fitness). Stops at a distance-2 local maximum. Each
    point visited scans ``n + n*(n-1)/2`` distinct points. Refuses ``n*n``
    above :data:`~.landscape.MAX_TABLE_ENTRIES`.
    """
    return search(landscape, "hc2", [s0], [rng], trace=trace)[0]


def scuba(landscape, s0, rng, trace=False) -> RunResult:
    """Scuba search: greedy evolvability ascent along each plateau, then a
    strict fitness jump, repeated until a local maximum.

    Inner phase (flat moves): while some neutral neighbor has strictly
    higher evolvability, move to a uniformly chosen one of maximal
    evolvability. Jump phase (gate moves): move to a uniformly chosen
    strictly fitter neighbor of maximal fitness. Each inner-guard
    evaluation costs exactly ``(1 + Degn(s)) * n`` queries; the jump reuses
    the guard's scan.
    """
    return search(landscape, "ss", [s0], [rng], trace=trace)[0]
