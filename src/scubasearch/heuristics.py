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

Every run owns its RNG stream and its evaluation counter, so arbitrarily
many runs may execute concurrently over one shared landscape. The initial
point's fitness is treated as known and is not charged to the counter; each
neighborhood scan then costs exactly ``n`` queries, which makes hill
climbing cost ``n*(steps+1)``, the netcrawler exactly ``step_max``, and
scuba ``(1+Degn(s))*n`` per inner-guard evaluation.

The one-bit searchers (hill climbing, the netcrawler and scuba) carry one
:class:`~.landscape.ScoreVector` of the current point across steps instead
of rescanning it: a proposal at locus l reads ``total + d[l]``, only a move
updates the vector (from the components that read the flipped locus), and
scuba's evolvability of a neutral neighbor is one row of its mutant deltas.
The charges above are the queries, not this compute, so they are the same
as for a full scan at every step.

With ``trace=True`` a run also returns a compact :class:`Trace`: the start
genotype plus, per step, the flipped locus, the total, the kind of move and
the neutral degree of the state arrived at, which each searcher already
knows from its scan. A trace step's genotype and fitness are rebuilt only
when read. Without a trace the searchers do no per-step trace work.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .landscape import FitnessValue, as_genotype
from .neighborhood import EvalCounter, PlateauScan, extended_scan

MOVE_INIT = "init"
MOVE_IMPROVE = "improve"
MOVE_NEUTRAL = "neutral"
MOVE_DESCEND = "descend"
MOVE_REJECT = "reject"
# A trace stores each kind of move as its index in MOVE_KINDS.
MOVE_KINDS = (MOVE_INIT, MOVE_IMPROVE, MOVE_NEUTRAL, MOVE_DESCEND, MOVE_REJECT)
_INIT, _IMPROVE, _NEUTRAL, _DESCEND, _REJECT = range(len(MOVE_KINDS))

HEURISTICS = ("hc", "nc", "hc2", "ss")


@dataclass
class TraceStep:
    """One trace entry: the state arrived at and how it was reached."""

    genotype: np.ndarray
    fitness: FitnessValue
    kind: str


class Trace(Sequence):
    """Read-only trace of one run: the start genotype ``s0`` plus four arrays
    with one entry per step, the start being entry 0.

    ``loci`` holds the locus flipped to reach the state, or -1 when the state
    did not change (the start or a netcrawler rejection);
    ``totals`` (int64) its total; ``kinds`` how it was reached, as an index
    into :data:`MOVE_KINDS`; ``degns`` its neutral degree. Indexing, slicing
    and iteration yield :class:`TraceStep` objects built on access, their
    genotypes from one prefix XOR of ``loci`` over ``s0``.
    """

    def __init__(self, s0, max_total, loci, totals, kinds, degns):
        self.s0 = np.array(s0, dtype=np.uint8)
        self.max_total = max_total
        self.loci = np.asarray(loci, dtype=np.int32)
        self.totals = np.asarray(totals, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.degns = np.asarray(degns, dtype=np.int32)
        for array in (self.s0, self.loci, self.totals, self.kinds, self.degns):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.loci)

    def genotypes(self) -> np.ndarray:
        """``(len, n)`` uint8: row i is the genotype of entry i."""
        rows = np.zeros((len(self), self.s0.size), dtype=np.uint8)
        moved = np.flatnonzero(self.loci >= 0)
        rows[moved, self.loci[moved]] = 1
        rows = np.bitwise_xor.accumulate(rows, axis=0)
        rows ^= self.s0
        return rows

    def _step(self, genotype, total, kind) -> TraceStep:
        total = int(total)
        return TraceStep(genotype, FitnessValue(total, total / self.max_total),
                         MOVE_KINDS[kind])

    def __iter__(self):
        return map(self._step, self.genotypes(), self.totals.tolist(),
                   self.kinds.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._step, self.genotypes()[index],
                            self.totals[index].tolist(), self.kinds[index].tolist()))
        i = range(len(self))[index]
        moved = self.loci[1:i + 1]
        parity = np.bincount(moved[moved >= 0], minlength=self.s0.size) & 1
        return self._step(self.s0 ^ parity.astype(np.uint8), self.totals[i],
                          self.kinds[i])


def _degn(state) -> int:
    """Neutral degree of a score vector's genotype: its zero deltas."""
    return state.d.size - int(np.count_nonzero(state.d))


def _pack(s0, landscape, entries) -> Optional[Trace]:
    """The trace of ``(locus, total, kind, degn)`` entries, or None untraced."""
    if entries is None:
        return None
    return Trace(s0, landscape.max_total, *np.array(entries, dtype=np.int64).T)


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
    trace: Optional[Trace] = None


def _choose(rng: np.random.Generator, candidates: np.ndarray) -> int:
    """Uniform tie-break among candidate loci."""
    return int(candidates[rng.integers(candidates.size)])


def _climb(landscape, s0, rng, counter, trace, neutral_phase) -> RunResult:
    """Hill climbing, or scuba when ``neutral_phase``.

    At each point: if ``neutral_phase`` and some neutral neighbor has a
    strictly higher evolvability than the point itself, flip to a uniformly
    chosen one of highest evolvability (flat move); else, if some neighbor is
    strictly fitter, flip to a uniformly chosen fittest one (gate move); else
    stop. Each point is read through one
    :class:`~.neighborhood.PlateauScan` of the score vector the run carries,
    which charges ``n`` queries for the flip totals plus ``Degn * n`` for
    the neutral neighbors' evolvabilities.
    """
    counter = EvalCounter() if counter is None else counter
    state = start = landscape.scores(s0)
    flat = gate = 0
    log = [(-1, state.total, _INIT, _degn(state))] if trace else None
    while True:
        scan = PlateauScan(state, counter)
        # Totals are non-negative, so -1 never beats the evolvability.
        best = int(scan.neutral_evols.max(initial=-1)) if neutral_phase else -1
        if best > scan.evol_total:
            locus = _choose(rng, scan.neutral_loci[scan.neutral_evols == best])
            flat += 1
            kind = _NEUTRAL
        else:
            flips = scan.flip_totals
            best = int(flips.max())
            if best <= state.total:
                break
            locus = _choose(rng, np.flatnonzero(flips == best))
            gate += 1
            kind = _IMPROVE
        state = state.flip(locus)
        if trace:
            log.append((locus, state.total, kind, _degn(state)))
    return RunResult(state.s, landscape.fitness(state.total), flat + gate, flat, gate,
                     counter.count, _pack(start.s, landscape, log))


def hill_climb(landscape, s0, rng, counter=None, trace=False) -> RunResult:
    """Steepest-ascent hill climbing: jump to a uniformly chosen fittest
    neighbor until none is strictly fitter, a (non-strict) local maximum.
    Costs ``n`` queries per point visited."""
    return _climb(landscape, s0, rng, counter, trace, neutral_phase=False)


def netcrawler(landscape, s0, rng, step_max=300, counter=None, trace=False) -> RunResult:
    """Uniform one-bit proposals for exactly ``step_max`` steps, accepting
    every proposal that does not lower the total (neutral moves accepted).

    Runs the full budget; with a trace, the last improving entry marks the
    step after which the crawl stopped gaining fitness.
    """
    if step_max <= 0:
        raise ValueError(f"step_max must be positive, got {step_max}")
    counter = EvalCounter() if counter is None else counter
    state = start = landscape.scores(s0)
    flat = gate = 0
    log = [(-1, state.total, _INIT, _degn(state))] if trace else None
    # One draw of all loci takes the same values from the stream as one
    # scalar draw per step, and leaves the same next draw.
    for locus in rng.integers(landscape.n, size=step_max).tolist():
        delta = int(state.d[locus])
        if delta >= 0:
            state = state.flip(locus)
            if delta == 0:
                flat += 1
                kind = _NEUTRAL
            else:
                gate += 1
                kind = _IMPROVE
            if trace:
                log.append((locus, state.total, kind, _degn(state)))
        elif trace:
            # A rejection keeps the state, and so its neutral degree.
            log.append((-1, state.total, _REJECT, log[-1][3]))
    # Each proposal is one query, accepted or not.
    counter.add(step_max)
    return RunResult(state.s, landscape.fitness(state.total), step_max, flat, gate,
                     counter.count, _pack(start.s, landscape, log))


def hill_climb2(landscape, s0, rng, counter=None, trace=False) -> RunResult:
    """Hill climbing guided by the distance-2 neighborhood.

    While some point within distance 2 beats the current one: if a direct
    neighbor attains the extended maximum, move to it; otherwise move to a
    neighbor whose own neighborhood attains it (such a lookahead move may
    lower the current fitness). Stops at a distance-2 local maximum. Each
    step scans ``n + n*(n-1)/2`` distinct points.
    """
    counter = EvalCounter() if counter is None else counter
    start = as_genotype(s0, landscape.n)
    s = start.copy()
    steps = flat = gate = 0
    log = [] if trace else None
    locus, kind = -1, _INIT
    while True:
        total, flips, pairs = extended_scan(landscape, s, counter)
        if trace:
            # Each state is scanned once, on arrival: log it with its degree.
            log.append((locus, total, kind, int(np.count_nonzero(flips == total))))
        evol_now = max(total, int(flips.max()))
        evol_ext = max(evol_now, int(pairs.max()))
        if evol_ext <= total:
            break
        if evol_now == evol_ext:
            candidates = np.flatnonzero(flips == evol_ext)
        else:
            neighbor_evols = np.maximum(flips, pairs.max(axis=1))
            candidates = np.flatnonzero(neighbor_evols == evol_ext)
        locus = _choose(rng, candidates)
        new_total = int(flips[locus])
        s[locus] ^= 1
        if new_total > total:
            gate += 1
            kind = _IMPROVE
        elif new_total == total:
            flat += 1
            kind = _NEUTRAL
        else:
            kind = _DESCEND
        steps += 1
    return RunResult(s, landscape.fitness(total), steps, flat, gate,
                     counter.count, _pack(start, landscape, log))


def scuba(landscape, s0, rng, counter=None, trace=False) -> RunResult:
    """Scuba search: greedy evolvability ascent along each plateau, then a
    strict fitness jump, repeated until a local maximum.

    Inner phase (flat moves): while some neutral neighbor has strictly
    higher evolvability, move to a uniformly chosen one of maximal
    evolvability. Jump phase (gate moves): move to a uniformly chosen
    strictly fitter neighbor of maximal fitness. Each inner-guard
    evaluation costs exactly ``(1 + Degn(s)) * n`` queries; the jump reuses
    the guard's scan.
    """
    return _climb(landscape, s0, rng, counter, trace, neutral_phase=True)
