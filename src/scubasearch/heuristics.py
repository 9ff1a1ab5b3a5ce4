"""Local search heuristics over NKq landscapes.

Four concrete searchers plus a pluggable skeleton:

* ``hill_climb``     - move to a uniformly chosen fittest neighbor until no
  neighbor is strictly fitter (scuba with an empty neutral phase).
* ``netcrawler``     - fixed budget of uniform one-bit proposals, accepting
  every non-deleterious move (neutral drift).
* ``hill_climb2``    - like hill climbing but guided by the distance-2
  neighborhood; stops at distance-2 local maxima.
* ``scuba``          - alternates a neutral phase that greedily increases
  evolvability along the current plateau (flat moves) with strict
  fitness-improving jumps (gate moves), until a local maximum.
* ``generic_scuba``  - the same two-phase skeleton with caller-supplied
  improvement steps and termination conditions.

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
"""

from __future__ import annotations

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

HEURISTICS = ("hc", "nc", "hc2", "ss")


class ImproverContractError(RuntimeError):
    """An improve step broke its contract (wrong fitness effect or failure)."""


@dataclass
class TraceStep:
    """One trace entry: the state arrived at and how it was reached."""

    genotype: np.ndarray
    fitness: FitnessValue
    kind: str


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
    trace: Optional[list[TraceStep]] = None


def _choose(rng: np.random.Generator, candidates: np.ndarray) -> int:
    """Uniform tie-break among candidate loci."""
    return int(candidates[rng.integers(candidates.size)])


# -- improve steps and termination conditions for the generic skeleton ------

def greedy_evol_step(scan: PlateauScan, rng: np.random.Generator) -> Optional[int]:
    """Flip to a uniformly chosen neutral neighbor of maximal evolvability."""
    evols = scan.neutral_evols
    if evols.size == 0:
        return None
    best = int(evols.max())
    return _choose(rng, scan.neutral_loci[evols == best])


def neutral_drift_step(scan: PlateauScan, rng: np.random.Generator) -> Optional[int]:
    """Flip to a uniformly chosen neutral neighbor; stay put if there is none."""
    loci = scan.neutral_loci
    if loci.size == 0:
        return None
    return _choose(rng, loci)


def jump_to_fittest(scan: PlateauScan, rng: np.random.Generator) -> Optional[int]:
    """Flip to a uniformly chosen strictly fitter neighbor of maximal fitness."""
    flips = scan.flip_totals
    best = int(flips.max())
    if best <= scan.total:
        return None
    return _choose(rng, np.flatnonzero(flips == best))


def until_local_neutral_max(scan: PlateauScan, phase_steps: int) -> bool:
    """True once no neutral neighbor has strictly higher evolvability."""
    evols = scan.neutral_evols
    return evols.size == 0 or int(evols.max()) <= scan.evol_total


def until_local_max(scan: PlateauScan, gate_steps: int) -> bool:
    """True once no neighbor is strictly fitter."""
    return int(scan.flip_totals.max()) <= scan.total


_IMPROVERS = {
    "greedy-evol": greedy_evol_step,
    "neutral-drift": neutral_drift_step,
    "jump-to-fittest": jump_to_fittest,
}

_CONDITIONS = {
    "local-neutral-max": until_local_neutral_max,
    "local-max": until_local_max,
}


def _resolve(spec, registry, what):
    """The function registered under a name; a callable passes through."""
    if not isinstance(spec, str):
        return spec
    try:
        return registry[spec]
    except KeyError:
        raise ValueError(f"unknown {what} {spec!r}") from None


def _resolve_condition(spec):
    """An integer is a phase budget: met after that many improve steps, so 0
    skips the phase."""
    if isinstance(spec, int):
        return lambda scan, phase_steps: phase_steps >= spec
    return _resolve(spec, _CONDITIONS, "termination condition")


# -- the heuristics ----------------------------------------------------------

def hill_climb(landscape, s0, rng, counter=None, trace=False) -> RunResult:
    """Steepest-ascent hill climbing; stops at a (non-strict) local maximum.

    This is scuba with the neutral phase left out: a zero phase budget skips
    it, so every step jumps to a uniformly chosen fittest neighbor.
    """
    return generic_scuba(landscape, s0, neutral_drift_step, 0, jump_to_fittest,
                         until_local_max, rng, counter=counter, trace=trace)


def netcrawler(landscape, s0, rng, step_max=300, counter=None, trace=False) -> RunResult:
    """Uniform one-bit proposals for exactly ``step_max`` steps, accepting
    every proposal that does not lower the total (neutral moves accepted).

    Runs the full budget; with a trace, the last improving entry marks the
    step after which the crawl stopped gaining fitness.
    """
    if step_max <= 0:
        raise ValueError(f"step_max must be positive, got {step_max}")
    counter = EvalCounter() if counter is None else counter
    state = landscape.scores(s0)
    flat = gate = 0
    log = [TraceStep(state.s.copy(), landscape.fitness(state.total), MOVE_INIT)] if trace else None
    # One draw of all loci takes the same values from the stream as one
    # scalar draw per step, and leaves the same next draw.
    for locus in rng.integers(landscape.n, size=step_max).tolist():
        delta = int(state.d[locus])
        if delta >= 0:
            state = state.flip(locus)
            if delta == 0:
                flat += 1
                kind = MOVE_NEUTRAL
            else:
                gate += 1
                kind = MOVE_IMPROVE
        else:
            kind = MOVE_REJECT
        if trace:
            log.append(TraceStep(state.s.copy(), landscape.fitness(state.total), kind))
    # Each proposal is one query, accepted or not.
    counter.add(step_max)
    return RunResult(state.s, landscape.fitness(state.total), step_max, flat, gate,
                     counter.count, log)


def hill_climb2(landscape, s0, rng, counter=None, trace=False) -> RunResult:
    """Hill climbing guided by the distance-2 neighborhood.

    While some point within distance 2 beats the current one: if a direct
    neighbor attains the extended maximum, move to it; otherwise move to a
    neighbor whose own neighborhood attains it (such a lookahead move may
    lower the current fitness). Stops at a distance-2 local maximum. Each
    step scans ``n + n*(n-1)/2`` distinct points.
    """
    counter = EvalCounter() if counter is None else counter
    s = as_genotype(s0, landscape.n).copy()
    total = landscape.total(s)
    steps = flat = gate = 0
    log = [TraceStep(s.copy(), landscape.fitness(total), MOVE_INIT)] if trace else None
    while True:
        _, flips, pairs = extended_scan(landscape, s, counter, total=total)
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
            kind = MOVE_IMPROVE
        elif new_total == total:
            flat += 1
            kind = MOVE_NEUTRAL
        else:
            kind = MOVE_DESCEND
        total = new_total
        steps += 1
        if trace:
            log.append(TraceStep(s.copy(), landscape.fitness(total), kind))
    return RunResult(s, landscape.fitness(total), steps, flat, gate,
                     counter.count, log)


def generic_scuba(landscape, s0, improve1, tc1, improve2, tc2, rng,
                  counter=None, trace=False) -> RunResult:
    """Two-phase skeleton: drift/optimize along the plateau, then jump.

    Repeats { while tc1 unmet: apply improve1 (flat move); if tc2 met:
    stop; apply improve2 (gate move) }. ``improve1`` must preserve the
    integer total (returning ``None`` means "stay put", still counted as a
    flat move); ``improve2`` must strictly increase it, and failing to do so
    when tc2 is unmet raises :class:`ImproverContractError`.

    ``improve1``/``improve2`` accept a strategy name ("greedy-evol" or
    "neutral-drift" for the neutral phase, "jump-to-fittest" for the jump)
    or a callable ``(scan, rng) -> locus | None``; ``tc1``/``tc2`` accept
    "local-neutral-max"/"local-max", an integer phase budget, or a callable
    ``(scan, phase_steps) -> bool``. ``scan`` is a fresh
    :class:`~.neighborhood.PlateauScan` of the current point, a view of the
    score vector the run carries from step to step.
    """
    improve1 = _resolve(improve1, _IMPROVERS, "improver strategy")
    improve2 = _resolve(improve2, _IMPROVERS, "improver strategy")
    tc1 = _resolve_condition(tc1)
    tc2 = _resolve_condition(tc2)
    counter = EvalCounter() if counter is None else counter
    state = landscape.scores(s0)
    total = state.total
    flat = gate = 0
    log = [TraceStep(state.s.copy(), landscape.fitness(total), MOVE_INIT)] if trace else None

    while True:
        scan = PlateauScan(state, counter)
        phase_steps = 0
        while not tc1(scan, phase_steps):
            locus = improve1(scan, rng)
            if locus is not None:
                if int(scan.flip_totals[locus]) != total:
                    raise ImproverContractError(
                        "improve1 must preserve the fitness total"
                    )
                state = state.flip(locus)
            flat += 1
            phase_steps += 1
            if trace:
                log.append(TraceStep(state.s.copy(), landscape.fitness(total), MOVE_NEUTRAL))
            scan = PlateauScan(state, counter)
        if tc2(scan, gate):
            break
        locus = improve2(scan, rng)
        if locus is None or int(scan.flip_totals[locus]) <= total:
            raise ImproverContractError(
                "improve2 failed to strictly improve at a non-terminal point"
            )
        state = state.flip(locus)
        total = state.total
        gate += 1
        if trace:
            log.append(TraceStep(state.s.copy(), landscape.fitness(total), MOVE_IMPROVE))

    return RunResult(state.s, landscape.fitness(total), flat + gate, flat, gate,
                     counter.count, log)


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
    return generic_scuba(
        landscape,
        s0,
        greedy_evol_step,
        until_local_neutral_max,
        jump_to_fittest,
        until_local_max,
        rng,
        counter=counter,
        trace=trace,
    )
