"""One-bit-flip neighborhood structure, evolvability and locality predicates.

The neighborhood of a genotype is itself plus its ``n`` one-bit mutants
(``V``); the neutral neighborhood ``Vn`` keeps the members whose integer
total equals the genotype's own; the extended neighborhood ``V2`` is the
union of the neighborhoods of all members of ``V`` (everything within
Hamming distance 2).

Evaluation accounting: every function here takes an optional
:class:`EvalCounter` and ticks it once per fitness query. The current
point's own fitness is assumed known by the caller and is never charged, so
a neighborhood scan costs exactly ``n`` queries and an extended scan
``n + n*(n-1)/2`` (flip-then-unflip duplicates are deduplicated, never
recharged). Queries are never cached across separate calls: the counter
models the paper's query cost, not the compute behind it.

Every one-bit question, the heuristics' included, goes through one counted
view, :class:`PlateauScan`, of a :class:`~.landscape.ScoreVector` (the total
and one-bit deltas of one genotype); the heuristics carry one score vector
across steps, while :func:`evol`, :func:`neutral_degree` and :func:`is_local`
build one per call. The distance-2 scan is the only other path: one one-row
scan plus the pairwise interaction terms of the components that read both
flipped loci (:meth:`~.landscape.NkqLandscape.pair_scan`), with one batch
scan of the two-bit mutants for ``is_local(..., "evol", "V2")``. Its charge
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import FitnessValue, as_genotype

V = "V"
VN = "Vn"
V2 = "V2"
STRUCTURES = (V, VN, V2)

FITNESS = "f"
EVOLVABILITY = "evol"
GUIDES = (FITNESS, EVOLVABILITY)


@dataclass
class EvalCounter:
    """Monotone count of fitness queries made on behalf of one run."""

    count: int = 0

    def add(self, queries: int) -> None:
        if queries < 0:
            raise ValueError("counter can only move forward")
        self.count += queries


class PlateauScan:
    """Lazy, counted view of one genotype's one-bit neighborhood.

    The view reads a :class:`~.landscape.ScoreVector` (``landscape.scores(s)``),
    which carries the total and the one-bit deltas across steps, so reading a
    view scans nothing: the flip totals are ``total + d`` and the evolvability
    of a neighbor comes from one row of the score vector's mutant deltas. A
    score vector never changes, so a view stays valid after the search has
    moved on. Charges are per view, each made once on first access, and are
    the queries a scan would make: ``flip_totals`` (and so
    ``neutral_loci``, ``degn``, ``evol_total``) costs ``n`` queries,
    ``neutral_evols`` a further ``Degn * n``; every call of ``member_evols``
    costs ``len(loci) * n``. ``total`` is known and never charged.
    """

    def __init__(self, state, counter=None):
        self.state = state
        self.counter = counter
        self._flips: np.ndarray | None = None
        self._neutral_loci: np.ndarray | None = None
        self._neutral_evols: np.ndarray | None = None

    @property
    def landscape(self):
        return self.state.landscape

    @property
    def genotype(self) -> np.ndarray:
        return self.state.s

    @property
    def total(self) -> int:
        return self.state.total

    @property
    def flip_totals(self) -> np.ndarray:
        if self._flips is None:
            self._flips = self.state.total + self.state.d
            if self.counter is not None:
                self.counter.add(self.landscape.n)
        return self._flips

    @property
    def neutral_loci(self) -> np.ndarray:
        if self._neutral_loci is None:
            self._neutral_loci = np.flatnonzero(self.flip_totals == self.total)
        return self._neutral_loci

    @property
    def degn(self) -> int:
        return int(self.neutral_loci.size)

    @property
    def evol_total(self) -> int:
        return max(self.total, int(self.flip_totals.max()))

    def member_evols(self, loci) -> np.ndarray:
        """evol total of the one-bit mutant at each of ``loci``, in order:
        its total plus the best of its own one-bit deltas, or nothing if
        none is positive."""
        if not len(loci):
            return np.empty(0, dtype=np.int64)
        if self.counter is not None:
            self.counter.add(len(loci) * self.landscape.n)
        best = np.maximum(self.state.mutant_deltas(loci).max(axis=1), 0)
        return self.total + self.state.d[loci] + best

    @property
    def neutral_evols(self) -> np.ndarray:
        """evol total of each neutral neighbor, aligned with ``neutral_loci``."""
        if self._neutral_evols is None:
            self._neutral_evols = self.member_evols(self.neutral_loci)
        return self._neutral_evols


def _view(landscape, s, counter) -> PlateauScan:
    return PlateauScan(landscape.scores(s), counter)


def extended_scan(landscape, s, counter=None):
    """``(total, flip_totals, pair_totals)``; costs ``n + n*(n-1)/2`` queries.

    ``pair_totals[i, j]`` is the total of ``s`` with loci ``i`` and ``j``
    both flipped; the diagonal holds ``total`` itself (flip undone).
    """
    scanned = landscape.pair_scan(s)
    if counter is not None:
        n = landscape.n
        counter.add(n + n * (n - 1) // 2)
    return scanned


def evol(landscape, s, counter=None) -> FitnessValue:
    """Maximum fitness over the neighborhood of ``s`` (including ``s``).

    Costs exactly ``n`` counted queries.
    """
    return landscape.fitness(_view(landscape, s, counter).evol_total)


def evol2(landscape, s, counter=None) -> FitnessValue:
    """Maximum fitness over the extended (distance <= 2) neighborhood.

    Costs exactly ``n + n*(n-1)/2`` counted queries.
    """
    total, flips, pairs = extended_scan(landscape, s, counter)
    return landscape.fitness(max(total, int(flips.max()), int(pairs.max())))


def neutral_degree(landscape, s, counter=None) -> int:
    """Number of neutral neighbors of ``s`` (``Degn``), in ``[0, n]``."""
    return _view(landscape, s, counter).degn


def is_local(landscape, s, guide=FITNESS, structure=V, counter=None) -> bool:
    """True iff ``g(s') <= g(s)`` for every ``s'`` in the chosen structure.

    ``guide`` selects g as raw fitness ("f") or evolvability ("evol");
    ``structure`` is one of "V", "Vn", "V2". The comparison is non-strict,
    so plateaus never block locality. Counted query costs:

    ====== ====== ============================================
    guide  struct queries
    ====== ====== ============================================
    f      V      n
    f      Vn     n (scan needed to identify Vn; always True)
    f      V2     n + C(n,2)
    evol   V      n + n*n
    evol   Vn     n + Degn(s)*n  (scuba's inner-guard cost)
    evol   V2     n + C(n,2) + (n + C(n,2))*n
    ====== ====== ============================================
    """
    if guide not in GUIDES:
        raise ValueError(f"guide must be one of {GUIDES}, got {guide!r}")
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
    s = as_genotype(s, landscape.n)
    n = landscape.n

    if structure == V2:
        total, flips, pairs = extended_scan(landscape, s, counter)
        if guide == FITNESS:
            return bool(max(int(flips.max()), int(pairs.max())) <= total)
        # Every point within distance 2, charged n queries each: the n
        # one-bit mutants, whose neighborhoods the pair matrix already holds,
        # then the C(n,2) two-bit mutants, scanned as one batch.
        hi, lo = np.triu_indices(n, k=1)
        if counter is not None:
            counter.add((n + hi.size) * n)
        states = np.repeat(s[None, :], hi.size, axis=0)
        states[np.arange(hi.size), hi] ^= 1
        states[np.arange(hi.size), lo] ^= 1
        two, two_flips = landscape.batch_scan(states)
        evols = np.concatenate((np.maximum(flips, pairs.max(axis=1)),
                                np.maximum(two, two_flips.max(axis=1))))
        return bool(int(evols.max()) <= max(total, int(flips.max())))

    view = _view(landscape, s, counter)
    if guide == FITNESS:
        flips = view.flip_totals
        return structure == VN or bool(int(flips.max()) <= view.total)
    evol_s = view.evol_total
    evols = view.member_evols(view.neutral_loci if structure == VN else np.arange(n))
    return bool(evols.size == 0 or int(evols.max()) <= evol_s)
