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
recharged). Queries are never cached across separate calls.
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


def flip_neighbors(s) -> list[np.ndarray]:
    """The ``n`` genotypes at Hamming distance exactly 1, in locus order."""
    s = as_genotype(s)
    out = []
    for locus in range(s.size):
        mutant = s.copy()
        mutant[locus] ^= 1
        out.append(mutant)
    return out


def _flip_states(s: np.ndarray, loci: np.ndarray) -> np.ndarray:
    states = np.repeat(s[None, :], loci.size, axis=0)
    states[np.arange(loci.size), loci] ^= 1
    return states


def neighbor_scan(landscape, s, counter=None, total=None):
    """``(total, flip_totals)`` for ``s``; costs ``n`` counted queries.

    ``total`` may be passed by callers that already know it.
    """
    s = as_genotype(s, landscape.n)
    totals, flips = landscape.batch_scan(s[None, :])
    if total is None:
        total = int(totals[0])
    if counter is not None:
        counter.add(landscape.n)
    return int(total), flips[0]


def extended_scan(landscape, s, counter=None, total=None):
    """``(total, flip_totals, pair_totals)``; costs ``n + n*(n-1)/2`` queries.

    ``pair_totals[i, j]`` is the total of ``s`` with loci ``i`` and ``j``
    both flipped; the diagonal holds ``total`` itself (flip undone).
    """
    s = as_genotype(s, landscape.n)
    n = landscape.n
    flips_states = _flip_states(s, np.arange(n))
    flip_totals, pair_totals = landscape.batch_scan(flips_states)
    if total is None:
        total = int(pair_totals[0, 0])
    if counter is not None:
        counter.add(n + n * (n - 1) // 2)
    return int(total), flip_totals, pair_totals


def _member_evols(landscape, s, loci, counter):
    """evol of each one-bit mutant of ``s`` at ``loci``; ``n`` queries each."""
    if loci.size == 0:
        return np.empty(0, dtype=np.int64)
    totals, flips = landscape.batch_scan(_flip_states(s, loci))
    if counter is not None:
        counter.add(int(loci.size) * landscape.n)
    return np.maximum(totals, flips.max(axis=1))


def evol(landscape, s, counter=None, *, total=None) -> FitnessValue:
    """Maximum fitness over the neighborhood of ``s`` (including ``s``).

    Costs exactly ``n`` counted queries.
    """
    total, flips = neighbor_scan(landscape, s, counter, total)
    return landscape.fitness(max(total, int(flips.max())))


def evol2(landscape, s, counter=None, *, total=None) -> FitnessValue:
    """Maximum fitness over the extended (distance <= 2) neighborhood.

    Costs exactly ``n + n*(n-1)/2`` counted queries.
    """
    total, flips, pairs = extended_scan(landscape, s, counter, total)
    return landscape.fitness(max(total, int(flips.max()), int(pairs.max())))


def neutral_neighbors(landscape, s, counter=None, *, total=None) -> list[np.ndarray]:
    """Members of ``V(s)`` other than ``s`` with total equal to ``s``'s."""
    s = as_genotype(s, landscape.n)
    total, flips = neighbor_scan(landscape, s, counter, total)
    return [m for m, t in zip(flip_neighbors(s), flips) if int(t) == total]


def neutral_degree(landscape, s, counter=None, *, total=None) -> int:
    """Number of neutral neighbors of ``s`` (``Degn``), in ``[0, n]``."""
    total, flips = neighbor_scan(landscape, s, counter, total)
    return int(np.count_nonzero(flips == total))


def is_local(landscape, s, guide=FITNESS, structure=V, counter=None, *, total=None) -> bool:
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

    if guide == FITNESS:
        if structure == V2:
            total, flips, pairs = extended_scan(landscape, s, counter, total)
            return bool(max(int(flips.max()), int(pairs.max())) <= total)
        total, flips = neighbor_scan(landscape, s, counter, total)
        if structure == VN:
            return True
        return bool(int(flips.max()) <= total)

    if structure in (V, VN):
        total, flips = neighbor_scan(landscape, s, counter, total)
        evol_s = max(total, int(flips.max()))
        loci = np.arange(n) if structure == V else np.flatnonzero(flips == total)
        evols = _member_evols(landscape, s, loci, counter)
        return bool(evols.size == 0 or int(evols.max()) <= evol_s)

    total, flips, pairs = extended_scan(landscape, s, counter, total)
    evol_s = max(total, int(flips.max()))
    d1 = _member_evols(landscape, s, np.arange(n), counter)
    hi, lo = np.triu_indices(n, k=1)
    states = np.repeat(s[None, :], hi.size, axis=0)
    states[np.arange(hi.size), hi] ^= 1
    states[np.arange(lo.size), lo] ^= 1
    if states.shape[0]:
        totals2, flips2 = landscape.batch_scan(states)
        if counter is not None:
            counter.add(states.shape[0] * n)
        d2_max = int(np.maximum(totals2, flips2.max(axis=1)).max())
    else:
        d2_max = evol_s
    return bool(max(int(d1.max()) if d1.size else evol_s, d2_max) <= evol_s)
