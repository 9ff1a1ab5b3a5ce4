"""Evaluation accounting and the counted distance-2 scan.

The neighborhood of a genotype is itself plus its ``n`` one-bit mutants
(``V``); the extended neighborhood ``V2`` is everything within Hamming
distance 2. :class:`EvalCounter` models the paper's query cost: the current
point's own fitness is assumed known and is never charged, so a scan of
``V`` costs exactly ``n`` queries and a scan of ``V2``
``n + n*(n-1)/2`` (flip-then-unflip duplicates are deduplicated, never
recharged). Queries are never cached across separate calls: the counter
counts the queries, not the compute behind them.

The one-bit searchers charge their own scans (see :mod:`.heuristics`);
:func:`extended_scan` is the counted distance-2 scan of two-step hill
climbing, one one-row scan plus the pairwise interaction terms of the
components that read both flipped loci
(:meth:`~.landscape.NkqLandscape.pair_scan`). Locality over every genotype
of a small landscape is :func:`~.pathgraph.census`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EvalCounter:
    """Monotone count of fitness queries made on behalf of one run."""

    count: int = 0

    def add(self, queries: int) -> None:
        if queries < 0:
            raise ValueError("counter can only move forward")
        self.count += queries


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
