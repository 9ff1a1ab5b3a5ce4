"""The distance-2 scan of two-step hill climbing.

The neighborhood ``V`` of a genotype is itself plus its ``n`` one-bit
mutants; the extended neighborhood ``V2`` is everything within Hamming
distance 2, ``n + n*(n-1)/2`` points besides the genotype itself.
:func:`extended_scan` reads their totals off the score vector a run carries
(:meth:`~.landscape.ScoreVector.pair_scan`); each searcher in
:mod:`.heuristics` states its own query charge. Locality over every
genotype of a small landscape is :func:`~.pathgraph.census`.
"""

from __future__ import annotations


def extended_scan(landscape, state):
    """``(n, n)`` pair totals of score vector ``state`` of ``landscape``:
    entry ``[i, j]`` is the total with loci ``i`` and ``j`` both flipped,
    and the diagonal holds ``state.total`` itself (flip undone)."""
    return state.pair_scan()
