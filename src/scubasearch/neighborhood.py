"""The distance-2 scan of two-step hill climbing.

The neighborhood ``V`` of a genotype is itself plus its ``n`` one-bit
mutants; the extended neighborhood ``V2`` is everything within Hamming
distance 2, ``n + n*(n-1)/2`` points besides the genotype itself.
:func:`extended_scan` reads their totals off the one-bit deltas and pair
sums of one genotype (:meth:`~.landscape._Group._pair_sums` of the
landscape's cached group, which hc2 builds for a chunk of runs and carries
across their moves); each searcher in :mod:`.heuristics` states its own
query charge. Locality over
every genotype of a small landscape is :func:`~.pathgraph.census`.
"""

from __future__ import annotations

from .heuristics import check_pair_totals
from .landscape import as_genotype


def extended_scan(landscape, s):
    """``(n, n)`` int64 pair totals of genotype ``s`` of ``landscape``:
    entry ``[i, j]`` is the total with loci ``i`` and ``j`` both flipped,
    the diagonal the total of ``s``; refused past hc2's ``n*n`` bound."""
    check_pair_totals(landscape.n)
    group = landscape._group
    idx, totals, d = group._row_deltas(as_genotype(s, landscape.n)[None])
    return (totals + d)[0, :, None] + group._pair_gains(group._pair_sums(idx, [0]), d)[0]
