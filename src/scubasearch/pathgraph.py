"""Small landscapes as fully enumerated hypercube graphs with search edges.

Every genotype of an ``n <= 12`` landscape becomes a node (labeled by the
integer value of its bit string, locus 0 most significant); nodes at
Hamming distance 1 are linked. A heuristic-specific annotation then picks
out the salient edges: the moves hill climbing, scuba, the netcrawler or
two-step hill climbing could make from each node. Unlike the stochastic
heuristics, annotations break ties deterministically (lowest flip locus),
drawing one representative path family so the DOT output is reproducible.

Building the graph also evaluates the paper's six locality predicates
(fitness or evolvability over V, Vn or V2) at every node in one vectorized
pass; the annotations read them, and :func:`census` reports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heuristics import HEURISTICS
from .landscape import NkqLandscape

MAX_GRAPH_N = 12

CENSUS_HEADER = "n,k,q,mode,seed,nodes,v_local,v2_local,ss_terminals,neutral_networks"


class GraphSizeError(ValueError):
    """Landscape too large to enumerate."""


@dataclass
class LandscapeGraph:
    """Exhaustive view of a small landscape.

    ``totals[v]`` is the exact fitness total of node ``v``;
    ``neighbor_ids[v, l]`` the node reached from ``v`` by flipping locus
    ``l``, so the ``2**n`` nodes have ``n * 2**(n-1)`` distinct
    Hamming-distance-1 pairs, and ``neighbor_totals[v, l]`` its total.
    ``evol_v[v]`` is the evolvability of ``v`` (the best total over its
    neighborhood V), ``evol_v2[v]`` the best total over its distance-2
    neighborhood V2, and ``plateau_evols[v, l]`` the evolvability of the
    neighbor at ``l`` when that neighbor is neutral, else -1.

    ``local[guide, structure]`` is the paper's locality predicate at every
    node, a boolean array: ``g(s') <= g(s)`` for every ``s'`` in the
    structure (``"V"``, ``"Vn"`` the neutral neighborhood, or ``"V2"``),
    with ``g`` the total (guide ``"f"``) or the evolvability (``"evol"``).
    """

    landscape: NkqLandscape
    totals: np.ndarray
    neighbor_ids: np.ndarray
    neighbor_totals: np.ndarray
    evol_v: np.ndarray
    evol_v2: np.ndarray
    plateau_evols: np.ndarray
    local: dict[tuple[str, str], np.ndarray]

    @property
    def n(self) -> int:
        return self.landscape.n

    @property
    def node_count(self) -> int:
        return 1 << self.n


def check_graph_size(n: int) -> None:
    """Raise :class:`GraphSizeError` unless a landscape of ``n`` loci can be
    enumerated (``n <= MAX_GRAPH_N``)."""
    if n > MAX_GRAPH_N:
        raise GraphSizeError(
            f"n={n} would enumerate 2**{n} nodes; path graphs support "
            f"n <= {MAX_GRAPH_N}. Use the heuristics/experiments modules "
            f"for larger landscapes."
        )


def build_graph(landscape: NkqLandscape) -> LandscapeGraph:
    """Enumerate all ``2**n`` genotypes with exact totals and their
    locality, in one vectorized pass; requires n <= 12."""
    n = landscape.n
    check_graph_size(n)
    ids = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = ((ids[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    totals = landscape.batch_totals(bits)
    nbr_ids = ids[:, None] ^ (1 << shifts)[None, :]
    nbr_totals = totals[nbr_ids]
    evol_v = np.maximum(totals, nbr_totals.max(axis=1))
    nbr_evols = evol_v[nbr_ids]
    evol_v2 = np.maximum(evol_v, nbr_evols.max(axis=1))
    # Totals are non-negative, so -1 never beats an evolvability.
    plateau_evols = np.where(nbr_totals == totals[:, None], nbr_evols, -1)
    local = {
        ("f", "V"): evol_v <= totals,
        ("f", "Vn"): np.ones(ids.size, dtype=bool),
        ("f", "V2"): evol_v2 <= totals,
        ("evol", "V"): nbr_evols.max(axis=1) <= evol_v,
        ("evol", "Vn"): plateau_evols.max(axis=1) <= evol_v,
        # V2 is the union of the neighbors' neighborhoods V, node included.
        ("evol", "V2"): evol_v2[nbr_ids].max(axis=1) <= evol_v,
    }
    return LandscapeGraph(landscape, totals, nbr_ids, nbr_totals, evol_v, evol_v2,
                          plateau_evols, local)


@dataclass
class AnnotatedGraph:
    """A landscape graph plus one heuristic's salient edges.

    ``solid`` edges are directed fitness moves; ``dotted`` edges are
    neutral (scuba: directed evolvability moves along the plateau;
    netcrawler, ``kind == "nc"``: undirected equal-fitness links).
    """

    graph: LandscapeGraph
    kind: str
    solid: list[tuple[int, int]]
    dotted: list[tuple[int, int]]


def _edges(graph: LandscapeGraph, nodes: np.ndarray, loci: np.ndarray) -> list[tuple[int, int]]:
    """The edges from ``nodes[i]`` to its neighbor at ``loci[i]``."""
    return list(zip(nodes.tolist(), graph.neighbor_ids[nodes, loci].tolist()))


def _best_moves(graph: LandscapeGraph, mask: np.ndarray,
                scores: np.ndarray) -> list[tuple[int, int]]:
    """One edge from each node of ``mask`` to its lowest-locus neighbor of
    highest ``scores[node]``."""
    nodes = np.flatnonzero(mask)
    return _edges(graph, nodes, scores[nodes].argmax(axis=1))


def annotate(graph: LandscapeGraph, kind: str) -> AnnotatedGraph:
    """Pick out the edges the given heuristic could follow from each node.

    hc:  one solid arrow per non-local node to its (lowest-locus) fittest
         neighbor.
    ss:  one dotted arrow per node whose plateau still offers strictly
         higher evolvability; one solid jump arrow per local-neutral,
         non-local node.
    nc:  solid arrows to every strictly fitter neighbor, dotted undirected
         links between all equal-fitness neighbors.
    hc2: one solid arrow per non-distance-2-local node, to the fittest
         neighbor when a neighbor attains the extended maximum, else to the
         (lowest-locus) neighbor whose own neighborhood attains it.
    """
    if kind not in HEURISTICS:
        raise ValueError(f"kind must be one of {HEURISTICS}, got {kind!r}")
    local, nbr_totals, dotted = graph.local, graph.neighbor_totals, []
    if kind == "hc":
        solid = _best_moves(graph, ~local["f", "V"], nbr_totals)
    elif kind == "ss":
        plateau_local = local["evol", "Vn"]
        dotted = _best_moves(graph, ~plateau_local, graph.plateau_evols)
        solid = _best_moves(graph, plateau_local & ~local["f", "V"], nbr_totals)
    elif kind == "nc":
        rise = nbr_totals - graph.totals[:, None]
        solid = _edges(graph, *np.nonzero(rise > 0))
        # Each undirected link once, from its lower node.
        ids = np.arange(graph.node_count)[:, None]
        dotted = _edges(graph, *np.nonzero((rise == 0) & (graph.neighbor_ids > ids)))
    else:  # hc2
        evol_v, evol_v2 = graph.evol_v, graph.evol_v2
        reach = np.where((evol_v == evol_v2)[:, None], nbr_totals, evol_v[graph.neighbor_ids])
        solid = _best_moves(graph, ~local["f", "V2"], reach == evol_v2[:, None])
    return AnnotatedGraph(graph, kind, solid, dotted)


def _gray_level(total: int, lo: int, hi: int) -> int:
    if hi == lo:
        return 50
    return round(100 * (total - lo) / (hi - lo))


def to_dot(annotated: AnnotatedGraph) -> str:
    """Render as DOT: nodes shaded black (landscape minimum) to white
    (maximum), solid vs dotted edge styles, deterministic node order."""
    graph = annotated.graph
    totals = graph.totals
    lo, hi = int(totals.min()), int(totals.max())
    lines = [
        "digraph landscape {",
        "  node [shape=circle, style=filled];",
    ]
    for v in range(graph.node_count):
        lines.append(f'  {v} [fillcolor="gray{_gray_level(int(totals[v]), lo, hi)}"];')
    for u, v in sorted(annotated.solid):
        lines.append(f"  {u} -> {v};")
    style = "[style=dotted, dir=none]" if annotated.kind == "nc" else "[style=dotted]"
    for u, v in sorted(annotated.dotted):
        lines.append(f"  {u} -> {v} {style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class Census:
    """Exhaustive structural counts of a small landscape.

    ``local_nodes[guide, structure]`` holds the nodes where the locality
    predicate ``LandscapeGraph.local[guide, structure]`` holds, for each of
    the six pairs of guide (``"f"``, ``"evol"``) and structure (``"V"``,
    ``"Vn"``, ``"V2"``).
    """

    node_count: int
    local_nodes: dict[tuple[str, str], frozenset[int]]
    ss_terminal_nodes: frozenset[int]
    neutral_network_count: int

    @property
    def v_local_count(self) -> int:
        return len(self.local_nodes["f", "V"])

    @property
    def v2_local_count(self) -> int:
        return len(self.local_nodes["f", "V2"])

    @property
    def ss_terminal_count(self) -> int:
        return len(self.ss_terminal_nodes)

    def csv_row(self, landscape: NkqLandscape) -> str:
        seed = "none" if landscape.seed is None else landscape.seed
        return (
            f"{landscape.n},{landscape.k},{landscape.q},{landscape.mode},"
            f"{seed},{self.node_count},{self.v_local_count},"
            f"{self.v2_local_count},{self.ss_terminal_count},"
            f"{self.neutral_network_count}"
        )


def _nodes(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def census(landscape: NkqLandscape) -> Census:
    """Every locality predicate over all nodes, the nodes where scuba stops,
    and the neutral networks (connected components of the equal-fitness
    Hamming-1 relation, singletons included).

    Scuba stops where no neutral neighbor has a higher evolvability and no
    neighbor is fitter (evol-local over Vn and f-local over V). Each of its
    moves strictly raises the total, or keeps it and strictly raises the
    evolvability, so the scuba annotation leads every node to one of these
    nodes, and each of them is its own end.
    """
    graph = build_graph(landscape)
    local = graph.local
    terminals = _nodes(local["evol", "Vn"] & local["f", "V"])

    # Each node takes the least label over itself and its neutral neighbors,
    # then that label's own label, until no label falls: then every network
    # holds one label, one of its own nodes.
    neutral = graph.neighbor_totals == graph.totals[:, None]
    labels, previous = np.arange(graph.node_count), None
    while not np.array_equal(labels, previous):
        least = np.where(neutral, labels[graph.neighbor_ids], labels[:, None]).min(axis=1)
        previous, labels = labels, np.minimum(labels, least)
        labels = labels[labels]
    networks = np.unique(labels).size

    return Census(graph.node_count, {key: _nodes(mask) for key, mask in local.items()},
                  terminals, networks)
