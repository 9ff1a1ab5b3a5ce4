"""Small landscapes as fully enumerated hypercube graphs with search edges.

Every genotype of an ``n <= 12`` landscape becomes a node (labeled by the
integer value of its bit string, locus 0 most significant); nodes at
Hamming distance 1 are linked. A heuristic-specific annotation then picks
out the salient edges: the moves hill climbing, scuba, the netcrawler or
two-step hill climbing could make from each node. Unlike the stochastic
heuristics, annotations break ties deterministically (lowest flip locus),
drawing one representative path family so the DOT output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import NkqLandscape

MAX_GRAPH_N = 12

GRAPH_KINDS = ("hc", "ss", "nc", "hc2")

CENSUS_HEADER = "n,k,q,mode,seed,nodes,v_local,v2_local,ss_terminals,neutral_networks"


class GraphSizeError(ValueError):
    """Landscape too large to enumerate."""


@dataclass
class LandscapeGraph:
    """Exhaustive view of a small landscape.

    ``totals[v]`` is the exact fitness total of node ``v``;
    ``neighbor_ids[v, l]`` the node reached from ``v`` by flipping locus
    ``l``, so the ``2**n`` nodes have ``n * 2**(n-1)`` distinct
    Hamming-distance-1 pairs.
    """

    landscape: NkqLandscape
    totals: np.ndarray
    neighbor_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.landscape.n

    @property
    def node_count(self) -> int:
        return 1 << self.n


def build_graph(landscape: NkqLandscape) -> LandscapeGraph:
    """Enumerate all ``2**n`` genotypes with exact totals; requires n <= 12."""
    n = landscape.n
    if n > MAX_GRAPH_N:
        raise GraphSizeError(
            f"n={n} would enumerate 2**{n} nodes; path graphs support "
            f"n <= {MAX_GRAPH_N}. Use the heuristics/experiments modules "
            f"for larger landscapes."
        )
    ids = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = ((ids[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    totals = landscape.batch_totals(bits)
    neighbor_ids = ids[:, None] ^ (1 << shifts)[None, :]
    return LandscapeGraph(landscape, totals, neighbor_ids)


@dataclass
class AnnotatedGraph:
    """A landscape graph plus one heuristic's salient edges.

    ``solid`` edges are directed fitness moves; ``dotted`` edges are
    neutral (scuba: directed evolvability moves along the plateau;
    netcrawler: undirected equal-fitness links).
    """

    graph: LandscapeGraph
    kind: str
    solid: list[tuple[int, int]]
    dotted: list[tuple[int, int]]
    dotted_directed: bool


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
    if kind not in GRAPH_KINDS:
        raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    totals = graph.totals
    nbr_ids = graph.neighbor_ids
    nbr_totals = totals[nbr_ids]
    best = nbr_totals.max(axis=1)
    solid: list[tuple[int, int]] = []
    dotted: list[tuple[int, int]] = []
    dotted_directed = kind != "nc"

    if kind == "hc":
        for v in np.flatnonzero(best > totals):
            solid.append((int(v), int(nbr_ids[v, nbr_totals[v].argmax()])))

    elif kind == "ss":
        evol_node = np.maximum(totals, best)
        neutral = nbr_totals == totals[:, None]
        plateau_evols = np.where(neutral, evol_node[nbr_ids], -1)
        plateau_best = plateau_evols.max(axis=1)
        for v in range(graph.node_count):
            if plateau_best[v] > evol_node[v]:
                dotted.append((v, int(nbr_ids[v, plateau_evols[v].argmax()])))
            elif best[v] > totals[v]:
                solid.append((v, int(nbr_ids[v, nbr_totals[v].argmax()])))

    elif kind == "nc":
        for v in range(graph.node_count):
            for l in range(graph.n):
                u = int(nbr_ids[v, l])
                if nbr_totals[v, l] > totals[v]:
                    solid.append((v, u))
                elif nbr_totals[v, l] == totals[v] and v < u:
                    dotted.append((v, u))

    else:  # hc2
        evol_node = np.maximum(totals, best)
        evol2_node = np.maximum(evol_node, evol_node[nbr_ids].max(axis=1))
        nbr_evols = evol_node[nbr_ids]
        for v in np.flatnonzero(evol2_node > totals):
            v = int(v)
            if evol_node[v] == evol2_node[v]:
                locus = (nbr_totals[v] == evol2_node[v]).argmax()
            else:
                locus = (nbr_evols[v] == evol2_node[v]).argmax()
            solid.append((v, int(nbr_ids[v, locus])))

    return AnnotatedGraph(graph, kind, solid, dotted, dotted_directed)


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
    style = "[style=dotted]" if annotated.dotted_directed else "[style=dotted, dir=none]"
    for u, v in sorted(annotated.dotted):
        lines.append(f"  {u} -> {v} {style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class Census:
    """Exhaustive structural counts of a small landscape."""

    node_count: int
    v_local_nodes: frozenset[int]
    v2_local_nodes: frozenset[int]
    ss_terminal_nodes: frozenset[int]
    neutral_network_count: int

    @property
    def v_local_count(self) -> int:
        return len(self.v_local_nodes)

    @property
    def v2_local_count(self) -> int:
        return len(self.v2_local_nodes)

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


def census(landscape: NkqLandscape) -> Census:
    """Count local maxima (distance 1 and 2), the terminals reachable by the
    deterministic scuba annotation from every node, and neutral networks
    (connected components of the equal-fitness Hamming-1 relation,
    singletons included)."""
    graph = build_graph(landscape)
    totals = graph.totals
    nbr_ids = graph.neighbor_ids
    nbr_totals = totals[nbr_ids]
    best = nbr_totals.max(axis=1)
    evol_node = np.maximum(totals, best)
    evol2_node = np.maximum(evol_node, evol_node[nbr_ids].max(axis=1))

    v_local = frozenset(int(v) for v in np.flatnonzero(best <= totals))
    v2_local = frozenset(int(v) for v in np.flatnonzero(evol2_node <= totals))

    ss = annotate(graph, "ss")
    step: dict[int, int] = dict(ss.dotted)
    step.update(ss.solid)
    terminal_of: dict[int, int] = {}

    def resolve(v: int) -> int:
        path = []
        while v in step and v not in terminal_of:
            path.append(v)
            v = step[v]
        end = terminal_of.get(v, v)
        for p in path:
            terminal_of[p] = end
        return end

    terminals = frozenset(resolve(v) for v in range(graph.node_count))

    uf = _UnionFind(graph.node_count)
    for v in range(graph.node_count):
        for l in range(graph.n):
            if nbr_totals[v, l] == totals[v]:
                uf.union(v, int(nbr_ids[v, l]))
    networks = len({uf.find(v) for v in range(graph.node_count)})

    return Census(graph.node_count, v_local, v2_local, terminals, networks)
