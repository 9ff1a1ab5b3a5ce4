import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from dotgrammar import validate_dot
from scubasearch import (
    GraphSizeError,
    annotate,
    build_graph,
    census,
    generate,
    to_dot,
)


def node_tuple(graph, node):
    return oracles.node_genotype(graph.n, node)


def hamming_pairs(graph):
    """The distinct undirected pairs (u, v), u < v, of ``neighbor_ids``."""
    return {(min(v, int(u)), max(v, int(u)))
            for v in range(graph.node_count) for u in graph.neighbor_ids[v]}


class TestBuildGraph:
    def test_n5_counts(self):
        graph = build_graph(generate(5, 2, 2, seed=1))
        assert graph.node_count == 32
        assert len(hamming_pairs(graph)) == 5 * 2**4 == 80

    def test_n1_counts(self):
        graph = build_graph(generate(1, 0, 2, seed=1))
        assert graph.node_count == 2
        assert hamming_pairs(graph) == {(0, 1)}

    def test_totals_match_reevaluation(self):
        landscape = generate(6, 2, 3, seed=5)
        graph = build_graph(landscape)
        for node in range(graph.node_count):
            assert graph.totals[node] == oracles.naive_total(landscape, node_tuple(graph, node))

    def test_edges_are_hamming_one(self):
        graph = build_graph(generate(4, 1, 2, seed=2))
        pairs = hamming_pairs(graph)
        assert len(pairs) == 4 * 2**3
        for u, v in pairs:
            assert bin(u ^ v).count("1") == 1

    def test_too_large_rejected(self):
        with pytest.raises(GraphSizeError, match="12"):
            build_graph(generate(13, 2, 2, seed=1))


class TestAnnotateHC:
    def test_constant_has_no_arrows(self):
        graph = build_graph(constant_landscape(4))
        annotated = annotate(graph, "hc")
        assert annotated.solid == []
        assert annotated.dotted == []

    def test_onemax_every_node_but_top(self):
        graph = build_graph(onemax_landscape(3))
        annotated = annotate(graph, "hc")
        sources = [u for u, _ in annotated.solid]
        assert sorted(sources) == [0, 1, 2, 3, 4, 5, 6]
        assert len(annotated.solid) == 7

    def test_out_degree_zero_exactly_at_local_maxima(self):
        for seed in (1, 2, 3):
            landscape = generate(5, 2, 2, seed=seed)
            graph = build_graph(landscape)
            annotated = annotate(graph, "hc")
            sources = {u for u, _ in annotated.solid}
            assert len(sources) == len(annotated.solid)  # out-degree <= 1
            fm = oracles.fitness_map(landscape)
            local = {u for u in range(32) if node_tuple(graph, u) in oracles.v_local_set(fm)}
            assert sources == set(range(32)) - local

    def test_arrows_strictly_improve(self):
        graph = build_graph(generate(6, 1, 2, seed=9))
        annotated = annotate(graph, "hc")
        for u, v in annotated.solid:
            assert graph.totals[v] > graph.totals[u]


class TestAnnotateSS:
    def test_arrow_partition(self):
        # dotted at plateau nodes with evolvability still to gain, solid jumps
        # at local-neutral non-local nodes, nothing at scuba terminals
        landscape = generate(5, 2, 2, seed=7)
        graph = build_graph(landscape)
        annotated = annotate(graph, "ss")
        dotted_src = {u for u, _ in annotated.dotted}
        solid_src = {u for u, _ in annotated.solid}
        assert not (dotted_src & solid_src)
        totals = graph.totals
        nbr_totals = totals[graph.neighbor_ids]
        evol_node = np.maximum(totals, nbr_totals.max(axis=1))
        for u, v in annotated.dotted:
            assert totals[u] == totals[v]
            assert evol_node[v] > evol_node[u]
        for u, v in annotated.solid:
            assert totals[v] > totals[u]
            assert totals[v] == evol_node[u]

    def test_constant_landscape_silent(self):
        graph = build_graph(constant_landscape(4))
        annotated = annotate(graph, "ss")
        assert annotated.solid == [] and annotated.dotted == []


class TestAnnotateNC:
    def test_dotted_components_are_neutral_networks(self):
        for seed in (3, 4):
            landscape = generate(5, 2, 2, seed=seed)
            graph = build_graph(landscape)
            annotated = annotate(graph, "nc")
            # undirected, emitted once per pair
            assert all(u < v for u, v in annotated.dotted)
            parent = list(range(32))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in annotated.dotted:
                parent[find(u)] = find(v)
            components = {}
            for node in range(32):
                components.setdefault(find(node), set()).add(node)
            got = {frozenset(node_tuple(graph, n) for n in comp)
                   for comp in components.values()}
            fm = oracles.fitness_map(landscape)
            expected = {frozenset(comp) for comp in oracles.neutral_networks(fm)}
            assert got == expected

    def test_solid_to_every_fitter_neighbor(self):
        landscape = generate(4, 1, 3, seed=5)
        graph = build_graph(landscape)
        annotated = annotate(graph, "nc")
        expected = set()
        for v in range(graph.node_count):
            for u in graph.neighbor_ids[v]:
                if graph.totals[u] > graph.totals[v]:
                    expected.add((v, int(u)))
        assert set(annotated.solid) == expected


class TestAnnotateHC2:
    def test_sources_are_non_v2_local(self):
        landscape = generate(5, 2, 2, seed=11)
        graph = build_graph(landscape)
        annotated = annotate(graph, "hc2")
        fm = oracles.fitness_map(landscape)
        v2_local = {u for u in range(32)
                    if node_tuple(graph, u) in oracles.v2_local_set(fm)}
        sources = {u for u, _ in annotated.solid}
        assert len(sources) == len(annotated.solid)
        assert sources == set(range(32)) - v2_local

    def test_unknown_kind(self):
        graph = build_graph(generate(3, 0, 2, seed=1))
        with pytest.raises(ValueError):
            annotate(graph, "sa")


class TestToDot:
    def test_two_node_graph(self):
        graph = build_graph(onemax_landscape(1))
        dot = to_dot(annotate(graph, "hc"))
        validate_dot(dot)
        node_lines = [l for l in dot.splitlines() if "fillcolor" in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == 2
        assert len(edge_lines) == 1

    def test_deterministic(self):
        landscape = generate(5, 2, 2, seed=13)
        a = to_dot(annotate(build_graph(landscape), "ss"))
        b = to_dot(annotate(build_graph(landscape), "ss"))
        assert a == b

    def test_paper_scale_instance_renders(self):
        landscape = generate(5, 2, 2, seed=3)
        dot = to_dot(annotate(build_graph(landscape), "ss"))
        validate_dot(dot)
        assert len([l for l in dot.splitlines() if "fillcolor" in l]) == 32

    def test_grayscale_extremes(self):
        landscape = generate(5, 2, 2, seed=3)
        graph = build_graph(landscape)
        dot = to_dot(annotate(graph, "hc"))
        lo = int(graph.totals.argmin())
        hi = int(graph.totals.argmax())
        assert f'{lo} [fillcolor="gray0"]' in dot
        assert f'{hi} [fillcolor="gray100"]' in dot

    def test_constant_landscape_mid_gray(self):
        dot = to_dot(annotate(build_graph(constant_landscape(3)), "nc"))
        validate_dot(dot)
        assert dot.count('fillcolor="gray50"') == 8

    def test_nc_dotted_undirected(self):
        dot = to_dot(annotate(build_graph(constant_landscape(3)), "nc"))
        assert "dir=none" in dot


class TestCensus:
    def test_onemax(self):
        result = census(onemax_landscape(4))
        assert result.v_local_count == 1
        assert result.v2_local_count == 1
        assert result.ss_terminal_count == 1
        assert result.local_nodes["f", "V"] == {0b1111}

    def test_v2_at_most_v(self):
        for seed in range(6):
            result = census(generate(5, 2, 2, seed=seed))
            assert result.v2_local_count <= result.v_local_count

    def test_matches_brute_force(self):
        for seed in (2, 5):
            landscape = generate(5, 2, 2, seed=seed)
            graph = build_graph(landscape)
            fm = oracles.fitness_map(landscape)
            result = census(landscape)
            v_local = {u for u in range(32)
                       if node_tuple(graph, u) in oracles.v_local_set(fm)}
            v2_local = {u for u in range(32)
                        if node_tuple(graph, u) in oracles.v2_local_set(fm)}
            assert result.local_nodes["f", "V"] == v_local
            assert result.local_nodes["f", "V2"] == v2_local
            assert result.neutral_network_count == len(oracles.neutral_networks(fm))
            assert result.ss_terminal_nodes <= v_local

    def test_ss_terminals_are_ends_of_scuba_paths(self):
        # Follow the scuba annotation from every node to where it stops.
        for landscape in (generate(6, 2, 2, seed=3), generate(7, 1, 3, seed=8),
                          constant_landscape(4), onemax_landscape(5)):
            ss = annotate(build_graph(landscape), "ss")
            step = dict(ss.dotted)
            step.update(ss.solid)
            ends = set()
            for v in range(1 << landscape.n):
                while v in step:
                    v = step[v]
                ends.add(v)
            assert census(landscape).ss_terminal_nodes == ends

    def test_csv_row(self):
        landscape = generate(5, 2, 2, seed=9)
        row = census(landscape).csv_row(landscape)
        fields = row.split(",")
        assert fields[:5] == ["5", "2", "2", "random", "9"]
        assert fields[5] == "32"
