"""The paper's neighborhood vocabulary against brute force: evolvability over
V and V2, the neutral degree, and the six locality predicates.

A searcher reads the neutral degree of a genotype as the zero one-bit
deltas of its score vector; evolvability and locality over every genotype
of a small landscape come from its exhaustive graph and census.
"""

import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from scubasearch import (
    ADJACENT,
    RANDOM,
    LandscapeError,
    build_graph,
    census,
    extended_scan,
    generate,
)


def random_instances(count=4, n_range=(6, 9), seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(*n_range))
        k = int(rng.integers(0, min(4, n - 1) + 1))
        q = int(rng.choice([2, 3, 4, 100]))
        out.append(generate(n, k, q, RANDOM, seed=int(rng.integers(1 << 30))))
    return out


def neutral_loci(landscape, s):
    """The loci whose flip keeps the total: the zero deltas of ``s`` from a
    one-row ``_row_deltas`` scan."""
    _, _, deltas = landscape._group._row_deltas(np.asarray(s, dtype=np.uint8)[None])
    return np.flatnonzero(deltas[0] == 0)


def genotypes(n):
    """``(node, genotype tuple)`` for every node of an n-locus graph."""
    return [(node, oracles.node_genotype(n, node)) for node in range(1 << n)]


def test_extended_scan_refuses_hc2_sized_pair_totals(monkeypatch):
    # n*n above MAX_TABLE_ENTRIES is refused before the two (1, n, n) int64
    # arrays of the pair gains, about 1 GiB each, are allocated.
    landscape = generate(11586, 0, 2, ADJACENT, seed=1)
    s = np.zeros(landscape.n, dtype=np.uint8)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the bound was checked")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(LandscapeError, match="MAX_TABLE_ENTRIES"):
        extended_scan(landscape, s)


class TestEvolvability:
    def test_constant_landscape(self):
        graph = build_graph(constant_landscape(6, q=3))
        assert graph.evol_v.tolist() == graph.totals.tolist()
        assert graph.evol_v2.tolist() == graph.totals.tolist()

    def test_onemax_from_zeros(self):
        graph = build_graph(onemax_landscape(5))
        assert graph.evol_v[0] == 1
        assert graph.evol_v2[0] == 2

    def test_matches_brute_force(self):
        for landscape in random_instances():
            graph = build_graph(landscape)
            fm = oracles.fitness_map(landscape)
            for node, s in genotypes(landscape.n):
                assert graph.evol_v[node] == oracles.evol(fm, s)
                assert graph.evol_v2[node] == oracles.evol2(fm, s)

    def test_ordering_invariants(self):
        graph = build_graph(generate(10, 3, 3, RANDOM, seed=5))
        assert np.all(graph.totals <= graph.evol_v)
        assert np.all(graph.evol_v <= graph.evol_v2)


class TestNeutralNeighbors:
    def test_constant_has_full_degree(self):
        landscape = constant_landscape(7)
        assert neutral_loci(landscape, np.zeros(7, dtype=np.uint8)).size == 7

    def test_k0_degree_same_for_all_genotypes(self):
        for seed in (1, 2, 3):
            landscape = generate(8, 0, 3, RANDOM, seed=seed)
            expected = sum(
                int(landscape.tables[i][0] == landscape.tables[i][1])
                for i in range(8)
            )
            for s in oracles.all_genotypes(8):
                assert neutral_loci(landscape, np.array(s, dtype=np.uint8)).size == expected

    def test_matches_brute_force(self):
        for landscape in random_instances(count=3, seed=21):
            fm = oracles.fitness_map(landscape)
            for s in oracles.all_genotypes(landscape.n):
                arr = np.array(s, dtype=np.uint8)
                assert neutral_loci(landscape, arr).size == oracles.degn(fm, s)

    @staticmethod
    def neutral_members(landscape, s):
        """The neutral one-bit mutants of ``s``."""
        members = []
        for locus in neutral_loci(landscape, s):
            member = s.copy()
            member[locus] ^= 1
            members.append(member)
        return members

    def test_members_are_neutral_flips(self, rng):
        landscape = generate(10, 2, 2, RANDOM, seed=3)
        s = rng.integers(0, 2, 10, dtype=np.uint8)
        total = landscape.total(s)
        members = self.neutral_members(landscape, s)
        for member in members:
            assert landscape.total(member) == total
        # ... and every neutral one-bit mutant is a member.
        assert len(members) == oracles.degn(oracles.fitness_map(landscape), tuple(s.tolist()))

    def test_symmetry(self, rng):
        landscape = generate(10, 2, 2, RANDOM, seed=13)
        for _ in range(20):
            s = rng.integers(0, 2, 10, dtype=np.uint8)
            for member in self.neutral_members(landscape, s):
                back = [m.tolist() for m in self.neutral_members(landscape, member)]
                assert s.tolist() in back


class TestIsLocal:
    def test_constant_all_local(self):
        graph = build_graph(constant_landscape(6))
        for mask in graph.local.values():
            assert mask.all()

    def test_onemax(self):
        local = census(onemax_landscape(5)).local_nodes
        assert local["f", "V"] == {0b11111}

    @pytest.mark.parametrize("guide", ["f", "evol"])
    @pytest.mark.parametrize("structure", ["V", "Vn", "V2"])
    def test_matches_brute_force(self, guide, structure):
        for landscape in random_instances(count=3, n_range=(5, 8), seed=31):
            fm = oracles.fitness_map(landscape)
            local = census(landscape).local_nodes[guide, structure]
            for node, s in genotypes(landscape.n):
                assert (node in local) == oracles.is_local(fm, s, guide, structure)

    def test_v2_local_implies_v_local(self):
        for landscape in random_instances(count=2, seed=41):
            local = census(landscape).local_nodes
            assert local["f", "V2"] <= local["f", "V"]
