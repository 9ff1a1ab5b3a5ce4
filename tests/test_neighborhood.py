import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from scubasearch import (
    RANDOM,
    EvalCounter,
    NkqLandscape,
    PlateauScan,
    evol,
    evol2,
    generate,
    is_local,
    neutral_degree,
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


class TestEvolvability:
    def test_constant_landscape(self):
        landscape = constant_landscape(6, q=3)
        s = np.zeros(6, dtype=np.uint8)
        fv = landscape.fitness(landscape.total(s))
        assert evol(landscape, s) == fv
        assert evol2(landscape, s) == fv

    def test_onemax_from_zeros(self):
        landscape = onemax_landscape(5)
        s = np.zeros(5, dtype=np.uint8)
        assert evol(landscape, s).total == 1
        assert evol2(landscape, s).total == 2

    def test_matches_brute_force(self):
        for landscape in random_instances():
            fm = oracles.fitness_map(landscape)
            for s in oracles.all_genotypes(landscape.n):
                arr = np.array(s, dtype=np.uint8)
                assert evol(landscape, arr).total == oracles.evol(fm, s)
                assert evol2(landscape, arr).total == oracles.evol2(fm, s)

    def test_ordering_invariants(self, rng):
        landscape = generate(10, 3, 3, RANDOM, seed=5)
        for _ in range(30):
            s = rng.integers(0, 2, 10, dtype=np.uint8)
            f = landscape.fitness(landscape.total(s))
            e = evol(landscape, s)
            e2 = evol2(landscape, s)
            assert f <= e <= e2

    def test_costs(self):
        landscape = generate(9, 2, 3, RANDOM, seed=11)
        s = np.zeros(9, dtype=np.uint8)
        counter = EvalCounter()
        evol(landscape, s, counter)
        assert counter.count == 9
        counter = EvalCounter()
        evol2(landscape, s, counter)
        assert counter.count == 9 + 9 * 8 // 2


class TestNeutralNeighbors:
    def test_constant_has_full_degree(self):
        landscape = constant_landscape(7)
        s = np.zeros(7, dtype=np.uint8)
        assert neutral_degree(landscape, s) == 7

    def test_k0_degree_same_for_all_genotypes(self):
        for seed in (1, 2, 3):
            landscape = generate(8, 0, 3, RANDOM, seed=seed)
            expected = sum(
                int(landscape.tables[i][0] == landscape.tables[i][1])
                for i in range(8)
            )
            for s in oracles.all_genotypes(8):
                assert neutral_degree(landscape, np.array(s, dtype=np.uint8)) == expected

    def test_matches_brute_force(self):
        for landscape in random_instances(count=3, seed=21):
            fm = oracles.fitness_map(landscape)
            for s in oracles.all_genotypes(landscape.n):
                arr = np.array(s, dtype=np.uint8)
                assert neutral_degree(landscape, arr) == oracles.degn(fm, s)

    @staticmethod
    def neutral_members(landscape, s):
        """The neutral one-bit mutants of ``s``, from its plateau view."""
        members = []
        for locus in PlateauScan(landscape.scores(s)).neutral_loci:
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

    def test_cost_is_n(self):
        landscape = generate(9, 2, 3, RANDOM, seed=11)
        counter = EvalCounter()
        neutral_degree(landscape, np.zeros(9, dtype=np.uint8), counter)
        assert counter.count == 9


class TestEvalCounter:
    def test_accumulates_and_rejects_negative(self):
        counter = EvalCounter()
        counter.add(3)
        counter.add(0)
        assert counter.count == 3
        with pytest.raises(ValueError):
            counter.add(-1)


class TestIsLocal:
    def test_constant_all_local(self):
        landscape = constant_landscape(6)
        for s in oracles.all_genotypes(6)[:10]:
            assert is_local(landscape, np.array(s, dtype=np.uint8), "f", "V")

    def test_onemax(self):
        landscape = onemax_landscape(5)
        assert is_local(landscape, np.ones(5, dtype=np.uint8), "f", "V")
        for s in oracles.all_genotypes(5):
            if sum(s) < 5:
                assert not is_local(landscape, np.array(s, dtype=np.uint8), "f", "V")

    @pytest.mark.parametrize("guide", ["f", "evol"])
    @pytest.mark.parametrize("structure", ["V", "Vn", "V2"])
    def test_matches_brute_force(self, guide, structure):
        for landscape in random_instances(count=3, n_range=(5, 8), seed=31):
            fm = oracles.fitness_map(landscape)
            for s in oracles.all_genotypes(landscape.n):
                expected = oracles.is_local(fm, s, guide, structure)
                got = is_local(landscape, np.array(s, dtype=np.uint8), guide, structure)
                assert got == expected

    def test_v2_local_implies_v_local(self):
        for landscape in random_instances(count=2, seed=41):
            for s in oracles.all_genotypes(landscape.n):
                arr = np.array(s, dtype=np.uint8)
                if is_local(landscape, arr, "f", "V2"):
                    assert is_local(landscape, arr, "f", "V")

    # Counted queries of every (guide, structure) row of the is_local cost
    # table as a function of n and d = Degn(s); evol/Vn is scuba's guard.
    COSTS = {
        ("f", "V"): lambda n, d: n,
        ("f", "Vn"): lambda n, d: n,
        ("f", "V2"): lambda n, d: n + n * (n - 1) // 2,
        ("evol", "V"): lambda n, d: n + n * n,
        ("evol", "Vn"): lambda n, d: n + d * n,
        ("evol", "V2"): lambda n, d: (n + n * (n - 1) // 2) * (1 + n),
    }

    def test_scuba_guard_cost(self, rng):
        for n, k in ((12, 1), (7, 3), (1, 0)):
            landscape = generate(n, k, 2, RANDOM, seed=17)
            for _ in range(10):
                s = rng.integers(0, 2, n, dtype=np.uint8)
                d = neutral_degree(landscape, s)
                for (guide, structure), cost in self.COSTS.items():
                    counter = EvalCounter()
                    is_local(landscape, s, guide, structure, counter)
                    assert counter.count == cost(n, d), (guide, structure, n)

    def test_v2_evol_scans_only_two_bit_rows(self, rng, monkeypatch):
        # The one-bit mutants' evolvabilities come from the pair matrix, so
        # only the C(n,2) two-bit mutants are scanned row by row; the charge
        # still covers every point within distance 2.
        rows = []
        scan = NkqLandscape.batch_scan

        def counting_scan(self, states):
            rows.append(len(states))
            return scan(self, states)

        monkeypatch.setattr(NkqLandscape, "batch_scan", counting_scan)
        for n, k in ((16, 3), (5, 4), (1, 0)):
            landscape = generate(n, k, 2, RANDOM, seed=23)
            for _ in range(3):
                rows.clear()
                counter = EvalCounter()
                is_local(landscape, rng.integers(0, 2, n, dtype=np.uint8),
                         "evol", "V2", counter)
                assert sum(rows) == n * (n - 1) // 2, (n, rows)
                assert counter.count == self.COSTS[("evol", "V2")](n, 0)

    def test_bad_arguments(self):
        landscape = generate(6, 2, 3, RANDOM, seed=5)
        s = np.zeros(6, dtype=np.uint8)
        with pytest.raises(ValueError):
            is_local(landscape, s, "fitness", "V")
        with pytest.raises(ValueError):
            is_local(landscape, s, "f", "V3")
