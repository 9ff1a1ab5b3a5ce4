import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import constant_landscape, onemax_landscape
from scubasearch import (
    ADJACENT,
    RANDOM,
    FitnessValue,
    LandscapeError,
    MAX_TABLE_ENTRIES,
    LandscapeFormatError,
    NkqLandscape,
    adjacent_links,
    check_params,
    deserialize,
    extended_scan,
    generate,
    search,
    serialize,
)


class TestGenerate:
    @pytest.mark.parametrize("n,k,q,mode", [
        (8, 0, 2, RANDOM), (8, 3, 4, RANDOM), (8, 7, 3, RANDOM),
        (9, 2, 2, ADJACENT), (9, 3, 100, ADJACENT), (16, 5, 7, RANDOM),
    ])
    def test_shapes_and_ranges(self, n, k, q, mode):
        landscape = generate(n, k, q, mode, seed=1)
        assert landscape.tables.shape == (n, 2 ** (k + 1))
        assert landscape.tables.min() >= 0
        assert landscape.tables.max() <= q - 1
        assert landscape.links.shape == (n, k)
        for i in range(n):
            row = landscape.links[i].tolist()
            assert len(set(row)) == k
            assert i not in row

    def test_k0_tables_have_two_entries(self):
        landscape = generate(64, 0, 2, RANDOM, seed=99)
        assert landscape.tables.shape == (64, 2)

    def test_paper_scale_small_instance(self):
        landscape = generate(5, 2, 2, RANDOM, seed=4)
        assert landscape.tables.shape == (5, 8)
        assert 2 ** landscape.n == 32

    def test_deterministic_regeneration(self):
        a = generate(8, 3, 4, ADJACENT, seed=123)
        b = generate(8, 3, 4, ADJACENT, seed=123)
        assert a == b
        assert np.array_equal(a.tables, b.tables)
        assert np.array_equal(a.links, b.links)

    def test_different_seeds_differ(self):
        a = generate(16, 3, 4, RANDOM, seed=1)
        b = generate(16, 3, 4, RANDOM, seed=2)
        assert not np.array_equal(a.tables, b.tables)

    def test_adjacent_links_split(self):
        # k=4: two left, two right; k=3: two left, one right.
        links4 = adjacent_links(8, 4)
        assert links4[0].tolist() == [7, 1, 6, 2]
        links3 = adjacent_links(8, 3)
        assert links3[3].tolist() == [2, 4, 1]
        # periodic boundary both ways
        assert links4[7].tolist() == [6, 0, 5, 1]

    def test_adjacent_max_k(self):
        links = adjacent_links(6, 5)
        for i in range(6):
            assert sorted(links[i].tolist()) == sorted(set(range(6)) - {i})

    @pytest.mark.parametrize("n,k,q", [(4, 4, 2), (4, 5, 2), (4, -1, 2), (4, 1, 1), (0, 0, 2)])
    def test_invalid_parameters(self, n, k, q):
        with pytest.raises(LandscapeError):
            generate(n, k, q, RANDOM, seed=0)

    @pytest.mark.parametrize("n,k,q", [(8, 2, 3.0), (8.0, 2, 3), (True, 0, 2),
                                       (8, False, 2), (8, 2, "3"), (8, None, 3)])
    def test_non_integer_parameters_rejected(self, n, k, q):
        with pytest.raises(LandscapeError, match="must be an integer"):
            generate(n, k, q, RANDOM, seed=0)

    def test_numpy_integer_parameters_accepted(self):
        landscape = generate(np.int64(8), np.int32(2), np.uint8(3), RANDOM, seed=0)
        assert landscape == generate(8, 2, 3, RANDOM, seed=0)
        with pytest.raises(LandscapeError, match="table entries"):
            check_params(np.int64(64), np.int64(63), np.int64(2))

    @pytest.mark.parametrize("n,k", [(64, 63), (64, 21), (2**27, 0), (2**40, 2**40 - 1)])
    def test_oversized_tables_rejected_before_drawing(self, n, k, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("generate drew randomness for an oversized table")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(LandscapeError, match="table entries"):
            generate(n, k, 2, RANDOM, seed=0)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, np.float64(4)])
    def test_non_integer_seed_rejected(self, seed):
        # Refused, not truncated, compared as a string, or stored as 1.
        with pytest.raises(LandscapeError, match="seed must be an integer"):
            generate(3, 1, 2, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, True, -4])
    def test_constructor_refuses_a_seed_generate_refuses(self, seed):
        # It used to keep 1.5 as 1, and -4, which serialize wrote and
        # deserialize then refused.
        with pytest.raises(LandscapeError, match="seed must be"):
            NkqLandscape(2, 0, 3, RANDOM, np.empty((2, 0)), [[0, 1], [2, 1]], seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert generate(3, 1, 2, seed=np.uint64(7)) == generate(3, 1, 2, seed=7)

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("generate drew randomness for a negative seed")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(LandscapeError, match="seed must be non-negative"):
            generate(3, 1, 2, seed=-1)

    def test_table_bound_admits_the_paper_grid(self):
        check_params(64, 16, 100)
        check_params(MAX_TABLE_ENTRIES // 2**17, 16, 2)
        with pytest.raises(LandscapeError):
            check_params(MAX_TABLE_ENTRIES // 2**17 + 1, 16, 2)

    # (q, smallest signed dtype holding q-1) on both sides of each dtype edge.
    DTYPE_EDGES = [(2, np.int8), (128, np.int8), (129, np.int16), (2**15, np.int16),
                   (2**15 + 1, np.int32), (2**31, np.int32), (2**31 + 1, np.int64)]

    @pytest.mark.parametrize("q,dtype", DTYPE_EDGES)
    def test_tables_in_smallest_signed_dtype(self, q, dtype):
        n, k = 9, 3
        landscape = generate(n, k, q, RANDOM, seed=q)
        assert landscape.tables.dtype == dtype
        if q <= 128:
            assert landscape.tables.nbytes == n * 2 ** (k + 1)

    @pytest.mark.parametrize("q", [q for q, _ in DTYPE_EDGES])
    @pytest.mark.parametrize("n,k", [(100000, 0), (5000, 3), (17, 16)])
    def test_tables_match_one_draw(self, q, n, k):
        # Adjacent links draw nothing, so the table draw starts the stream;
        # n=100000 at k=0 and n=5000 at k=3 span several draw chunks.
        got = generate(n, k, q, ADJACENT, seed=11).tables
        want = np.random.default_rng(11).integers(0, q, size=(n, 2 ** (k + 1)),
                                                  dtype=np.int64)
        assert np.array_equal(got, want)

    def test_generate_peaks_at_its_table(self):
        # The table is drawn in _DRAW_CHUNK-entry chunks straight into the array
        # the landscape keeps, so nothing near its 8 MB is allocated twice.
        generate(64, 2, 100, seed=1)
        tracemalloc.start()
        try:
            landscape = generate(64, 16, 100, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= landscape.tables.nbytes + 0.75 * 2**20

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    def test_constructor_copies_its_input(self, dtype):
        tables = np.array([[0, 2], [1, 1]], dtype=dtype)
        landscape = NkqLandscape(2, 0, 3, RANDOM, np.empty((2, 0)), tables)
        tables[0, 0] = 1
        assert tables.flags.writeable
        assert landscape.tables.tolist() == [[0, 2], [1, 1]]
        assert landscape.tables.dtype == np.int8

    @pytest.mark.parametrize("tables", [
        np.array([[0, 300]], dtype=np.int64),  # would read 44 as int8
        np.array([[0, 2**63]], dtype=np.uint64),  # would read -2**63 as int64
        np.array([[-1, 0]], dtype=np.int16),
    ])
    def test_constructor_range_checks_before_narrowing(self, tables):
        with pytest.raises(LandscapeError, match="table entries"):
            NkqLandscape(1, 0, 100, RANDOM, np.empty((1, 0)), tables)

    @pytest.mark.parametrize("links,tables,match", [
        ([[1], [0]], [[0.9, 0.2, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]], "tables .*dtype"),
        ([[1.7], [0.0]], [[0, 1, 0, 1], [1, 0, 0, 1]], "links .*dtype"),
        ([[1], [0]], [[0, 1], [1, 0]], "tables must have shape"),
        ([[1], [0]], [0, 1, 0, 1, 1, 0, 0, 1], "tables must have shape"),
        ([1, 0, 1], [[0, 1, 0, 1], [1, 0, 0, 1]], "links must have shape"),
        ([[1], [0]], [[0, 1, 0, 1], [1, 0]], "tables must be a rectangular array"),
        ([[1], [0, 1]], [[0, 1, 0, 1], [1, 0, 0, 1]], "links must be a rectangular array"),
    ], ids=["float-tables", "float-links", "short-tables", "flat-tables", "flat-links",
            "ragged-tables", "ragged-links"])
    def test_constructor_rejects_floats_and_wrong_shapes(self, links, tables, match):
        with pytest.raises(LandscapeError, match=match):
            NkqLandscape(2, 1, 2, RANDOM, links, tables)

    def test_constructor_accepts_bool_and_integer_input(self):
        tables = [[True, False, False, True], [False, True, True, False]]
        for links in ([[1], [0]], [[True], [False]], np.array([[1], [0]], np.uint8)):
            landscape = NkqLandscape(2, 1, 2, RANDOM, links, tables)
            assert landscape.links.tolist() == [[1], [0]]
            assert landscape.tables.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]

    def test_arrays_frozen(self):
        landscape = generate(6, 2, 3, RANDOM, seed=0)
        with pytest.raises(ValueError):
            landscape.tables[0, 0] = 1
        with pytest.raises(ValueError):
            landscape.links[0, 0] = 2


class TestGenotypeCoercion:
    def test_accepts_bit_strings(self):
        from scubasearch import as_genotype

        assert as_genotype("1010").tolist() == [1, 0, 1, 0]

    def test_rejects_non_binary(self):
        from scubasearch import as_genotype

        with pytest.raises(LandscapeError):
            as_genotype([0, 2, 1])
        with pytest.raises(LandscapeError):
            as_genotype([[0, 1]])

    @pytest.mark.parametrize("values", [
        [0.7, 1.2, 0], np.array([0.0, 1.0]), ["0", "1"], np.array([1, None]), "01a",
    ])
    def test_rejects_non_integer_dtypes(self, values):
        from scubasearch import as_genotype

        with pytest.raises(LandscapeError):
            as_genotype(values)

    def test_accepts_bool_and_integer_dtypes(self):
        from scubasearch import as_genotype

        for values in (np.array([True, False]), np.array([1, 0], dtype=np.int64),
                       np.array([1, 0], dtype=np.uint16), [1, 0]):
            got = as_genotype(values)
            assert got.dtype == np.uint8 and got.tolist() == [1, 0]
        with pytest.raises(LandscapeError):
            as_genotype(np.array([-1, 0]))


class TestBatchGenotypes:
    """``batch_scan`` and ``batch_totals`` hold genotype matrices to
    ``as_genotype``'s rules: two dimensions, n columns, bool or integer
    0/1 alleles."""

    @pytest.mark.parametrize("method", ["batch_scan", "batch_totals"])
    @pytest.mark.parametrize("states, match", [
        pytest.param(np.full((2, 8), 0.7), "bool or integer", id="float"),
        pytest.param(np.zeros((0, 8)), "bool or integer", id="empty-float"),
        pytest.param([[0, 0, 0, 0, 0, 0, 0, 3]], "0 or 1", id="allele-3"),
        pytest.param(np.array([[0, 1, 0, 0, 0, 0, 0, -1]]), "0 or 1", id="allele-minus-1"),
        pytest.param(np.zeros((1, 7), dtype=np.uint8), "length 7 does not match n=8",
                     id="short-row"),
        pytest.param(np.zeros(8, dtype=np.uint8), "two-dimensional", id="one-row-flat"),
        pytest.param(np.zeros((1, 1, 8), dtype=np.uint8), "two-dimensional", id="3-d"),
    ])
    def test_rejects_bad_matrices(self, method, states, match):
        landscape = generate(8, 2, 3, seed=1)
        with pytest.raises(LandscapeError, match=match):
            getattr(landscape, method)(states)

    def test_accepts_bool_and_integer_matrices(self):
        landscape = generate(8, 2, 3, seed=1)
        bits = [[0, 1, 1, 0, 1, 0, 0, 1], [1, 1, 1, 1, 0, 0, 0, 0]]
        totals, flips = landscape.batch_scan(np.array(bits, dtype=np.uint8))
        for states in (np.array(bits, dtype=bool), np.array(bits, dtype=np.int64),
                       np.array(bits, dtype=np.uint16), bits):
            assert landscape.batch_totals(states).tolist() == totals.tolist()
            got_totals, got_flips = landscape.batch_scan(states)
            assert got_totals.tolist() == totals.tolist()
            assert got_flips.tolist() == flips.tolist()
        totals, flips = landscape.batch_scan(np.zeros((0, 8), dtype=bool))
        assert totals.shape == (0,) and flips.shape == (0, 8)
        assert landscape.batch_totals(np.zeros((0, 8), dtype=np.int64)).shape == (0,)

    def test_scan_memory_is_bounded_above_its_outputs(self):
        # 2000 rows at n=64, K=16. Scanned in one block, the gather's index
        # arrays would take some 33 MB; in blocks of 512 rows the scan holds
        # 1.5 MiB above its outputs, so the bound is fixed rather than a
        # share of the batch.
        landscape = generate(64, 16, 2, seed=3)
        states = np.random.default_rng(3).integers(0, 2, (2000, 64), dtype=np.uint8)
        tracemalloc.start()
        try:
            totals, flips = landscape.batch_scan(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - totals.nbytes - flips.nbytes <= 2 * 2**20


class TestCachedGroup:
    """A landscape holds its parameters, links and tables; its scans read
    the scan structure of its group of one, built on first use and kept."""

    def test_holds_no_array_but_links_and_tables(self):
        landscape = generate(64, 16, 2, seed=1)
        for _ in range(2):
            arrays = [name for name, value in vars(landscape).items()
                      if isinstance(value, np.ndarray)]
            assert sorted(arrays) == ["links", "tables"]
            landscape.batch_scan(np.zeros((1, 64), dtype=np.uint8))
        assert landscape._group is vars(landscape)["_group"]

    def test_scans_build_no_searcher_arrays(self):
        # batch_scan and batch_totals, the only scans degn and pathgraph
        # make, read neither of the arrays only the searchers read, so a
        # fresh landscape's group never builds them.
        landscape = generate(64, 16, 2, seed=1)
        states = np.zeros((2, 64), dtype=np.uint8)
        landscape.batch_scan(states)
        landscape.batch_totals(states)
        assert not {"_targets", "_keys"} & vars(landscape._group).keys()

    def test_cached_group_makes_no_reference_cycle(self):
        # The group keeps no reference to its landscape, so the landscape
        # is freed by its reference count alone, with the cyclic GC off.
        landscape = generate(8, 2, 3, seed=1)
        s = np.zeros(8, dtype=np.uint8)
        gc.disable()
        try:
            landscape.batch_scan(s[None])
            search(landscape, "ss", [s], [np.random.default_rng(0)])
            extended_scan(landscape, s)
            assert "_group" in vars(landscape)
            ref = weakref.ref(landscape)
            del landscape
            assert ref() is None
        finally:
            gc.enable()


def component_index(landscape, s, locus):
    """Index into ``locus``'s component table that ``s`` reads, from the
    flat table positions of a one-row ``_row_deltas`` scan of its group."""
    positions, _, _ = landscape._group._row_deltas(np.asarray(s, dtype=np.uint8)[None])
    return int(positions[0, locus]) - (locus << (landscape.k + 1))


class TestComponentIndex:
    # Packing rule of the landscape format: the locus's own allele is bit 0,
    # the allele at links[locus][m] is bit m+1.
    def test_all_zeros(self):
        landscape = generate(6, 2, 3, RANDOM, seed=5)
        s = np.zeros(6, dtype=np.uint8)
        for i in range(6):
            assert component_index(landscape, s, i) == 0

    def test_hand_packed_bits(self):
        links = np.array([[1, 2], [0, 3], [0, 3], [1, 2]])
        tables = np.zeros((4, 8), dtype=np.int64)
        tables[2, 3] = 1
        landscape = NkqLandscape(4, 2, 2, RANDOM, links, tables)
        s = np.array([1, 0, 1, 0], dtype=np.uint8)
        # locus 2: own allele 1, then s[0]=1 -> weight 2, s[3]=0 -> weight 4
        assert component_index(landscape, s, 2) == 3
        assert landscape.total(s) == 1

    def test_all_ones(self):
        landscape = generate(7, 3, 2, RANDOM, seed=8)
        s = np.ones(7, dtype=np.uint8)
        for i in range(7):
            assert component_index(landscape, s, i) == 2 ** (3 + 1) - 1


class TestEvaluate:
    def test_constant_maximum(self):
        landscape = constant_landscape(6, q=4)
        for s in oracles.all_genotypes(6)[:8]:
            s = np.array(s, dtype=np.uint8)
            assert landscape.fitness(landscape.total(s)).normalized == 1.0

    def test_constant_zero(self):
        landscape = constant_landscape(6, q=4, value=0)
        s = np.zeros(6, dtype=np.uint8)
        assert landscape.fitness(landscape.total(s)).normalized == 0.0

    def test_hand_example(self):
        # n=2, k=0, q=3 with f_0 = {0: 0, 1: 2}, f_1 = {0: 1, 1: 1}
        tables = np.array([[0, 2], [1, 1]], dtype=np.int64)
        landscape = NkqLandscape(2, 0, 3, RANDOM, np.empty((2, 0)), tables)
        fv = landscape.fitness(landscape.total(np.array([1, 1], dtype=np.uint8)))
        assert fv.total == 3
        assert fv.normalized == 3 / 4

    def test_matches_naive_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(0, n - 1))
            landscape = generate(n, k, int(rng.integers(2, 6)), RANDOM,
                                 seed=int(rng.integers(1 << 30)))
            for _ in range(20):
                s = rng.integers(0, 2, n, dtype=np.uint8)
                assert landscape.total(s) == oracles.naive_total(landscape, s)

    def test_total_bounds(self, rng):
        landscape = generate(12, 4, 5, RANDOM, seed=77)
        for _ in range(50):
            s = rng.integers(0, 2, 12, dtype=np.uint8)
            assert 0 <= landscape.total(s) <= landscape.max_total

    def test_length_mismatch(self):
        landscape = generate(6, 2, 3, RANDOM, seed=5)
        with pytest.raises(LandscapeError):
            landscape.total(np.zeros(5, dtype=np.uint8))


class TestDeltaEvaluate:
    def test_exhaustive_against_full_evaluate(self):
        landscape = generate(10, 3, 4, RANDOM, seed=2024)
        for s in oracles.all_genotypes(10):
            arr = np.array(s, dtype=np.uint8)
            total = landscape.total(arr)
            for locus in range(10):
                flipped = arr.copy()
                flipped[locus] ^= 1
                assert landscape.delta_total(arr, total, locus) == landscape.total(flipped)

    def test_k0_single_component(self, rng):
        landscape = generate(12, 0, 5, RANDOM, seed=31)
        for _ in range(20):
            s = rng.integers(0, 2, 12, dtype=np.uint8)
            total = landscape.total(s)
            for locus in range(12):
                expected = (landscape.tables[locus][1 - s[locus]]
                            - landscape.tables[locus][s[locus]])
                assert landscape.delta_total(s, total, locus) - total == expected

    def test_constant_landscape_flat(self):
        landscape = constant_landscape(8, q=3)
        s = np.zeros(8, dtype=np.uint8)
        total = landscape.total(s)
        for locus in range(8):
            assert landscape.delta_total(s, total, locus) == total

    def test_bad_locus(self):
        landscape = generate(6, 2, 3, RANDOM, seed=5)
        s = np.zeros(6, dtype=np.uint8)
        for locus in (6, -1):
            with pytest.raises(LandscapeError, match="outside"):
                landscape.delta_total(s, landscape.total(s), locus)

    @pytest.mark.parametrize("locus", [True, 1.5, 1.0])
    def test_locus_must_be_an_integer(self, locus):
        # True used to read locus 1, and 1.5 escaped as an IndexError.
        landscape = generate(6, 2, 3, RANDOM, seed=5)
        s = np.zeros(6, dtype=np.uint8)
        with pytest.raises(LandscapeError, match="flip_locus must be an integer"):
            landscape.delta_total(s, landscape.total(s), locus)


class TestFitnessValue:
    def test_neutrality_is_integer_equality(self):
        a = FitnessValue(3, 0.75)
        b = FitnessValue(3, 0.7500000001)
        c = FitnessValue(4, 1.0)
        assert a == b
        assert a != c
        assert not (a != b)
        assert FitnessValue(1, 0.5) != 1
        assert a < c and c > a and a <= b and b >= a
        assert hash(a) == hash(b)
        with pytest.raises(TypeError):
            FitnessValue(1, 0.5) < 2

    def test_scan_consistency(self, rng):
        landscape = generate(9, 2, 3, RANDOM, seed=6)
        s = rng.integers(0, 2, 9, dtype=np.uint8)
        totals, flips = landscape.batch_scan(s[None, :])
        total, flips = totals[0], flips[0]
        assert total == landscape.total(s)
        for locus in range(9):
            flipped = s.copy()
            flipped[locus] ^= 1
            assert flips[locus] == landscape.total(flipped)


class TestSerialization:
    @pytest.mark.parametrize("n,k,q,mode", [(6, 0, 2, RANDOM), (7, 3, 4, ADJACENT), (5, 4, 100, RANDOM)])
    def test_round_trip(self, n, k, q, mode):
        landscape = generate(n, k, q, mode, seed=55)
        assert deserialize(serialize(landscape)) == landscape

    def test_round_trip_unseeded(self):
        landscape = onemax_landscape(4)
        again = deserialize(serialize(landscape))
        assert again == landscape
        assert again.seed is None

    def test_serialize_is_deterministic(self):
        landscape = generate(6, 2, 3, RANDOM, seed=9)
        assert serialize(landscape) == serialize(generate(6, 2, 3, RANDOM, seed=9))

    def _doc_lines(self):
        return serialize(generate(4, 1, 3, RANDOM, seed=3)).splitlines()

    def test_entry_out_of_range(self):
        lines = self._doc_lines()
        fields = lines[6].split()
        fields[-1] = "3"  # == q, one past the maximum
        lines[6] = " ".join(fields)
        with pytest.raises(LandscapeFormatError):
            deserialize("\n".join(lines))

    def test_wrong_link_count(self):
        lines = self._doc_lines()
        fields = lines[6].split()
        del fields[1]  # drop the single link locus
        lines[6] = " ".join(fields)
        with pytest.raises(LandscapeFormatError):
            deserialize("\n".join(lines))

    def test_error_carries_line_number(self):
        lines = self._doc_lines()
        fields = lines[8].split()
        fields[-1] = "x"
        lines[8] = " ".join(fields)
        with pytest.raises(LandscapeFormatError, match="line 9"):
            deserialize("\n".join(lines))

    def test_negative_seed_carries_line_number(self):
        lines = self._doc_lines()
        assert lines[5] == "seed 3"
        lines[5] = "seed -99999999999999999999999"
        with pytest.raises(LandscapeFormatError, match="line 6: seed must be non-negative"):
            deserialize("\n".join(lines))

    def test_missing_locus_line(self):
        lines = self._doc_lines()
        with pytest.raises(LandscapeFormatError, match="locus lines"):
            deserialize("\n".join(lines[:-1]))

    def test_bad_format_tag(self):
        lines = self._doc_lines()
        lines[0] = "format nkq-landscape-9"
        with pytest.raises(LandscapeFormatError, match="unsupported format"):
            deserialize("\n".join(lines))

    def test_must_start_with_format(self):
        lines = self._doc_lines()
        with pytest.raises(LandscapeFormatError, match="format"):
            deserialize("\n".join(lines[1:]))

    def test_duplicate_header(self):
        lines = self._doc_lines()
        lines.insert(2, lines[1])
        with pytest.raises(LandscapeFormatError, match="duplicate"):
            deserialize("\n".join(lines))

    def test_unknown_header_key(self):
        lines = self._doc_lines()
        lines.insert(1, "flavor spicy")
        with pytest.raises(LandscapeFormatError, match="unknown header"):
            deserialize("\n".join(lines))

    def test_self_link_rejected(self):
        lines = self._doc_lines()
        fields = lines[6].split()
        fields[1] = fields[0]  # link locus equal to its own index
        lines[6] = " ".join(fields)
        with pytest.raises(LandscapeFormatError):
            deserialize("\n".join(lines))

    def test_oversized_header_rejected_before_allocation(self, monkeypatch):
        # 70 short locus lines under a header whose tables would need 2**47
        # entries: refused from the header alone.
        doc = ["format nkq-landscape-1", "n 70", "k 40", "q 2", "mode random", "seed 1"]
        doc += [f"{i} 0" for i in range(70)]

        def no_empty(*args, **kwargs):
            raise AssertionError("deserialize allocated tables for an oversized header")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(LandscapeFormatError, match="table entries"):
            deserialize("\n".join(doc) + "\n")
