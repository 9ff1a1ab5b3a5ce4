"""NKq fitness landscapes with exact integer fitness arithmetic.

An NKq landscape assigns to every binary string of length ``n`` a fitness
built from ``n`` component tables. Component ``i`` depends on the allele at
locus ``i`` and on the alleles at ``k`` other epistatic loci; each of its
``2**(k+1)`` entries is an integer drawn uniformly from ``{0, ..., q-1}``.
The raw fitness of a genotype is the integer sum of its component values,
in ``[0, n*(q-1)]``; the normalized fitness divides by ``n*(q-1)``.

All fitness comparisons in this package use the integer total, so two
genotypes are neutral exactly when their totals are equal. Normalization
happens only at reporting boundaries.

Tables are stored once, in the smallest signed integer dtype that holds
``q-1`` (int8 for ``q <= 128``, which covers the paper grid). Because the
dtype is signed, the difference of two entries lies in ``[-(q-1), q-1]``
and always fits it, so one-bit deltas need no cast; any sum of entries or
differences accumulates in int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ADJACENT = "adjacent"
RANDOM = "random"
MODES = (ADJACENT, RANDOM)

FORMAT_TAG = "nkq-landscape-1"

# Largest table a landscape may hold, in entries (n * 2**(k+1)). The paper
# grid peaks at 64 * 2**17 = 2**23; this leaves 16x headroom while keeping a
# hostile k or file header from asking for terabytes.
MAX_TABLE_ENTRIES = 2**27

_HEADER_KEYS = ("n", "k", "q", "mode", "seed")

# The int64 words a kernel's block holds (_blocks), 256 KB, so its
# temporaries stay in cache whatever the batch size; generate draws as many
# table entries a chunk. A scan block holds its difference matrix beside
# them (_Group._row_deltas).
_SCAN_ENTRIES = 2**15


def _blocks(count, words):
    """The one block rule: slices of ``range(count)``, each but the last
    ``max(1, _SCAN_ENTRIES // words)`` long, for a kernel that holds about
    ``words`` int64 words for each row of its work."""
    step = max(1, _SCAN_ENTRIES // words)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _table_dtype(q: int) -> np.dtype:
    """Smallest signed integer dtype holding ``-q``, hence every entry in
    ``[0, q-1]`` and every difference of two entries."""
    return np.min_scalar_type(-int(q))


class LandscapeError(ValueError):
    """Invalid landscape parameters or genotype shape."""


class LandscapeFormatError(LandscapeError):
    """Malformed landscape document. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, order=True)
class FitnessValue:
    """Exact fitness: integer ``total`` plus its normalized real value.

    Equality (and therefore neutrality), ordering and hashing use the
    integer total only; the float never participates in comparisons.
    """

    total: int
    normalized: float = field(compare=False)


def _fitness(total, max_total: int) -> FitnessValue:
    """``total`` normalized by ``max_total``; refused outside ``[0, max_total]``."""
    total = int(total)
    if not 0 <= total <= max_total:
        raise LandscapeError(f"total {total} outside [0, {max_total}]")
    return FitnessValue(total, total / max_total)


def as_genotype(s, n: int | None = None) -> np.ndarray:
    """Coerce ``s`` (bool or integer 0/1 values, or a '0101' string) to a
    genotype array. Any other dtype, such as floats, is rejected rather than
    truncated."""
    if isinstance(s, str):
        if s.strip("01"):
            raise LandscapeError(f"genotype string must hold only 0 and 1, got {s!r}")
        s = np.array([int(c) for c in s], dtype=np.uint8)
    return _alleles(s, 1, n)


def _alleles(s, ndim: int, n: int | None) -> np.ndarray:
    """``s`` as a uint8 array of ``ndim`` dimensions (a genotype, or a
    matrix of one genotype per row) whose last axis has length ``n``, if
    given; its values must be bool or integer 0/1."""
    arr = np.asarray(s)
    if arr.dtype.kind not in "biu":
        raise LandscapeError(f"genotype alleles must be bool or integer, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        what = "genotype must be one" if ndim == 1 else "genotype matrix must be two"
        raise LandscapeError(f"{what}-dimensional, got shape {arr.shape}")
    if arr.size and (arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0)):
        raise LandscapeError("genotype alleles must be 0 or 1")
    if n is not None and arr.shape[-1] != n:
        what = "genotype" if ndim == 1 else "genotype row"
        raise LandscapeError(f"{what} length {arr.shape[-1]} does not match n={n}")
    return arr.astype(np.uint8, copy=False)


def _int_array(name: str, values, shape: tuple) -> np.ndarray:
    """``values`` as an array, which must have ``shape`` and a bool or
    integer dtype: floats are rejected rather than truncated (an empty array
    holds nothing to truncate, so any dtype will do); ragged nesting is
    rejected too, as it makes no array at all."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise LandscapeError(f"{name} must be a rectangular array: {exc}") from None
    if arr.size and arr.dtype.kind not in "biu":
        raise LandscapeError(f"{name} must be bool or integer, got dtype {arr.dtype}")
    if arr.shape != shape:
        raise LandscapeError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def check_integer(name: str, value) -> None:
    """Raise :class:`LandscapeError` unless ``value`` is a Python or numpy
    integer and not a bool: the one rule for parameters, seeds and counts,
    so a float is refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LandscapeError(f"{name} must be an integer, got {value!r}")


def check_seed(seed, name="seed") -> None:
    """Raise :class:`LandscapeError` unless ``seed`` is a non-negative
    integer: the one seed rule, for seeds and seed parts alike."""
    check_integer(name, seed)
    if seed < 0:
        raise LandscapeError(f"{name} must be non-negative, got {seed}")


def check_params(n: int, k: int, q: int, mode: str = RANDOM) -> None:
    """Raise :class:`LandscapeError` unless ``(n, k, q, mode)`` describe a
    landscape this package can hold: integer (not bool) ``n``, ``k`` and
    ``q`` with ``n >= 1``, ``0 <= k <= n-1`` and ``q >= 2``, a known mode,
    totals that fit exactly in int64, and at most :data:`MAX_TABLE_ENTRIES`
    table entries. Allocates nothing."""
    for name, value in (("n", n), ("k", k), ("q", q)):
        check_integer(name, value)
    # Python ints, so the size checks below cannot overflow.
    n, k, q = int(n), int(k), int(q)
    if n < 1:
        raise LandscapeError(f"n must be >= 1, got n={n}")
    if k < 0 or k >= n:
        raise LandscapeError(f"k must satisfy 0 <= k <= n-1, got k={k} with n={n}")
    if q < 2:
        raise LandscapeError(f"q must be >= 2, got q={q}")
    if mode not in MODES:
        raise LandscapeError(f"mode must be one of {MODES}, got {mode!r}")
    if n * (q - 1) >= 2**62:
        raise LandscapeError("n*(q-1) too large for exact integer totals")
    # Capping the exponent keeps a huge k from building a huge integer first.
    if n * 2 ** min(k + 1, 64) > MAX_TABLE_ENTRIES:
        raise LandscapeError(
            f"n*2**(k+1) = {n}*2**{k + 1} table entries exceed the limit of "
            f"2**{MAX_TABLE_ENTRIES.bit_length() - 1}"
        )


def adjacent_links(n: int, k: int) -> np.ndarray:
    """Epistatic links to the ``k`` nearest loci under periodic boundaries.

    ceil(k/2) loci to the left and floor(k/2) to the right, interleaved
    nearest-first: [i-1, i+1, i-2, i+2, ...].
    """
    d = np.arange(1, k // 2 + k % 2 + 1)
    offsets = np.column_stack((-d, d)).ravel()[:k]
    return (np.arange(n)[:, None] + offsets) % n


def _random_links(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row i: ``k`` distinct loci other than i, one ``rng.choice`` of k of
    the n-1 others per locus, without replacement, loci ascending. At k = 0
    those choices draw nothing, so none is made."""
    if k == 0:
        return np.empty((n, 0), dtype=np.int64)
    links = np.stack([rng.choice(n - 1, size=k, replace=False) for _ in range(n)])
    # Draw j names the j-th locus other than i.
    return links + (links >= np.arange(n)[:, None])


def _draw_bounded(rng: np.random.Generator, q, out: np.ndarray) -> None:
    """Fill the flat integer array ``out`` with the values of
    ``rng.integers(0, q, out.size, dtype=np.int64)``. The PCG64 generator
    ``rng`` is left where no numpy call leaves it, so the caller drops it.

    For ``q <= 2**32`` numpy maps each 32-bit half ``x`` of a PCG64 word,
    low half first, to ``(x*q) >> 32``, and rejects ``x`` when ``x*q mod
    2**32`` is below ``2**32 % q`` (Lemire, ACM TOMACS 2019), one call per
    value. Here that map runs vectorized over ``random_raw`` words, at most
    :data:`_SCAN_ENTRIES` halves' worth per chunk, through uint64
    temporaries of one word a half. A half the generator holds buffered
    (the links drawn before the table can leave one) is read first. Larger
    q takes 64-bit values, which ``integers`` draws here, chunk by chunk.
    """
    q = int(q)
    if q > 2**32:
        for block in _blocks(out.size, 1):
            chunk = out[block]
            chunk[:] = rng.integers(0, q, size=chunk.size, dtype=np.int64)
        return
    threshold, low = np.uint32(2**32 % q), np.uint32(q % 2**32)

    def accept(halves):
        # x*q mod 2**32 is the wrapped uint32 product.
        if threshold and (halves * low).min() < threshold:
            return halves[halves * low >= threshold]
        return halves

    def put(kept, at):
        wide = kept[:out.size - at].astype(np.uint64)
        wide *= q
        wide >>= 32
        out[at:at + wide.size] = wide
        return at + wide.size

    bitgen, filled = rng.bit_generator, 0
    if bitgen.state["has_uint32"] and out.size:
        filled = put(accept(np.array([bitgen.state["uinteger"]], dtype=np.uint32)), 0)
    while filled < out.size:
        words = bitgen.random_raw(-(-min(out.size - filled, _SCAN_ENTRIES) // 2))
        filled = put(accept(words.astype("<u8", copy=False).view("<u4")), filled)


class NkqLandscape:
    """An immutable NKq landscape instance.

    Attributes
    ----------
    n : number of loci.
    k : epistatic degree (each component reads k other loci).
    q : neutrality parameter; table entries live in {0, ..., q-1}.
    mode : "adjacent" or "random" link layout (metadata for regeneration).
    seed : generation seed, a non-negative integer (refused otherwise, so
        every instance serializes to a document that loads), or None.
    links : (n, k) int array; row i lists the k epistatic loci of locus i.
    tables : (n, 2**(k+1)) array of component values, in the smallest
        signed integer dtype holding q-1 (int8 for q <= 128). The
        difference of two entries fits that dtype; any sum of entries must
        accumulate in int64.

    The constructor takes ``links`` and ``tables`` in exactly these shapes,
    as bool or integer arrays; floats are refused rather than truncated. The
    arrays are frozen after construction; instances are safe to share across
    concurrently executing runs. Scans read the landscape's group of one
    (:class:`_Group`), built on first use and cached.
    """

    def __init__(self, n, k, q, mode, links, tables, seed=None):
        check_params(n, k, q, mode)
        if seed is not None:
            check_seed(seed)

        links = _int_array("links", links, (n, k)).astype(np.int64)
        tables = _int_array("tables", tables, (n, 2 ** (k + 1)))
        # The first bad locus is named; a repeat or a self-link outranks a
        # locus out of range. Without links (k = 0) nothing can be bad.
        ordered = np.sort(links, axis=1)
        repeats = ((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                   | (links == np.arange(n)[:, None]).any(axis=1))
        bad = np.flatnonzero(repeats | (ordered[:, :1] < 0).any(axis=1)
                             | (ordered[:, -1:] >= n).any(axis=1))
        if bad.size:
            i = bad[0]
            raise LandscapeError(f"links[{i}] must be {k} distinct loci != {i}" if repeats[i]
                                 else f"links[{i}] contains an out-of-range locus")
        if tables.size and (tables.min() < 0 or tables.max() > q - 1):
            raise LandscapeError(f"table entries must lie in [0, {q - 1}]")
        # astype copies, so the caller's array is never frozen or aliased.
        self._adopt(n, k, q, mode, links, tables.astype(_table_dtype(q)), seed)

    def _adopt(self, n, k, q, mode, links, tables, seed):
        """Keep and freeze valid arrays as they are: int64 ``links`` and
        ``tables`` in :func:`_table_dtype`, owned by no one else."""
        self.n = int(n)
        self.k = int(k)
        self.q = int(q)
        self.mode = mode
        self.seed = None if seed is None else int(seed)
        self.links = links
        self.tables = tables
        links.flags.writeable = False
        tables.flags.writeable = False

        self.max_total = self.n * (self.q - 1)

    @classmethod
    def generate(cls, n, k, q, mode=RANDOM, seed=None) -> "NkqLandscape":
        """Draw a fresh instance from a PCG64 stream seeded with ``seed``.

        Draw order is fixed: link rows for loci 0..n-1 first (random mode
        only; adjacent links consume no randomness), then every table entry,
        row-major, i.e. loci ascending and table index ascending. The entries
        are the values of one ``integers(0, q, size=(n, 2**(k+1)))`` draw:
        for ``q <= 2**32`` they are mapped from raw PCG64 words exactly as
        numpy maps them (:func:`_draw_bounded`), chunk by chunk straight
        into the compact table the landscape keeps. Identical arguments
        always reproduce the same instance; bit-equality across other
        implementations of this format is not promised. A seed that is not
        a non-negative integer (a float, a bool, a string) raises
        :class:`LandscapeError`.
        """
        check_params(n, k, q, mode)
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        else:
            check_seed(seed)
        rng = np.random.default_rng(seed)
        if mode == ADJACENT:
            links = adjacent_links(n, k)
        else:
            links = _random_links(n, k, rng)
        tables = np.empty((n, 2 ** (k + 1)), dtype=_table_dtype(q))
        _draw_bounded(rng, q, tables.reshape(-1))
        landscape = cls.__new__(cls)
        landscape._adopt(n, k, q, mode, links.astype(np.int64, copy=False), tables, seed)
        return landscape

    # -- evaluation ---------------------------------------------------------

    def fitness(self, total: int) -> FitnessValue:
        return _fitness(total, self.max_total)

    def total(self, s) -> int:
        """Exact integer fitness total of one genotype."""
        s = as_genotype(s, self.n)
        return int(self.batch_totals(s[None, :])[0])

    def delta_total(self, s, total: int, flip_locus: int) -> int:
        """Total after flipping ``flip_locus``: ``total`` plus the one-bit
        delta at that locus from one one-row scan. ``total`` must be the
        current exact total of ``s``; this is not checked."""
        check_integer("flip_locus", flip_locus)
        if not 0 <= flip_locus < self.n:
            raise LandscapeError(f"flip locus {flip_locus} outside [0, {self.n})")
        _, _, deltas = self._group._row_deltas(as_genotype(s, self.n)[None])
        return int(total) + int(deltas[0, flip_locus])

    @cached_property
    def _group(self) -> "_Group":
        """The scan structure of this landscape alone, built on first use."""
        return _Group([self])

    def batch_totals(self, states) -> np.ndarray:
        """Totals of each row of a (batch, n) genotype matrix of bool or
        integer 0/1 alleles, from the scan kernel in blocks, as
        :meth:`batch_scan` takes them."""
        states = _alleles(states, 2, self.n)
        totals = np.empty(len(states), dtype=np.int64)
        for rows in _blocks(len(states), self.n):
            totals[rows] = self._group._row_deltas(states[rows])[1]
        return totals

    def batch_scan(self, states):
        """Totals of each row and of every one-bit mutant of each row of a
        (batch, n) genotype matrix of bool or integer 0/1 alleles.

        Returns ``(totals, flip_totals)`` with shapes (batch,) and
        (batch, n); ``flip_totals[b, l]`` is the total of row b with locus l
        flipped. Each call of the scan kernel (:meth:`_Group._row_deltas`)
        takes one block of rows of n positions (:func:`_blocks`), whose
        deltas add to its totals in the int64 outputs.
        """
        states = _alleles(states, 2, self.n)
        totals = np.empty(len(states), dtype=np.int64)
        flips = np.empty(states.shape, dtype=np.int64)
        for rows in _blocks(len(states), self.n):
            _, totals[rows], deltas = self._group._row_deltas(states[rows])
            np.add(totals[rows, None], deltas, out=flips[rows])
        return totals, flips

    # -- misc ---------------------------------------------------------------

    def _params(self):
        return (self.n, self.k, self.q, self.mode, self.seed)

    def __eq__(self, other):
        if not isinstance(other, NkqLandscape):
            return NotImplemented
        return (self._params() == other._params() and np.array_equal(self.links, other.links)
                and np.array_equal(self.tables, other.tables))

    def __hash__(self):
        return hash(self._params())

    def __repr__(self):
        return (
            f"NkqLandscape(n={self.n}, k={self.k}, q={self.q}, "
            f"mode={self.mode!r}, seed={self.seed})"
        )


class _Group:
    """The scan structure and kernels of landscapes of one (n, k) and table
    dtype, whose q may differ (``q`` is the largest, ``max_totals[i]``
    instance i's ``n*(q-1)``), derived from their links and tables alone. A
    landscape scans with its cached group of one, a batch of runs with one
    group of its instances. A group keeps no reference to its landscapes, so
    a cached one makes no cycle.

    - ``_loci[i, j]``: the k+1 loci component j of instance i reads, j
      first; the allele at ``_loci[i, j, p]`` is index bit p, weight ``_bits[p]``.
    - ``_tab``: the tables, flat (a group of one's uncopied), component j of
      instance i's from ``_offsets[i, j] = (i*n + j) << (k+1)``, clear of
      bits 0..k, so XORing a weight into a position flips a bit of the
      component's own index: every kernel flips bits that way.
    - The by-locus row of key ``i*n + l``: ``_counts[key]`` entries from
      ``_starts[key]`` of ``_comps`` (the components reading locus l of
      instance i, ascending) and ``_weights`` (l's weight in each),
      unpadded; ``_targets[e]`` lists the loci entry e's component reads.
    - ``_masks``, XORed into a position, reach the component's distance-2
      table ball: 0, the ``_bits``, then the ``_bits[_pa] | _bits[_pb]``.
      ``_keys[i, j, p]`` (C-ordered) is the flat n x n position of the pair
      ``_loci[i, j, [_pa[p], _pb[p]]]``; hc2's pair sums of a row, a
      symmetric (n, n) matrix, hold each pair's terms in ``_pair_dtype``,
      the smallest signed dtype holding ``-(2*n*(q-1) + 1)``.
    - The scan (:meth:`_row_deltas`) sums each one-bit delta, at most n
      differences within q-1 of 0, in ``_delta_dtype``, the smallest signed
      dtype holding ``-(n*(q-1) + 1)``, by rank: ``_slabs[i, r]`` loci of
      instance i have more than r readers, ``_ranked[i]`` lists its loci by
      reader count, largest first, and entry p of component j fills row
      ``_dest[i, j, p]`` of the scan's rank-major difference matrix.
    - Every kernel works in blocks of one rule (:func:`_blocks`), stating
      where it blocks the int64 words it holds for each row of its work, so
      what it holds stays bounded whatever the batch size; its results do
      not depend on the blocking.

    Only the searchers read ``_targets`` and ``_keys``, so each is built on
    first use: a group that only scans (``batch_scan``, ``batch_totals``)
    never builds them.
    """

    def __init__(self, landscapes):
        first = landscapes[0]
        n, k = self.n, self.k = first.n, first.k
        self.q = max(other.q for other in landscapes)
        self.max_totals = [other.max_total for other in landscapes]
        self._tab = (first.tables.ravel() if len(landscapes) == 1
                     else np.concatenate([other.tables for other in landscapes], axis=None))
        self._bits = np.left_shift(1, np.arange(k + 1, dtype=np.int64))
        self._pa, self._pb = np.triu_indices(k + 1, 1)
        self._masks = np.concatenate(([0], self._bits, self._bits[self._pa] | self._bits[self._pb]))
        self._delta_dtype = _table_dtype(max(self.max_totals) + 1)
        self._pair_dtype = _table_dtype(2 * max(self.max_totals) + 1)
        self._loci = np.stack([np.column_stack((np.arange(n), other.links))
                               for other in landscapes])
        self._offsets = np.arange(len(landscapes) * n, dtype=np.int64).reshape(-1, n) << (k + 1)
        # One stable sort of the reader keys i*n + l orders the entries by
        # key and, within a key, by component.
        readers = (self._loci + n * np.arange(len(landscapes))[:, None, None]).ravel()
        order = np.argsort(readers, kind="stable")
        entries, slots = np.divmod(order, k + 1)
        self._comps, self._weights = entries % n, self._bits[slots]
        self._counts = np.bincount(readers, minlength=len(landscapes) * n)
        self._starts = np.cumsum(self._counts) - self._counts
        # The r-th reader of a locus, in component order, has rank r; rank
        # r's rows of instance i follow those of lower ranks, one a locus
        # read more than r times, in _ranked[i] order. Each array is held in
        # the smallest unsigned dtype holding its values, n or below n(k+1),
        # and is the same size for every instance of one (n, k).
        counts = self._counts.reshape(-1, n)
        ranked = np.argsort(-counts, axis=1, kind="stable")
        place = np.empty_like(ranked)
        np.put_along_axis(place, ranked, np.arange(n), axis=1)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - self._starts[readers[order]]
        rank = rank.reshape(self._loci.shape)
        instance = np.arange(len(landscapes))[:, None, None]
        slabs = np.bincount((instance * n + rank).ravel(),
                            minlength=len(landscapes) * n).reshape(-1, n)
        dest = (np.cumsum(slabs, axis=1) - slabs)[instance, rank] + place[instance, self._loci]
        self._ranked, self._slabs = (a.astype(np.min_scalar_type(n)) for a in (ranked, slabs))
        self._dest = dest.astype(np.min_scalar_type(n * (k + 1) - 1))

    @cached_property
    def _targets(self) -> np.ndarray:
        # Instance i's n*(k+1) entries are the i-th block, so an entry's
        # instance is its block's; loci are below n <= MAX_TABLE_ENTRIES, so
        # int32 holds them.
        size = self.n * (self.k + 1)
        entries = self._comps + self.n * (np.arange(self._comps.size) // size)
        return self._loci.reshape(-1, self.k + 1).astype(np.int32)[entries]

    @cached_property
    def _keys(self) -> np.ndarray:
        return np.ascontiguousarray(self._loci[..., self._pa] * self.n
                                    + self._loci[..., self._pb])

    def _row_deltas(self, states: np.ndarray, i=0):
        """``(pos, totals, deltas)`` of each row of a (batch, n) genotype
        matrix on instance i: the (batch, n) int64 flat table positions of
        the entries its components read, int64 totals, and ``deltas[b, l]``,
        in ``_delta_dtype``, the change of row b's total when locus l
        flips. ``pos`` and ``deltas`` are transposed views of (n, batch)
        arrays. ``states`` is not checked; the public entry points do.

        The rows go in blocks of n positions a row, the components of a
        block of R rows in blocks of (k+1)*R gathered entries a component:
        their positions and values, then one (C, k+1, R) gather of their
        one-bit neighbors, whose differences fill their rows of one (n(k+1),
        R) matrix in ``_delta_dtype``. Rows go inner, so a gather reads C
        components' tables, not all n for every row, and stays in cache at
        K=16. The matrix is rank-major (``_slabs``), so each rank's rows add
        onto the first rank's in one contiguous add, and a locus's partial
        sums, like its delta, lie within n(q-1) of 0. The block rule counts
        n words a row, yet a block also holds that matrix, up to 1.42 MiB
        at K=16, q=100, the largest peak of any kernel; counting it would
        cut a K=16 block from 512 rows to about 97, which slowed ``degn``."""
        n, k = self.n, self.k
        loci, offsets, dest = self._loci[i], self._offsets[i], self._dest[i]
        weights = self._bits.astype(np.int32)
        pos = np.empty((n, len(states)), dtype=np.int64)
        totals = np.zeros(len(states), dtype=np.int64)
        deltas = np.empty((n, len(states)), dtype=self._delta_dtype)
        for rows in _blocks(len(states), n):
            alleles = np.ascontiguousarray(states[rows].T, dtype=np.uint8)
            width = alleles.shape[1]
            diffs = np.empty((n * (k + 1), width), dtype=self._delta_dtype)
            for comps in _blocks(n, (k + 1) * width):
                at = pos[comps, rows]
                # A packed index is below 2**(k+1) <= MAX_TABLE_ENTRIES, so
                # int32 holds it exactly.
                np.add(np.einsum("cpr,p->cr", alleles[loci[comps]], weights),
                       offsets[comps, None], out=at)
                vals = self._tab[at]
                totals[rows] += vals.sum(axis=0, dtype=np.int64)
                # Each difference fits the table dtype.
                diffs[dest[comps].ravel()] = (self._tab[at[:, None] ^ self._bits[:, None]]
                                              - vals[:, None]).reshape(-1, width)
            top = n
            for size in self._slabs[i, 1:].tolist():
                if not size:
                    break
                diffs[:size] += diffs[top:top + size]
                top += size
            deltas[self._ranked[i], rows] = diffs[:n]
        return pos.T, totals, deltas.T

    def _ball_terms(self, pos) -> np.ndarray:
        """``pos.shape + (C(k+1, 2),)`` in ``_pair_dtype``: for each flat
        table position x and pair p of its component's index bits, of
        weights a = ``_bits[_pa[p]]`` and b = ``_bits[_pb[p]]``, the two-bit
        interaction term ``T[x^a^b] - T[x^a] - T[x^b] + T[x]``, from one
        gather of the component's distance-2 table ball: the one gather of
        hc2's pair sums, built (:meth:`_pair_sums`) or moved
        (:meth:`_move_pairs`)."""
        ball = self._tab[pos[..., None] ^ self._masks]
        t0, t1, t2 = ball[..., :1], ball[..., 1:self.k + 2], ball[..., self.k + 2:]
        # Each difference fits the table dtype and a term, +-2(q-1), the
        # pair dtype.
        return np.subtract(t2 - t1[..., self._pa], t1[..., self._pb] - t0,
                           dtype=self._pair_dtype)

    def _pair_sums(self, idx, instances) -> np.ndarray:
        """``(R, n, n)`` in ``_pair_dtype``, symmetric: entry [r, a, b] sums
        the two-bit terms of the components of row r of the table positions
        ``idx`` on instance ``instances[r]`` that read both a and b, 0 at
        a == b. Each block of rows takes one scatter of its components'
        terms by pair and one transposed sum: a row holds its n balls' index
        words and pair targets, and its n*n sums. At most n
        components add to an entry, each a term within 2(q-1), so every
        entry, and every partial sum of a scatter here or in
        :meth:`_move_pairs`, is at most 2n(q-1) from 0."""
        rows, n = idx.shape
        pairs = np.zeros((rows, n, n), dtype=self._pair_dtype)
        for block in _blocks(rows, n * (self._masks.size + self._pa.size + n)):
            at = self._keys[instances[block]]
            at += (n * n) * np.arange(rows)[block, None, None]
            # numpy's fast path of ufunc.at takes flat indices.
            np.add.at(pairs.reshape(-1), at.ravel(), self._ball_terms(idx[block]).ravel())
            pairs[block] += pairs[block].transpose(0, 2, 1)
        return pairs

    def _move_pairs(self, pairs, idx, rows, keys) -> None:
        """Move the pair sums ``pairs`` (:meth:`_pair_sums`) of row
        ``rows[r]`` of the table positions ``idx`` across the flip of the
        locus of key ``keys[r]``, before :meth:`_flip` makes it: only the
        components of the key's by-locus segment change position, from i
        to i^w, and their terms at i^w less those at i are added at each
        pair and its transpose, in blocks of entries that each hold one
        ball's index words and about four words a pair term."""
        n = self.n
        segments = self._segments(rows, keys)
        for block in _blocks(segments[0].size, self._masks.size + 4 * self._pa.size):
            runs, entries = (part[block] for part in segments)
            comps = self._comps[entries]
            i = idx[runs, comps]
            terms = np.subtract(self._ball_terms(i ^ self._weights[entries]),
                                self._ball_terms(i)).ravel()
            # An entry's instance is its block's.
            at = self._keys[entries // (n * (self.k + 1)), comps]
            a, b = np.divmod(at, n)
            base = (n * n) * runs[:, None]
            for pair in (at, b * n + a):
                np.add.at(pairs.reshape(-1), (pair + base).ravel(), terms)

    def _pair_gains(self, pairs, d) -> np.ndarray:
        """``(R, n, n)`` in the dtype of the pair sums ``pairs``
        (:meth:`_pair_sums`) of the rows of the one-bit deltas ``d``: row
        [r, a] holds row r's one-bit deltas with locus a flipped, ``d[r, b]
        + pairs[r, a, b]``, and ``-d[r, a]`` at b == a. Written into
        ``pairs``, which is returned."""
        rows, n = d.shape
        pairs += d.astype(pairs.dtype, copy=False)[:, None, :]
        pairs.reshape(rows, -1)[:, ::n + 1] = -d
        return pairs

    def _mutant_deltas(self, idx, d, rows, keys) -> np.ndarray:
        """``(len(rows), n)`` int64: row r holds the one-bit deltas of row
        ``rows[r]`` of the (R, n) table positions ``idx`` and one-bit deltas
        ``d`` with the locus of key ``keys[r]`` flipped: a copy of ``d[rows]``
        with the terms of :meth:`_add_terms` added, read off ``idx`` in place."""
        local, entries = self._segments(np.arange(len(rows)), keys)
        out = d[rows]
        self._add_terms(out, local, entries, idx[rows[local], self._comps[entries]])
        return out

    def _mutant_lifts(self, idx, d, rows, keys) -> np.ndarray:
        """``(len(rows),)`` int64: the largest of each row of
        :meth:`_mutant_deltas`, scuba's guard, in blocks of rows of n copied
        deltas and (k+1)**2 segment terms of about four words each."""
        lifts = np.empty(len(rows), dtype=np.int64)
        for block in _blocks(len(rows), self.n + 4 * (self.k + 1) ** 2):
            lifts[block] = self._mutant_deltas(idx, d, rows[block], keys[block]).max(axis=1)
        return lifts

    def _segments(self, rows, keys):
        """``(runs, entries)``, one per entry of the by-locus row of key
        ``keys[r]``, for every r at once: its row ``rows[r]`` and its index
        into ``_comps``, ``_weights`` and ``_targets``."""
        counts = self._counts[keys]
        runs = np.repeat(rows, counts)
        entries = np.repeat(self._starts[keys] - np.cumsum(counts) + counts, counts)
        entries += np.arange(entries.size)
        return runs, entries

    def _add_terms(self, d, runs, entries, i) -> None:
        """Add to row ``runs[e]`` of the C-contiguous one-bit deltas ``d``
        the change that moving the component of segment entry ``entries[e]``
        from table position ``i[e]`` to j = i^w makes: the delta at each
        locus it reads, at weight w, moves by ``T[j^w] - T[j] - T[i^w] +
        T[i]`` (Whitley & Chen, GECCO 2012; Chicano, Whitley & Sutton, GECCO
        2014), the flipped locus's negating, one scatter on flattened
        indices a block of entries, each of k+1 terms of about four words."""
        tab = self._tab
        for block in _blocks(entries.size, 4 * (self.k + 1)):
            a = i[block, None]
            b = a ^ self._weights[entries[block], None]
            # Each difference fits the table dtype; a term reaches +-2(q-1).
            terms = np.subtract(tab[b ^ self._bits] - tab[b], tab[a ^ self._bits] - tab[a],
                                dtype=np.int64)
            at = self._targets[entries[block]] + self.n * runs[block, None]
            np.add.at(d.reshape(-1), at.ravel(), terms.ravel())

    def _flip(self, idx, d, rows, keys, deltas=None) -> None:
        """Flip the locus of key ``keys[r]`` of row ``rows[r]`` of the (R, n)
        table positions ``idx`` and one-bit deltas ``d``, in place, for all
        the rows, which must be distinct, at once. Row r of ``deltas``, if
        given, is row ``rows[r]``'s new deltas; otherwise the rows' segments
        move ``d`` (:meth:`_add_terms`). A segment names each component
        once, so the new positions go in with one assignment."""
        runs, entries = self._segments(rows, keys)
        comps = self._comps[entries]
        i = idx[runs, comps]
        if deltas is None:
            self._add_terms(d, runs, entries, i)
        else:
            d[rows] = deltas
        idx[runs, comps] = i ^ self._weights[entries]


def generate(n, k, q, mode=RANDOM, seed=None) -> NkqLandscape:
    """Generate an NKq landscape (see :meth:`NkqLandscape.generate`)."""
    return NkqLandscape.generate(n, k, q, mode=mode, seed=seed)


def serialize(landscape: NkqLandscape) -> str:
    """Render a landscape as its canonical text document.

    Format: a key/value header (format tag, n, k, q, mode, seed) followed by
    one line per locus holding the locus index, its k link loci in stored
    order, then its 2**(k+1) table entries in index order, space-separated.
    Entry ``e`` of locus i's table is its value when the allele at i is
    bit 0 of ``e`` and the allele at ``links[i][m]`` is bit ``m+1``; this
    packing is part of the format and must not change.
    """
    lines = [
        f"format {FORMAT_TAG}",
        f"n {landscape.n}",
        f"k {landscape.k}",
        f"q {landscape.q}",
        f"mode {landscape.mode}",
        f"seed {'none' if landscape.seed is None else landscape.seed}",
    ]
    for i in range(landscape.n):
        fields = [str(i)]
        fields += [str(j) for j in landscape.links[i]]
        fields += [str(v) for v in landscape.tables[i]]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _parse_header_int(key, raw, line):
    try:
        return int(raw)
    except ValueError:
        raise LandscapeFormatError(f"header field {key!r} is not an integer: {raw!r}", line)


def deserialize(text: str) -> NkqLandscape:
    """Parse a landscape document produced by :func:`serialize`.

    Raises :class:`LandscapeFormatError` with the line number on any
    malformed header, locus line, link set or out-of-range table entry.
    """
    header: dict[str, object] = {}
    rows = []
    lines = text.splitlines()
    pos = 0

    for pos, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            raise LandscapeFormatError("blank line inside document", pos)
        parts = line.split()
        if len(header) < len(_HEADER_KEYS) + 1:
            if len(parts) != 2:
                raise LandscapeFormatError(f"expected 'key value' header, got {line!r}", pos)
            key, value = parts
            if pos == 1 and key != "format":
                raise LandscapeFormatError("document must start with a 'format' line", pos)
            if key in header:
                raise LandscapeFormatError(f"duplicate header field {key!r}", pos)
            if key == "format":
                if value != FORMAT_TAG:
                    raise LandscapeFormatError(f"unsupported format {value!r}", pos)
                header[key] = value
            elif key in ("n", "k", "q"):
                header[key] = _parse_header_int(key, value, pos)
            elif key == "mode":
                if value not in MODES:
                    raise LandscapeFormatError(f"mode must be one of {MODES}, got {value!r}", pos)
                header[key] = value
            elif key == "seed":
                header[key] = None if value == "none" else _parse_header_int(key, value, pos)
                if header[key] is not None and header[key] < 0:
                    raise LandscapeFormatError(f"seed must be non-negative, got {value}", pos)
            else:
                raise LandscapeFormatError(f"unknown header field {key!r}", pos)
        else:
            rows.append((pos, parts))

    missing = [key for key in ("format", *_HEADER_KEYS) if key not in header]
    if missing:
        raise LandscapeFormatError(f"missing header field(s): {', '.join(missing)}", pos or None)

    n, k, q = header["n"], header["k"], header["q"]
    try:
        check_params(n, k, q, header["mode"])
    except LandscapeError as exc:
        raise LandscapeFormatError(str(exc)) from exc
    if len(rows) != n:
        raise LandscapeFormatError(f"expected {n} locus lines, found {len(rows)}", pos or None)

    width = 1 + k + 2 ** (k + 1)
    links = np.empty((n, k), dtype=np.int64)
    # Each line is range-checked before assignment, so the fill never wraps.
    tables = np.empty((n, 2 ** (k + 1)), dtype=_table_dtype(q))
    for expected, (lineno, parts) in enumerate(rows):
        if len(parts) != width:
            raise LandscapeFormatError(
                f"locus line has {len(parts)} fields, expected {width} "
                f"(locus, {k} links, {2 ** (k + 1)} table entries)",
                lineno,
            )
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise LandscapeFormatError(f"non-integer field on locus line: {parts!r}", lineno)
        if values[0] != expected:
            raise LandscapeFormatError(f"locus index {values[0]}, expected {expected}", lineno)
        link = values[1 : 1 + k]
        if link and (min(link) < 0 or max(link) > n - 1):
            raise LandscapeFormatError(f"link locus outside [0, {n - 1}]", lineno)
        links[expected] = link
        entry = values[1 + k :]
        if entry and (min(entry) < 0 or max(entry) > q - 1):
            raise LandscapeFormatError(f"table entry outside [0, {q - 1}]", lineno)
        tables[expected] = entry

    try:
        return NkqLandscape(n, k, q, header["mode"], links, tables, seed=header["seed"])
    except LandscapeError as exc:
        raise LandscapeFormatError(str(exc)) from exc


def save_landscape(landscape: NkqLandscape, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize(landscape))


def load_landscape(path) -> NkqLandscape:
    """Read a landscape document from ``path``; it must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LandscapeFormatError(f"not UTF-8 text (byte {exc.start})") from None
    return deserialize(text)
