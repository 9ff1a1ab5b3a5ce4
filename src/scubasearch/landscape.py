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

# Table entries generate draws per chunk, in flat row-major order whatever
# the row width: at most 2**14 raw PCG64 words (128 KB), whose 2**15 halves
# map through temporaries of at most 256 KB each (uint64 values, or the int64
# draw for q > 2**32), so the draw stays within a megabyte of its table.
_DRAW_CHUNK = 2**15

# Gathered table entries (rows x n*(k+1)) batch_scan and scuba's guard handle
# per block of rows, at least one row, so their int64 temporaries stay near
# 2**15 * 8 bytes each, in cache, whatever the batch size.
_SCAN_ENTRIES = 2**15


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
    :data:`_DRAW_CHUNK` halves' worth per chunk. A half the generator holds
    buffered (the links drawn before the table can leave one) is read
    first. Larger q takes 64-bit values, which ``integers`` draws here,
    chunk by chunk.
    """
    q = int(q)
    if q > 2**32:
        for lo in range(0, out.size, _DRAW_CHUNK):
            chunk = out[lo:lo + _DRAW_CHUNK]
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
        words = bitgen.random_raw(-(-min(out.size - filled, _DRAW_CHUNK) // 2))
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
    concurrently executing runs.
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
        self._build_flip_structure()

    def _build_flip_structure(self):
        """Derive the one-bit scan structures from one incidence table.

        ``_loci[j]`` lists the k+1 loci component j reads, j itself first and
        then ``links[j]``; the allele at ``_loci[j, p]`` is bit p of j's table
        index, of weight ``_bits[p] = 1 << p``. Flipping locus l XORs l's
        weight into the index of every component that reads l: the
        ``_aff_locus``/``_aff_weight`` entries list those components,
        ascending, and weights grouped by flip locus, l's segment
        ``_aff_counts[l]`` long from ``_aff_starts[l]``. ``_masks``, XORed
        into a component's table position, reach its distance-2 table ball:
        0, the ``_bits``, then the C(k+1, 2) ``_bits[_pa] | _bits[_pb]``.

        Component j's table starts at ``_row_offsets[j] = j << (k+1)``, above
        bit k, so XOR with a weight on a flat table index flips only the
        component's own index bit: every scan kernel flips bits that way.
        """
        n, k = self.n, self.k
        self._loci = np.column_stack((np.arange(n, dtype=np.int64), self.links))
        self._bits = np.left_shift(1, np.arange(k + 1, dtype=np.int64))
        readers = self._loci.ravel()
        self._aff_locus, slot = np.divmod(np.argsort(readers, kind="stable"), k + 1)
        self._aff_weight = self._bits[slot]
        self._aff_counts = np.bincount(readers, minlength=n)
        self._aff_starts = np.cumsum(self._aff_counts) - self._aff_counts
        self._pa, self._pb = np.triu_indices(k + 1, 1)
        self._masks = np.concatenate(([0], self._bits, self._bits[self._pa] | self._bits[self._pb]))
        self._row_offsets = np.arange(n, dtype=np.int64) << (k + 1)
        self._tab_flat = self.tables.ravel()

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
        total = int(total)
        if not 0 <= total <= self.max_total:
            raise LandscapeError(f"total {total} outside [0, {self.max_total}]")
        return FitnessValue(total, total / self.max_total)

    def total(self, s) -> int:
        """Exact integer fitness total of one genotype."""
        s = as_genotype(s, self.n)
        return int(self.batch_totals(s[None, :])[0])

    def delta_total(self, s, total: int, flip_locus: int) -> int:
        """Total after flipping ``flip_locus``: ``total`` plus the one-bit
        delta at that locus from one one-row :meth:`_row_deltas` scan.
        ``total`` must be the current exact total of ``s``; this is not
        checked."""
        check_integer("flip_locus", flip_locus)
        if not 0 <= flip_locus < self.n:
            raise LandscapeError(f"flip locus {flip_locus} outside [0, {self.n})")
        _, _, deltas = self._row_deltas(as_genotype(s, self.n)[None])
        return int(total) + int(deltas[0, flip_locus])

    # -- vectorized kernels (shared by neighborhood scans and experiments) --

    def _base_indices(self, states: np.ndarray) -> np.ndarray:
        """(batch, n) positions in the flattened tables of the entry each
        component reads for each row of a (batch, n) genotype matrix."""
        states = np.ascontiguousarray(states, dtype=np.uint8)
        # A packed index is below 2**(k+1) <= MAX_TABLE_ENTRIES, so int32
        # holds it exactly.
        return (np.einsum("bjp,p->bj", states[:, self._loci], self._bits.astype(np.int32))
                + self._row_offsets)

    def _row_deltas(self, states: np.ndarray):
        """``(pos, totals, deltas)`` of each row of a (batch, n) genotype
        matrix: :meth:`_base_indices`, int64 totals, and ``deltas[b, l]``
        (int64), the change of row b's total when locus l flips. ``states``
        is not checked; the public entry points check their input."""
        pos = self._base_indices(states)
        tab = self._tab_flat
        vals = tab[pos]
        dvals = tab[pos[:, self._aff_locus] ^ self._aff_weight] - vals[:, self._aff_locus]
        deltas = np.add.reduceat(dvals, self._aff_starts, axis=1, dtype=np.int64)
        return pos, vals.sum(axis=1, dtype=np.int64), deltas

    def batch_totals(self, states) -> np.ndarray:
        """Totals of each row of a (batch, n) genotype matrix of bool or
        integer 0/1 alleles."""
        states = _alleles(states, 2, self.n)
        return self._tab_flat[self._base_indices(states)].sum(axis=1, dtype=np.int64)

    def batch_scan(self, states):
        """Totals of each row and of every one-bit mutant of each row of a
        (batch, n) genotype matrix of bool or integer 0/1 alleles.

        Returns ``(totals, flip_totals)`` with shapes (batch,) and
        (batch, n); ``flip_totals[b, l]`` is the total of row b with locus l
        flipped. One gather per affected component, not per genotype. Rows
        are scanned in blocks of at most :data:`_SCAN_ENTRIES` gathered
        entries (at least one row) written into the two outputs, so the
        scan's temporaries stay bounded whatever the batch size.
        """
        states = _alleles(states, 2, self.n)
        totals = np.empty(len(states), dtype=np.int64)
        flips = np.empty(states.shape, dtype=np.int64)
        block = max(1, _SCAN_ENTRIES // (self.n * (self.k + 1)))
        for lo in range(0, len(states), block):
            hi = lo + block
            _, totals[lo:hi], deltas = self._row_deltas(states[lo:hi])
            np.add(totals[lo:hi, None], deltas, out=flips[lo:hi])
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
    """The per-round kernels of a lockstep batch of runs over landscapes of
    one (n, k) and one table dtype, whose q may differ; ``q`` is the largest.
    Their tables are one flat array, instance i's from ``i * n * 2**(k+1)``
    on (a group of one reads its landscape's, uncopied), so a run's table
    positions are its landscape's plus that offset, and XORing a weight into
    one flips an index bit of the component's own table.

    - ``_keys[i, j, p]``, C-ordered so a batch's gathered rows ravel
      uncopied, is the flat n x n position of the pair (``_loci[j, _pa[p]]``,
      ``_loci[j, _pb[p]]``) of instance i, read by mask ``_masks[k+2+p]``.
    - The by-locus rows are each instance's ``_aff_locus``/``_aff_weight``
      segments, stacked in ``_comps`` and ``_weights``, unpadded: the row of
      key ``i*n + l``, locus l of instance i, is ``_counts[key]`` entries
      from ``_starts[key]``. ``_targets[e]`` lists the loci entry e's
      component reads, whose one-bit deltas its terms move.
    """

    def __init__(self, landscapes):
        first = landscapes[0]
        self.n, self.k = first.n, first.k
        self.q = max(other.q for other in landscapes)
        self.landscapes = landscapes
        self._tab = (first._tab_flat if len(landscapes) == 1
                     else np.concatenate([other._tab_flat for other in landscapes]))
        self._bits, self._pa, self._pb = first._bits, first._pa, first._pb
        self._masks = first._masks
        comps, weights, starts, counts, targets, keys = zip(
            *(self._instance_arrays(other, i) for i, other in enumerate(landscapes)))
        self._comps, self._weights, self._starts, self._counts, self._targets = map(
            np.concatenate, (comps, weights, starts, counts, targets))
        self._keys = np.stack(keys)

    @staticmethod
    def _instance_arrays(landscape, i=0):
        """What a group stacks for ``landscape`` as its instance i: its
        by-locus rows (components, weights, starts after the entries of i
        instances, lengths), their targets and its ball keys."""
        loci, locus = landscape._loci, landscape._aff_locus
        # Loci are below n <= MAX_TABLE_ENTRIES, so int32 holds them.
        return (locus, landscape._aff_weight, landscape._aff_starts + i * locus.size,
                landscape._aff_counts, loci[locus].astype(np.int32),
                np.ascontiguousarray(loci[:, landscape._pa] * landscape.n + loci[:, landscape._pb]))

    def _pair_gains(self, idx, d, instances) -> np.ndarray:
        """``(R, n, n)`` int64: row [r, a] holds the one-bit deltas of row r
        of the positions ``idx`` and deltas ``d`` of instance ``instances[r]``
        with locus a flipped: ``d[b]`` plus the terms of the components
        reading both a and b, and ``-d[a]`` at b == a. One gather of each
        component's distance-2 table ball forms all n*C(k+1, 2) terms, and
        one scatter sums them by pair."""
        rows, n = d.shape
        ball = self._tab[idx[:, :, None] ^ self._masks]
        t0, t1, t2 = ball[..., :1], ball[..., 1:self.k + 2], ball[..., self.k + 2:]
        # Each difference fits the table dtype and a term, +-2(q-1), the
        # dtype holding -2q; the scatter sums in int64.
        terms = np.subtract(t2 - t1[..., self._pa], t1[..., self._pb] - t0,
                            dtype=_table_dtype(2 * self.q))
        at = self._keys[instances]
        at += (n * n) * np.arange(rows)[:, None, None]
        sums = np.zeros((rows, n, n), dtype=np.int64)
        np.add.at(sums.reshape(-1), at.ravel(), terms.astype(np.int64).ravel())
        gains = sums + sums.transpose(0, 2, 1)
        gains += d[:, None, :]
        gains.reshape(rows, -1)[:, ::n + 1] = -d
        return gains

    def _mutant_deltas(self, idx, d, rows, keys) -> np.ndarray:
        """``(len(rows), n)`` int64: row r holds the one-bit deltas of row
        ``rows[r]`` of the (R, n) table positions ``idx`` and one-bit deltas
        ``d`` with the locus of key ``keys[r]`` flipped."""
        out = d[rows]
        self._flip(idx[rows], out, np.arange(len(rows)), keys)
        return out

    def _flip(self, idx, d, rows, keys, deltas=None) -> None:
        """Flip the locus of key ``keys[r]`` of row ``rows[r]`` of the (R, n)
        table positions ``idx`` and one-bit deltas ``d``, in place, for all
        the rows, which must be distinct, at once. Row r of ``deltas``, if
        given, is row ``rows[r]``'s new deltas; otherwise each component of
        the rows' segments, from table position i to j, moves the delta at
        each locus it reads, at weight w, by ``T[j^w] - T[j] - T[i^w] +
        T[i]`` (Whitley & Chen, GECCO 2012; Chicano, Whitley & Sutton, GECCO
        2014), negating the flipped locus's, in one scatter on flattened
        indices of the C-contiguous ``d``. A segment names each component
        once, so the new positions go in with one assignment."""
        counts = self._counts[keys]
        runs = np.repeat(rows, counts)
        entries = np.repeat(self._starts[keys] - np.cumsum(counts) + counts, counts)
        entries += np.arange(entries.size)
        comps = self._comps[entries]
        i = idx[runs, comps]
        j = i ^ self._weights[entries]
        if deltas is None:
            tab, a, b = self._tab, i[:, None], j[:, None]
            # Each difference fits the table dtype; a term reaches +-2(q-1).
            terms = np.subtract(tab[b ^ self._bits] - tab[b], tab[a ^ self._bits] - tab[a],
                                dtype=np.int64)
            at = self._targets[entries] + self.n * runs[:, None]
            np.add.at(d.reshape(-1), at.ravel(), terms.ravel())
        else:
            d[rows] = deltas
        idx[runs, comps] = j


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
