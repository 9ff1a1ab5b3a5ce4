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

from dataclasses import dataclass

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

# Entries generate draws per rng call: whole rows, at most 2**16 entries
# unless a single row is longer, so the int64 draw buffer stays small.
_DRAW_CHUNK = 2**16


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


@dataclass(frozen=True, eq=False)
class FitnessValue:
    """Exact fitness: integer ``total`` plus its normalized real value.

    Equality (and therefore neutrality) compares the integer totals only;
    the float never participates in comparisons.
    """

    total: int
    normalized: float

    def __eq__(self, other):
        if not isinstance(other, FitnessValue):
            return NotImplemented
        return self.total == other.total

    def __lt__(self, other):
        return self.total < other.total

    def __le__(self, other):
        return self.total <= other.total

    def __gt__(self, other):
        return self.total > other.total

    def __ge__(self, other):
        return self.total >= other.total

    def __hash__(self):
        return hash(self.total)


def as_genotype(s, n: int | None = None) -> np.ndarray:
    """Coerce ``s`` (bool or integer 0/1 values, or a '0101' string) to a
    genotype array. Any other dtype, such as floats, is rejected rather than
    truncated."""
    if isinstance(s, str):
        if s.strip("01"):
            raise LandscapeError(f"genotype string must hold only 0 and 1, got {s!r}")
        s = np.array([int(c) for c in s], dtype=np.uint8)
    arr = np.asarray(s)
    if arr.dtype.kind not in "biu":
        raise LandscapeError(f"genotype alleles must be bool or integer, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise LandscapeError(f"genotype must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0)):
        raise LandscapeError("genotype alleles must be 0 or 1")
    if n is not None and arr.size != n:
        raise LandscapeError(f"genotype length {arr.size} does not match n={n}")
    return arr.astype(np.uint8, copy=False)


def _int_array(name: str, values, shape: tuple) -> np.ndarray:
    """``values`` as an array, which must have ``shape`` and a bool or
    integer dtype: floats are rejected rather than truncated (an empty array
    holds nothing to truncate, so any dtype will do)."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        raise LandscapeError(f"{name} must be bool or integer, got dtype {arr.dtype}")
    if arr.shape != shape:
        raise LandscapeError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def check_params(n: int, k: int, q: int, mode: str = RANDOM) -> None:
    """Raise :class:`LandscapeError` unless ``(n, k, q, mode)`` describe a
    landscape this package can hold: ``n >= 1``, ``0 <= k <= n-1``,
    ``q >= 2``, a known mode, totals that fit exactly in int64, and at most
    :data:`MAX_TABLE_ENTRIES` table entries. Allocates nothing."""
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
    links = np.empty((n, k), dtype=np.int64)
    offsets = []
    for d in range(1, k // 2 + k % 2 + 1):
        offsets.append(-d)
        if d <= k // 2:
            offsets.append(d)
    for i in range(n):
        links[i] = [(i + off) % n for off in offsets]
    return links


def _random_links(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    links = np.empty((n, k), dtype=np.int64)
    everyone = np.arange(n)
    for i in range(n):
        others = np.delete(everyone, i)
        links[i] = rng.choice(others, size=k, replace=False)
    return links


class NkqLandscape:
    """An immutable NKq landscape instance.

    Attributes
    ----------
    n : number of loci.
    k : epistatic degree (each component reads k other loci).
    q : neutrality parameter; table entries live in {0, ..., q-1}.
    mode : "adjacent" or "random" link layout (metadata for regeneration).
    seed : generation seed, or None for hand-built instances.
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

        links = _int_array("links", links, (n, k)).astype(np.int64)
        tables = _int_array("tables", tables, (n, 2 ** (k + 1)))
        for i in range(n):
            row = links[i]
            if row.size != len(set(row.tolist())) or i in row:
                raise LandscapeError(f"links[{i}] must be {k} distinct loci != {i}")
            if row.size and (row.min() < 0 or row.max() >= n):
                raise LandscapeError(f"links[{i}] contains an out-of-range locus")
        if tables.size and (tables.min() < 0 or tables.max() > q - 1):
            raise LandscapeError(f"table entries must lie in [0, {q - 1}]")
        # astype copies, so the caller's array is never frozen or aliased.
        tables = tables.astype(_table_dtype(q))

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
        self._pairs = None

    def _build_flip_structure(self):
        """Derive the one-bit scan structures from one incidence table.

        ``_loci[j]`` lists the k+1 loci component j reads, j itself first and
        then ``links[j]``; the allele at ``_loci[j, p]`` is bit p of j's table
        index, of weight ``_bits[p] = 1 << p``. Flipping locus l XORs l's
        weight into the index of every component that reads l: the
        ``_aff_locus``/``_aff_weight`` entries list those components and
        weights grouped by flip locus, each group spanning
        ``[_aff_starts[l], _aff_ends[l])``, for gather/segment-sum scans.

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
        self._aff_ends = np.cumsum(np.bincount(readers, minlength=n))
        self._aff_starts = np.concatenate(([0], self._aff_ends[:-1]))
        self._row_offsets = np.arange(n, dtype=np.int64) << (k + 1)
        self._tab_flat = self.tables.ravel()

    @classmethod
    def generate(cls, n, k, q, mode=RANDOM, seed=None) -> "NkqLandscape":
        """Draw a fresh instance from a PCG64 stream seeded with ``seed``.

        Draw order is fixed: link rows for loci 0..n-1 first (random mode
        only; adjacent links consume no randomness), then every table entry,
        row-major, i.e. loci ascending and table index ascending. Entries
        are drawn as int64 in chunks of whole rows and stored straight into
        the compact table; each value comes from the bit generator's own
        stream, so the chunks consume exactly what one draw of shape
        (n, 2**(k+1)) would. Identical arguments always reproduce the same
        instance; bit-equality across other implementations of this format
        is not promised. A negative seed raises :class:`LandscapeError`.
        """
        check_params(n, k, q, mode)
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        elif seed < 0:
            raise LandscapeError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        if mode == ADJACENT:
            links = adjacent_links(n, k)
        else:
            links = _random_links(n, k, rng)
        width = 2 ** (k + 1)
        tables = np.empty((n, width), dtype=_table_dtype(q))
        rows = max(1, _DRAW_CHUNK // width)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            tables[lo:hi] = rng.integers(0, q, size=(hi - lo, width), dtype=np.int64)
        return cls(n, k, q, mode, links, tables, seed=seed)

    # -- evaluation ---------------------------------------------------------

    def fitness(self, total: int) -> FitnessValue:
        total = int(total)
        if not 0 <= total <= self.max_total:
            raise LandscapeError(f"total {total} outside [0, {self.max_total}]")
        return FitnessValue(total, total / self.max_total)

    def total(self, s) -> int:
        """Exact integer fitness total of one genotype (no counter)."""
        s = as_genotype(s, self.n)
        return int(self.batch_totals(s[None, :])[0])

    def delta_total(self, s, total: int, flip_locus: int) -> int:
        """Total after flipping ``flip_locus``: ``total`` plus the one-bit
        delta at that locus from :meth:`scores`. ``total`` must be the
        current exact total of ``s``; this is not checked."""
        if not 0 <= flip_locus < self.n:
            raise LandscapeError(f"flip locus {flip_locus} outside [0, {self.n})")
        return int(total) + int(self.scores(s).d[flip_locus])

    # -- vectorized kernels (shared by neighborhood scans and experiments) --

    def _base_indices(self, states: np.ndarray) -> np.ndarray:
        """(batch, n) positions in the flattened tables of the entry each
        component reads for each row of a (batch, n) genotype matrix."""
        states = np.ascontiguousarray(states, dtype=np.uint8)
        return states[:, self._loci] @ self._bits + self._row_offsets

    def _row_deltas(self, states: np.ndarray):
        """``(pos, totals, deltas)`` of each row of a (batch, n) genotype
        matrix: :meth:`_base_indices`, int64 totals, and ``deltas[b, l]``
        (int64), the change of row b's total when locus l flips."""
        pos = self._base_indices(states)
        tab = self._tab_flat
        vals = tab[pos]
        dvals = tab[pos[:, self._aff_locus] ^ self._aff_weight] - vals[:, self._aff_locus]
        deltas = np.add.reduceat(dvals, self._aff_starts, axis=1, dtype=np.int64)
        return pos, vals.sum(axis=1, dtype=np.int64), deltas

    def batch_totals(self, states: np.ndarray) -> np.ndarray:
        """Totals of each row of a (batch, n) genotype matrix."""
        return self._tab_flat[self._base_indices(states)].sum(axis=1, dtype=np.int64)

    def batch_scan(self, states: np.ndarray):
        """Totals of each row and of every one-bit mutant of each row.

        Returns ``(totals, flip_totals)`` with shapes (batch,) and
        (batch, n); ``flip_totals[b, l]`` is the total of row b with locus l
        flipped. One gather per affected component, not per genotype.
        """
        _, totals, deltas = self._row_deltas(states)
        return totals, totals[:, None] + deltas

    def _pair_terms(self, i, wa, wb) -> np.ndarray:
        """int64 interaction term ``T[i^wa^wb] - T[i^wa] - T[i^wb] + T[i]``
        of table positions ``i`` and bit weights ``wa``, ``wb`` (broadcast
        together): what flipping both bits adds to the sum of the two one-bit
        changes (Whitley & Chen, GECCO 2012; Chicano, Whitley & Sutton, GECCO
        2014). It is 0 when either weight is 0, and ``2*(T[i] - T[i^wa])``,
        minus twice a one-bit change, when ``wa == wb``."""
        tab = self._tab_flat
        j = i ^ wa
        # Each difference fits the table dtype; the term reaches +-2(q-1).
        return np.subtract(tab[j ^ wb] - tab[j], tab[i ^ wb] - tab[i], dtype=np.int64)

    def _pair_structure(self):
        """``(by_pair, by_locus)`` entries of :meth:`_pair_terms`, built on
        first use from ``_loci`` and the ``_aff_*`` groups.

        - ``by_pair = (comp, wa, wb, starts, flat, flat_t)``: one entry per
          pair of loci a component reads, C(k+1, 2) per component, holding
          the component and the pair's two weights, sorted by the pair key
          ``a*n + b`` (a < b). ``starts`` marks each key's first entry, and
          ``flat``/``flat_t`` are the positions of (a, b) and (b, a) in the
          flattened n x n pair matrix.
        - ``by_locus = (comps, weights, targets)``: row l of ``comps`` and
          ``weights`` lists the components reading l and l's weight in each
          (the ``_aff_*`` group of l), padded to the longest row with
          component 0 at weight 0, whose terms are 0; ``targets[l]`` is
          ``_loci[comps[l]]`` flattened, so the terms of ``comps[l]`` at
          (``weights[l]``, ``_bits``) are what flipping l adds to the
          one-bit change at each target.

        Two threads may both build it; they build the same arrays.
        Landscapes that never take a distance-2 scan or move a score vector
        never build this.
        """
        if self._pairs is None:
            n, k = self.n, self.k
            pa, pb = np.triu_indices(k + 1, 1)
            comp = np.repeat(np.arange(n), pa.size)
            wa, wb = np.tile(self._bits[pa], n), np.tile(self._bits[pb], n)
            la, lb = self._loci[:, pa].ravel(), self._loci[:, pb].ravel()
            key = np.minimum(la, lb) * n + np.maximum(la, lb)
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            lo, hi = np.divmod(key[starts], n)
            by_pair = (comp[order], wa[order], wb[order], starts, key[starts], hi * n + lo)

            counts = self._aff_ends - self._aff_starts
            rows = np.repeat(np.arange(n), counts)
            cols = np.arange(rows.size) - np.repeat(self._aff_starts, counts)
            comps = np.zeros((n, counts.max(), 1), dtype=np.int64)
            weights = np.zeros_like(comps)
            comps[rows, cols, 0] = self._aff_locus
            weights[rows, cols, 0] = self._aff_weight
            self._pairs = (by_pair, (comps, weights, self._loci[comps].reshape(n, -1)))
        return self._pairs

    def pair_scan(self, s):
        """``(total, flip_totals, pair_totals)`` for a single genotype.

        ``pair_totals[a, b]`` is the total of ``s`` with loci a and b both
        flipped; the diagonal holds ``total``. Exact in int64: a two-bit
        move changes the total by ``d[a] + d[b]`` (the one-bit deltas) plus,
        for every component reading both a and b, its :meth:`_pair_terms`
        term, so one one-row scan and n*C(k+1, 2) interaction terms cover
        the whole distance-2 ball.
        """
        s = as_genotype(s, self.n)
        pos, totals, deltas = self._row_deltas(s[None, :])
        total, d = totals[0], deltas[0]
        flips = total + d
        pairs = flips[:, None] + d[None, :]
        np.fill_diagonal(pairs, total)
        (comp, wa, wb, starts, flat, flat_t), _ = self._pair_structure()
        sums = np.add.reduceat(self._pair_terms(pos[0][comp], wa, wb), starts)
        pairs.ravel()[flat] += sums
        pairs.ravel()[flat_t] += sums
        return int(total), flips, pairs

    def scores(self, s) -> "ScoreVector":
        """The :class:`ScoreVector` of genotype ``s``, from one one-row scan."""
        s = as_genotype(s, self.n).copy()
        pos, totals, deltas = self._row_deltas(s[None, :])
        return ScoreVector(self, s, pos[0], int(totals[0]), deltas[0])

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NkqLandscape):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.q == other.q
            and self.mode == other.mode
            and self.seed == other.seed
            and np.array_equal(self.links, other.links)
            and np.array_equal(self.tables, other.tables)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.q, self.mode, self.seed))

    def __repr__(self):
        return (
            f"NkqLandscape(n={self.n}, k={self.k}, q={self.q}, "
            f"mode={self.mode!r}, seed={self.seed})"
        )


class ScoreVector:
    """A genotype together with what a one-bit search asks of it.

    ``s`` is the genotype, ``idx[j]`` the position of component j's entry
    in the flattened tables, ``total`` the exact total and ``d[l]`` (int64)
    the change of the total when locus l flips, so the flip total at l is
    ``total + d[l]`` without a scan (Whitley & Chen, GECCO 2012). A score
    vector never changes once built: :meth:`flip` returns the next one, so
    anything that read an earlier one stays valid. It charges no counter;
    the caller decides what is a query.
    """

    __slots__ = ("landscape", "s", "idx", "total", "d")

    def __init__(self, landscape, s, idx, total, d):
        self.landscape = landscape
        self.s = s
        self.idx = idx
        self.total = total
        self.d = d

    def mutant_deltas(self, loci) -> np.ndarray:
        """``(len(loci), n)`` int64: row r holds the one-bit deltas of ``s``
        with ``loci[r]`` flipped. Flipping l moves the delta at m by the pair
        terms of the components that read both l and m; at m = l those terms
        sum to ``-2 d[l]``, negating it."""
        loci = np.asarray(loci, dtype=np.intp)
        landscape = self.landscape
        comps, weights, targets = landscape._pair_structure()[1]
        terms = landscape._pair_terms(self.idx[comps[loci]], weights[loci], landscape._bits)
        rows = np.repeat(self.d[None, :], loci.size, axis=0)
        at = targets[loci] + np.arange(0, rows.size, landscape.n)[:, None]
        np.add.at(rows.reshape(-1), at.reshape(-1), terms.reshape(-1))
        return rows

    def flip(self, locus: int) -> "ScoreVector":
        """The score vector of ``s`` with ``locus`` flipped; ``self`` is left
        as it is. Its deltas are the row of :meth:`mutant_deltas` for
        ``locus``."""
        landscape = self.landscape
        comps, weights, targets = landscape._pair_structure()[1]
        terms = landscape._pair_terms(self.idx[comps[locus]], weights[locus], landscape._bits)
        d = self.d.copy()
        np.add.at(d, targets[locus], terms.reshape(-1))
        lo, hi = landscape._aff_starts[locus], landscape._aff_ends[locus]
        idx = self.idx.copy()
        idx[landscape._aff_locus[lo:hi]] ^= landscape._aff_weight[lo:hi]
        s = self.s.copy()
        s[locus] ^= 1
        return ScoreVector(landscape, s, idx, self.total + int(self.d[locus]), d)


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
