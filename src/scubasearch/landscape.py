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

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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


def component_index(s, locus: int, links) -> int:
    """Index into locus ``locus``'s component table for genotype ``s``.

    Packing convention: the locus's own allele occupies bit 0 and the allele
    at ``links[locus][m]`` occupies bit ``m+1``. This convention is part of
    the serialization format and must not change.
    """
    idx = int(s[locus])
    for m, j in enumerate(links[locus]):
        idx += int(s[j]) << (m + 1)
    return idx


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

    The arrays are frozen after construction; instances are safe to share
    across concurrently executing runs.
    """

    def __init__(self, n, k, q, mode, links, tables, seed=None):
        check_params(n, k, q, mode)

        links = np.array(links, dtype=np.int64).reshape(n, k)
        tables = np.asarray(tables)
        if tables.dtype.kind not in "iu":
            tables = tables.astype(np.int64)
        tables = tables.reshape(n, 2 ** (k + 1))
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

    @property
    def denominator(self) -> int:
        return self.max_total

    def _build_flip_structure(self):
        """Precompute, per flip locus, which components change and by what bit.

        Flipping locus l shifts component j's table index by +-w where w is
        the packed bit weight of l inside component j; component l itself
        always changes with weight 1. Entries are flattened and grouped by
        flip locus for vectorized gather/segment-sum scans.

        Component j's table starts at ``_row_offsets[j] = j << (k+1)``, above
        bit k, so XOR with a weight on a flat table index flips only the
        component's own index bit: every scan kernel flips bits that way.
        """
        n, k = self.n, self.k
        per_flip_locus = [[i] for i in range(n)]
        per_flip_weight = [[1] for i in range(n)]
        for j in range(n):
            for m in range(k):
                per_flip_locus[self.links[j, m]].append(j)
                per_flip_weight[self.links[j, m]].append(1 << (m + 1))

        counts = np.array([len(g) for g in per_flip_locus], dtype=np.int64)
        self._aff_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._aff_ends = np.cumsum(counts)
        self._aff_locus = np.array(
            [j for group in per_flip_locus for j in group], dtype=np.int64
        )
        self._aff_weight = np.array(
            [w for group in per_flip_weight for w in group], dtype=np.int64
        )

        self._row_offsets = np.arange(n, dtype=np.int64) << (k + 1)
        self._tab_flat = self.tables.ravel()
        self._aff_offsets = self._row_offsets[self._aff_locus]
        self._link_weights = (
            np.left_shift(1, np.arange(1, k + 1, dtype=np.int64))
            if k
            else np.empty(0, dtype=np.int64)
        )

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
        is not promised.
        """
        check_params(n, k, q, mode)
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
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

    def evaluate(self, s, counter=None) -> FitnessValue:
        """Fitness of ``s``; ticks ``counter`` by one query if given."""
        value = self.fitness(self.total(s))
        if counter is not None:
            counter.add(1)
        return value

    def delta_total(self, s, total: int, flip_locus: int) -> int:
        """Total after flipping ``flip_locus``, recomputing only the affected
        components ({flip_locus} plus every locus linking to it). ``total``
        must be the current exact total of ``s``; this is not checked."""
        lo = self._aff_starts[flip_locus]
        hi = self._aff_ends[flip_locus]
        loci = self._aff_locus[lo:hi]
        weights = self._aff_weight[lo:hi]
        idx = s[loci].astype(np.int64)
        if self.k:
            idx += s[self.links[loci]].astype(np.int64) @ self._link_weights
        base = self._row_offsets[loci] + idx
        tab = self._tab_flat
        change = tab[base ^ weights] - tab[base]
        return int(total) + int(change.sum())

    def delta_evaluate(self, s, total: int, flip_locus: int, counter=None) -> FitnessValue:
        """Incremental fitness of ``flip(s, flip_locus)``; one counted query."""
        s = as_genotype(s, self.n)
        if not 0 <= flip_locus < self.n:
            raise LandscapeError(f"flip locus {flip_locus} outside [0, {self.n})")
        value = self.fitness(self.delta_total(s, total, flip_locus))
        if counter is not None:
            counter.add(1)
        return value

    # -- vectorized kernels (shared by neighborhood scans and experiments) --

    def _base_indices(self, states: np.ndarray) -> np.ndarray:
        idx = states.astype(np.int64)
        if self.k:
            idx = idx + states[:, self.links].astype(np.int64) @ self._link_weights
        return idx

    def _row_deltas(self, states: np.ndarray):
        """``(idx, vals, totals, deltas)`` of each row of a (batch, n)
        genotype matrix: component table indices and values, totals, and
        ``deltas[b, l]``, the change of row b's total when locus l flips.
        ``vals`` keeps the table dtype; totals and deltas are int64."""
        states = np.ascontiguousarray(states, dtype=np.uint8)
        idx = self._base_indices(states)
        tab = self._tab_flat
        vals = tab[self._row_offsets + idx]
        base = idx[:, self._aff_locus] + self._aff_offsets
        dvals = tab[base ^ self._aff_weight] - vals[:, self._aff_locus]
        deltas = np.add.reduceat(dvals, self._aff_starts, axis=1, dtype=np.int64)
        return idx, vals, vals.sum(axis=1, dtype=np.int64), deltas

    def batch_totals(self, states: np.ndarray) -> np.ndarray:
        """Totals of each row of a (batch, n) genotype matrix."""
        states = np.ascontiguousarray(states, dtype=np.uint8)
        idx = self._base_indices(states)
        return self._tab_flat[self._row_offsets + idx].sum(axis=1, dtype=np.int64)

    def batch_scan(self, states: np.ndarray):
        """Totals of each row and of every one-bit mutant of each row.

        Returns ``(totals, flip_totals)`` with shapes (batch,) and
        (batch, n); ``flip_totals[b, l]`` is the total of row b with locus l
        flipped. One gather per affected component, not per genotype.
        """
        _, _, totals, deltas = self._row_deltas(states)
        return totals, totals[:, None] + deltas

    def _pair_structure(self):
        """Per component, every pair of the loci it reads, built on first use.

        Component j reads k+1 loci: j itself at bit weight 1 and
        ``links[j, m]`` at weight ``1 << (m+1)``. Each of its C(k+1, 2)
        pairs is one entry, holding j and both weights.
        Entries are sorted by the pair key ``a*n + b`` (a < b); ``starts``
        marks each key's first entry, and ``flat``/``flat_t`` are the
        positions of (a, b) and (b, a) in the flattened n x n pair matrix.
        Two threads may both build it; they build the same arrays.
        Landscapes that never take a distance-2 scan never build this.
        """
        if self._pairs is None:
            n, k = self.n, self.k
            loci = np.column_stack((np.arange(n, dtype=np.int64), self.links))
            pa, pb = np.triu_indices(k + 1, 1)
            comp = np.repeat(np.arange(n, dtype=np.int64), pa.size)
            la, lb = loci[:, pa].ravel(), loci[:, pb].ravel()
            wa = np.tile(np.left_shift(1, pa), n)
            wb = np.tile(np.left_shift(1, pb), n)
            lo, hi = np.minimum(la, lb), np.maximum(la, lb)
            order = np.argsort(lo * n + hi, kind="stable")
            lo, hi = lo[order], hi[order]
            key = lo * n + hi
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            wa, wb = wa[order], wb[order]
            self._pairs = (comp[order], wa, wb, wa | wb, starts,
                           key[starts], hi[starts] * n + lo[starts])
        return self._pairs

    def pair_scan(self, s):
        """``(total, flip_totals, pair_totals)`` for a single genotype.

        ``pair_totals[a, b]`` is the total of ``s`` with loci a and b both
        flipped; the diagonal holds ``total``. Exact in int64: a two-bit
        move changes the total by ``d[a] + d[b]`` (the one-bit deltas) plus,
        for every component reading both a and b, the interaction term
        ``T[i^wa^wb] - T[i^wa] - T[i^wb] + T[i]``, so one one-row scan and
        n*C(k+1, 2) interaction terms cover the whole distance-2 ball.
        """
        s = as_genotype(s, self.n)
        idx, vals, totals, deltas = self._row_deltas(s[None, :])
        total, d, vals = totals[0], deltas[0], vals[0]
        flips = total + d
        pairs = flips[:, None] + d[None, :]
        np.fill_diagonal(pairs, total)
        if self.k:
            comp, wa, wb, wab, starts, flat, flat_t = self._pair_structure()
            base = (self._row_offsets + idx[0])[comp]
            tab = self._tab_flat
            # A term reaches +-2(q-1), past the table dtype: cast the first.
            terms = (tab[base ^ wab].astype(np.int64) - tab[base ^ wa]
                     - tab[base ^ wb] + vals[comp])
            sums = np.add.reduceat(terms, starts)
            pairs.ravel()[flat] += sums
            pairs.ravel()[flat_t] += sums
        return int(total), flips, pairs

    def scan(self, s):
        """(total, flip totals) for a single genotype."""
        s = as_genotype(s, self.n)
        totals, flips = self.batch_scan(s[None, :])
        return int(totals[0]), flips[0]

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


def generate(n, k, q, mode=RANDOM, seed=None) -> NkqLandscape:
    """Generate an NKq landscape (see :meth:`NkqLandscape.generate`)."""
    return NkqLandscape.generate(n, k, q, mode=mode, seed=seed)


def serialize(landscape: NkqLandscape) -> str:
    """Render a landscape as its canonical text document.

    Format: a key/value header (format tag, n, k, q, mode, seed) followed by
    one line per locus holding the locus index, its k link loci in stored
    order, then its 2**(k+1) table entries in index order, space-separated.
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
        links[expected] = values[1 : 1 + k]
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
    with open(path, "r") as fh:
        return deserialize(fh.read())
