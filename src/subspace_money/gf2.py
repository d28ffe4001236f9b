"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints, one bit per coordinate.
Convention used everywhere in this package: coordinate 1 of a length-n
vector is the leftmost character of its text form and the most significant
of the n packed bits.  So ``BitVec.from_string("100011")`` has coordinate 1
set, and its ``value`` doubles as the basis-state index of the matching
computational basis ket.

Subspaces are canonicalized to reduced row echelon form, which makes
subspace equality a plain bit-grid comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import reserve
from .rng import Seed, as_generator

# min_distance tabulates the span of this many basis rows once and weighs the
# rest of the span one table-sized block at a time, stopping at the first
# block that reaches its floor.  Larger blocks raise the peak memory of code
# search without making it faster.
_BLOCK_ROWS = 10
_LIMB_MASK = (1 << 64) - 1


def _pack(values: Sequence[int], width: int) -> np.ndarray:
    """width-bit ints as an array in the smallest unsigned dtype that holds width bits.

    Wider than 64 bits, each value is a row of uint64 limbs along a trailing
    axis, most significant limb first.
    """
    if width <= 64:
        return np.array(values, dtype=np.min_scalar_type((1 << width) - 1))
    limbs = -(-width // 64)
    return np.array(
        [[(v >> (64 * j)) & _LIMB_MASK for j in reversed(range(limbs))] for v in values],
        dtype=np.uint64,
    ).reshape(len(values), limbs)


def _unpack(packed: np.ndarray) -> list[int]:
    """The ints of a ``_pack`` layout, one per entry along the first axis."""
    if packed.ndim == 1:
        return packed.tolist()
    return [int.from_bytes(row.astype(">u8").tobytes(), "big") for row in packed]


def _span_table(rows: Sequence[int], width: int) -> np.ndarray:
    """Every XOR of a subset of width-bit rows: entry i sums the rows picked by the bits of i.

    Built by doubling, entries [2^j, 2^(j+1)) being entries [0, 2^j) XOR row
    j, in the ``_pack`` layout.
    """
    packed = _pack(rows, width)
    table = np.zeros((1 << len(rows),) + packed.shape[1:], dtype=packed.dtype)
    for j in range(len(rows)):
        np.bitwise_xor(table[: 1 << j], packed[j], out=table[1 << j : 2 << j])
    return table


def _weights(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Hamming weight of every entry of a span table, written through counts."""
    np.bitwise_count(words, out=counts)
    return counts if counts.ndim == 1 else counts.sum(axis=1)


def _bit_rows(block: np.ndarray) -> list[int]:
    """The rows of a 2-D array of 0/1 bits as ints, leftmost bit most significant."""
    count, width = block.shape
    packed = np.packbits(block, axis=1)
    # One int holds the packed block; row i is its i-th step-bit field from the top.
    step = 8 * packed.shape[1]
    whole = int.from_bytes(packed.tobytes(), "big") >> (step - width)
    mask = (1 << width) - 1
    return [(whole >> (step * (count - 1 - i))) & mask for i in range(count)]


def _bit_block(values: Sequence[int], width: int) -> np.ndarray:
    """width-bit ints as the rows of a uint8 array of their bits, the inverse of ``_bit_rows``."""
    nbytes = -(-width // 8)
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "big") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), nbytes), axis=1)[:, 8 * nbytes - width :]


def _random_rows(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """count uniformly random n-bit values, drawn as one count x n block of bits.

    The block holds the same bits, and leaves the generator in the same
    state, as count separate n-bit draws.
    """
    return _bit_rows(rng.integers(0, 2, size=(count, n)))


def _independent_rows(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """count linearly independent n-bit rows: ``_random_rows`` blocks, redrawn until independent.

    Each row is reduced against the rows before it, kept by leading bit; a
    row that reduces to zero makes the block rank-deficient.
    """
    while True:
        rows = _random_rows(n, count, rng)
        if len(_echelon(rows)) == count:
            return rows


def _echelon(values: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the values' span, each row keyed by its bit length.

    Each value is reduced by the rows kept so far, highest leading bit first,
    and kept if anything is left, so no two rows share a leading bit.
    """
    lead: dict[int, int] = {}
    for r in values:
        while r:
            top = r.bit_length()
            if top not in lead:
                lead[top] = r
                break
            r ^= lead[top]
    return lead


def _bit_string_value(text: str) -> int:
    """The packed value of an ASCII '0'/'1' string; ValueError naming it otherwise."""
    if not isinstance(text, str) or not text or text.strip("01"):
        raise ValueError(f"not a bit string: {text!r}")
    return int(text, 2)


@dataclass(frozen=True, slots=True)
class BitVec:
    """Immutable vector over GF(2) of fixed length n, packed into one int."""

    n: int
    value: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("BitVec length must be >= 1")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        """Parse an ASCII '0'/'1' string, leftmost character = coordinate 1."""
        return cls(len(text), _bit_string_value(text))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVec":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def from_support(cls, n: int, positions: Iterable[int]) -> "BitVec":
        """Vector with ones exactly at the given 0-based coordinates."""
        value = 0
        for p in positions:
            if not 0 <= p < n:
                raise ValueError(f"position {p} out of range")
            value |= 1 << (n - 1 - p)
        return cls(n, value)

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    def bit(self, i: int) -> int:
        """Bit at 0-based coordinate i (coordinate i+1 of the 1-based convention)."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> (self.n - 1 - i)) & 1

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def dot(self, other: "BitVec") -> int:
        """GF(2) inner product."""
        self._check_len(other)
        return (self.value & other.value).bit_count() & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bit(i))

    def _check_len(self, other: "BitVec") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check_len(other)
        return BitVec(self.n, self.value ^ other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"BitVec('{self}')"


def random_bitvec(n: int, seed: Seed) -> BitVec:
    """Uniformly random length-n vector, deterministic given the seed."""
    return BitVec(n, _random_rows(n, 1, as_generator(seed))[0])


@dataclass(frozen=True, slots=True)
class Gf2Matrix:
    """Immutable matrix over GF(2), its rows packed ints held in a tuple."""

    rows: int
    cols: int
    row_values: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 1:
            raise ValueError("bad matrix shape")
        vals = tuple(map(int, self.row_values))
        if len(vals) != self.rows:
            raise ValueError("row count mismatch")
        if vals and (min(vals) < 0 or max(vals) >> self.cols):
            raise ValueError("row value out of range for column count")
        object.__setattr__(self, "row_values", vals)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "Gf2Matrix":
        """The matrix of bit-string rows, each checked as BitVec.from_string checks it, then as from_rows."""
        values = [_bit_string_value(s) for s in lines]
        if not values:
            raise ValueError("need at least one row; use zeros() for empty shapes")
        if any(len(s) != len(lines[0]) for s in lines):
            raise ValueError("ragged rows")
        return cls(len(values), len(lines[0]), values)

    @classmethod
    def from_rows(cls, vecs: Sequence[BitVec]) -> "Gf2Matrix":
        if not vecs:
            raise ValueError("need at least one row; use zeros() for empty shapes")
        cols = vecs[0].n
        if any(v.n != cols for v in vecs):
            raise ValueError("ragged rows")
        return cls(len(vecs), cols, [v.value for v in vecs])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, [0] * rows)

    def __iter__(self) -> Iterator[BitVec]:
        for v in self.row_values:
            yield BitVec(self.cols, v)

    def entry(self, i: int, j: int) -> int:
        return (self.row_values[i] >> (self.cols - 1 - j)) & 1

    def column(self, j: int) -> BitVec:
        return BitVec.from_bits([self.entry(i, j) for i in range(self.rows)])

    def transpose(self) -> "Gf2Matrix":
        """Column j as row j: each set bit of row i goes to bit rows-1-i of its column."""
        columns = [0] * self.cols
        for i, v in enumerate(self.row_values):
            bit = 1 << (self.rows - 1 - i)
            while v:
                top = v.bit_length()
                columns[self.cols - top] |= bit
                v ^= 1 << (top - 1)
        return Gf2Matrix(self.cols, self.rows, columns)

    def mul_vec(self, v: BitVec) -> BitVec:
        """Matrix-vector product; result coordinate i is row_i . v."""
        if v.n != self.cols:
            raise ValueError(f"length mismatch: {v.n} vs {self.cols} columns")
        if not self.rows:
            raise ValueError("matrix has no rows")
        out = 0
        for rv in self.row_values:
            out = (out << 1) | ((rv & v.value).bit_count() & 1)
        return BitVec(self.rows, out)

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        ot = other.transpose()
        vals = []
        for rv in self.row_values:
            v = 0
            for cv in ot.row_values:
                v = (v << 1) | ((rv & cv).bit_count() & 1)
            vals.append(v)
        return Gf2Matrix(self.rows, other.cols, vals)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.row_values)

    def inverse(self) -> "Gf2Matrix":
        """Inverse of a square invertible matrix; raises ValueError otherwise."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.cols
        # The RREF of [A | I] is [I | A^-1] exactly when A is invertible.
        joined = [(rv << n) | (1 << (n - 1 - i)) for i, rv in enumerate(self.row_values)]
        reduced = rref(Gf2Matrix(n, 2 * n, joined))[0].row_values
        if [r >> n for r in reduced] != [1 << (n - 1 - i) for i in range(n)]:
            raise ValueError("matrix is not invertible over GF(2)")
        return Gf2Matrix(n, n, [r & ((1 << n) - 1) for r in reduced])

    def to_strings(self) -> list[str]:
        return [format(v, f"0{self.cols}b") for v in self.row_values]

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.to_strings()!r})"


def rref(m: Gf2Matrix) -> tuple[Gf2Matrix, int]:
    """Reduced row echelon form with zero rows dropped, plus the rank.

    The row space is unchanged and the output is the canonical
    representative of it: pivots strictly left to right, each pivot the only
    one in its column.
    """
    lead = _echelon(m.row_values)
    tops = sorted(lead, reverse=True)
    rows = [lead[t] for t in tops]
    # Back-substitution from the bottom: the rows below row i are already
    # reduced, so each clears its own pivot bit from row i and touches no other.
    for i in reversed(range(len(rows))):
        r = rows[i]
        for j in range(i + 1, len(rows)):
            if r >> (tops[j] - 1) & 1:
                r ^= rows[j]
        rows[i] = r
    return Gf2Matrix(len(rows), m.cols, rows), len(rows)


@dataclass(frozen=True, slots=True, init=False)
class SubspaceBasis:
    """A linear subspace of F_2^n held as its canonical RREF basis.

    Two SubspaceBasis values are equal exactly when they describe the same
    subspace, because the RREF representative is unique.
    """

    n: int
    basis: Gf2Matrix

    def __init__(self, n: int, rows: Iterable[BitVec | str | int] = ()):
        vecs = []
        for r in rows:
            if isinstance(r, BitVec):
                if r.n != n:
                    raise ValueError("row length differs from ambient dimension")
                vecs.append(r.value)
            elif isinstance(r, str):
                b = BitVec.from_string(r)
                if b.n != n:
                    raise ValueError("row length differs from ambient dimension")
                vecs.append(b.value)
            else:
                vecs.append(int(r))
        if vecs:
            canon, _ = rref(Gf2Matrix(len(vecs), n, vecs))
        else:
            canon = Gf2Matrix(0, n, [])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", canon)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "SubspaceBasis":
        if not lines:
            raise ValueError("cannot infer ambient dimension from no rows")
        return cls(len(lines[0]), lines)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> Iterator[BitVec]:
        """All 2^dim elements of the subspace, in the order of ``vector_values``."""
        for v in _unpack(self.vector_values()):
            yield BitVec(self.n, v)

    def vector_values(self) -> np.ndarray:
        """All 2^dim packed elements of the subspace, in binary-counting order.

        Entry i is the sum of the RREF basis rows picked by the bits of i (bit
        j picks row j), in the smallest unsigned dtype that holds n bits; for
        n > 64 each entry is a row of uint64 limbs, most significant first.
        """
        reserve((1 << self.dim,), np.uint64)
        return _span_table(self.basis.row_values, self.n)

    def dual(self) -> "SubspaceBasis":
        """Orthogonal complement under the GF(2) dot product.

        Read with its pivot columns first, the RREF basis is [I | A], and
        [A^T | I] spans its complement: one row per free column f, with a
        one at f and row i's bit f at row i's pivot.  The rows are built on
        the basis' ints, one step per set bit, as a code's k x n basis is small.
        """
        values = self.basis.row_values
        taken = sum(1 << (v.bit_length() - 1) for v in values)
        rows = {1 << j: 1 << j for j in range(self.n) if not taken >> j & 1}
        for v in values:
            pivot = 1 << (v.bit_length() - 1)
            rest = v ^ pivot  # only free columns: no other row's pivot is set in v
            while rest:
                free = rest & -rest
                rows[free] |= pivot
                rest ^= free
        return SubspaceBasis(self.n, rows.values())

    def min_distance(self, floor: int = 1) -> int:
        """Minimum Hamming weight over the nonzero span, by a blocked walk that may stop early.

        Every codeword is an entry of the span table of the first 10 RREF
        basis rows XOR one sum of the remaining rows.  So the walk weighs a
        block of up to 2^10 codewords per numpy call, through two reused
        buffers, and takes at most 2^(dim-10) Python steps instead of 2^dim.
        It stops after the first block holding a nonzero word of weight <=
        floor, and builds no table of the remaining rows' sums when that is
        the first block.  The result is exact whenever no nonzero word is
        lighter than floor, as for the default of 1, so a caller that has
        proved d >= floor gets d itself.
        """
        k = self.dim
        if k == 0:
            raise ValueError("minimum distance undefined for the zero subspace")
        reserve((1 << k,), np.uint64)
        rows = self.basis.row_values
        low = _span_table(rows[:_BLOCK_ROWS], self.n)
        counts = np.empty(low.shape, dtype=np.uint8)
        best = _weights(low, counts)[1:].min()  # entry 0 of the first block is the zero word
        if k > _BLOCK_ROWS and best > floor:
            buf = np.empty_like(low)
            for offset in _span_table(rows[_BLOCK_ROWS:], self.n)[1:]:
                np.bitwise_xor(low, offset, out=buf)
                best = min(best, _weights(buf, counts).min())
                if best <= floor:
                    break
        return int(best)

    def __repr__(self) -> str:
        return f"SubspaceBasis({self.n}, {self.basis.to_strings()!r})"


@dataclass(frozen=True, slots=True, init=False)
class BasisMap:
    """An invertible linear map of F_2^n given by its images of the standard basis.

    Column i of ``matrix`` is u_i, the image of the i-th standard basis
    vector; applying the map sends x to the GF(2) combination of columns
    selected by the bits of x.  The induced permutation of computational
    basis kets is the unitary used for conjugate-coding mints.
    """

    n: int
    matrix: Gf2Matrix

    def __init__(self, matrix: Gf2Matrix):
        if matrix.rows != matrix.cols:
            raise ValueError("basis map must be square")
        matrix.inverse()  # raises ValueError when singular
        object.__setattr__(self, "n", matrix.cols)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_columns(cls, cols: Sequence[BitVec]) -> "BasisMap":
        return cls(Gf2Matrix.from_rows(cols).transpose())

    def column(self, i: int) -> BitVec:
        return self.matrix.column(i)

    def columns(self) -> list[BitVec]:
        return [self.column(i) for i in range(self.n)]

    def __repr__(self) -> str:
        return f"BasisMap({self.matrix.to_strings()!r})"
