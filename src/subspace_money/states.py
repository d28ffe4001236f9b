"""Exact pure quantum states: dense amplitude vectors, Pauli action, Walsh transforms, dumps.

Basis-state indexing follows the package bit convention: the ket labelled by
the bit string ``b`` sits at amplitude index ``int(b, 2)``, so a ``BitVec``'s
``value`` is directly the index of its computational basis state.  Global
phases are tracked exactly where constructions produce them but every
acceptance-style quantity ignores them, as any projective measurement must.
A note is always pure; the registers that a counterfeiter could hold mixed,
maximally mixed or measured, the verifier frame scores in closed form.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, groupby, repeat
from operator import itemgetter

import numpy as np

from .errors import reserve
from .gf2 import BasisMap, BitVec, SubspaceBasis, _span_table

ATOL_INVARIANT = 1e-9  # normalization and orthonormality checks


@np.errstate(over="ignore")  # parts near 1e300 overflow the squared norm to inf, refused below
def _check_unit_norm(amps: np.ndarray) -> None:
    norm = float(np.linalg.norm(amps))
    # NaN compares False against any tolerance, so finiteness is checked apart.
    if not math.isfinite(norm) or abs(norm - 1.0) > ATOL_INVARIANT:
        raise ValueError(f"state is not a finite unit vector: |psi| = {norm}")


@dataclass(frozen=True, slots=True, init=False, eq=False)
class DenseState:
    """Immutable pure n-qubit state as 2^n read-only complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __init__(self, n: int, amplitudes):
        reserve((1 << n,))
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes for n={n}, got shape {arr.shape}")
        _check_unit_norm(arr)
        self._adopt(n, arr.copy())

    @classmethod
    def _own(cls, n: int, amplitudes: np.ndarray) -> "DenseState":
        """Take a freshly built complex128 vector without copying or checking it."""
        return object.__new__(cls)._adopt(n, amplitudes)

    def _adopt(self, n: int, amplitudes: np.ndarray) -> "DenseState":
        amplitudes.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amplitudes)
        return self

    def amplitude(self, b: BitVec | int) -> complex:
        idx = b.value if isinstance(b, BitVec) else int(b)
        return complex(self.amplitudes[idx])

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 in one fresh 2^n float64 array, reserved against the budget first."""
        reserve((1 << self.n,), np.float64)
        probs = np.abs(self.amplitudes)
        return np.square(probs, out=probs)

    def support(self) -> list[BitVec]:
        return [BitVec(self.n, int(i)) for i in np.flatnonzero(self.amplitudes)]

    def __repr__(self) -> str:
        return f"DenseState(n={self.n}, support={np.count_nonzero(self.amplitudes)})"


def subspace_state(s: SubspaceBasis) -> DenseState:
    """Uniform superposition over all vectors of the subspace."""
    return coset_state(s, BitVec.zeros(s.n), BitVec.zeros(s.n))


def coset_state(s: SubspaceBasis, e: BitVec, e_prime: BitVec) -> DenseState:
    """X^e Z^e' applied to the subspace state: amplitudes (-1)^(v.e') on v+e."""
    if e.n != s.n or e_prime.n != s.n:
        raise ValueError("error vector length differs from the ambient dimension")
    values = s.vector_values()
    reserve((1 << s.n,))
    amps = np.zeros(1 << s.n, dtype=np.complex128)
    amps[values ^ e.value] = _coset_amplitudes(values, e_prime)
    return DenseState._own(s.n, amps)


def _coset_amplitudes(codewords: np.ndarray, e_prime: BitVec) -> np.ndarray:
    """(-1)^(v.e') / sqrt(|C|) for each codeword v of a code C listed in full, in its order.

    The coset state's amplitude at v + e, so a caller that lists C in another
    order, a frame row for one, gets the same bits at each string.
    """
    parity = (np.bitwise_count(codewords & e_prime.value) & 1).astype(np.float64)
    return (1.0 - 2.0 * parity) / math.sqrt(len(codewords))


def apply_pauli(st: DenseState, e: BitVec, e_prime: BitVec, sign: int = 1) -> DenseState:
    """sign X^e Z^e' as an operator product on kets, sign +1 or -1: phase from the pre-shift index.

    New amplitude at p is sign (-1)^(e.e') (-1)^(p.e') times the old one at
    p+e.  The result is the only 2^n array: each row block (a sixteenth of
    the note, at most 2^_BLOCK_BITS amplitudes, so it stays in cache and
    bounds numpy's buffers) is one np.multiply of a +-1 factor of the
    block's shape, chosen in float and cast to complex once, with the source
    row read through a view with one axis per run of coordinates that e
    flips alike, reversed where it flips them.  A row's sign from above the
    block is a scalar, so odd rows run after the factor is negated.  A
    complex product by +-1 can give a zero part the sign -, so each block
    then adds 0.0 where it lies: no part of the result is -0.0.
    """
    if e.n != st.n or e_prime.n != st.n:
        raise ValueError("error vector length differs from the state size")
    if sign not in (1, -1):
        raise ValueError(f"a Pauli's sign is +1 or -1, not {sign!r}")
    n, dim = st.n, 1 << st.n
    reserve((dim,))
    low = max(min(n - 4, _BLOCK_BITS), 1)
    bits = (e.value >> j & 1 for j in reversed(range(low)))
    runs = [(flip, 1 << len(list(run))) for flip, run in groupby(bits)]
    shape = [size for _, size in runs]
    sources = st.amplitudes.reshape(-1, *shape)[
        (slice(None), *(slice(None, None, -1 if flip else 1) for flip, _ in runs))
    ]
    sign = -sign if e.dot(e_prime) else sign
    factor = _sign_factor(e_prime.value & ((1 << low) - 1), shape, sign)
    out = np.empty(dim, dtype=np.complex128)
    rows = out.reshape(-1, *shape)
    e_top, ep_top, negated = e.value >> low, e_prime.value >> low, 0
    for odd, r in sorted(((r & ep_top).bit_count() & 1, r) for r in range(len(rows))):
        if odd != negated:
            factor *= -1
            negated = odd
        np.multiply(factor, sources[r ^ e_top], out=rows[r])
        rows[r] += 0.0
    return DenseState._own(n, out)


# apply_pauli's row blocks hold at most 2^this many amplitudes (256 KiB).
_BLOCK_BITS = 14


def _sign_factor(bits: int, shape: list[int], sign: int) -> np.ndarray:
    """sign (-1)^(p.bits) at each index p of a C-ordered `shape` block, complex; 0-d if bits is 0."""
    if not bits:
        return np.array(sign, dtype=np.complex128)
    odd = np.bitwise_count(np.arange(math.prod(shape)) & bits) & 1
    return np.where(odd, -float(sign), float(sign)).astype(np.complex128).reshape(shape)


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, keeping the dtype.

    Constant geometry (Pease, J. ACM 15(2), 1968), lowest index bit first:
    each stage writes the sums of the even and odd entries into the first
    half of a ping-pong buffer and their differences into the second half,
    so every output entry adds its terms in radix-2 butterfly order.  The
    rows share one flat buffer: stage t leaves entry i of a row at (f, row,
    i >> t) of a C-ordered (2^t, rows, size / 2^t) buffer, f the t frequency
    bits done, so every operand is one run of one stride, which numpy reads
    and writes where it lies, and each stage is two ufunc calls.  After the
    last stage the transformed axis leads in memory, which for one row is
    its own order.
    The input is read by the first stage, not copied; beside it the
    transform holds two arrays of its size.  It serves a note's occupied
    cosets because walsh_butterflies was measured slower there: at n = 20,
    q = 1, Ver with it took 0.232 ms against 0.218 ms on one coset, and 0.93
    ms and 1.26 MB against 0.52 ms and 1.03 MB on a 21-coset Haar note.
    """
    size, batch = a.shape[-1], a.shape[:-1]
    if size & (size - 1):
        raise ValueError(f"fwht transforms a power-of-two length, not {size}")
    pair = np.empty(a.size, dtype=a.dtype), np.empty(a.size, dtype=a.dtype)
    src, flat = a, pair[0]
    for stage in range(size.bit_length() - 1):
        flat = pair[stage % 2]
        halves = flat.reshape(2, *batch, size // 2)
        np.add(src[..., 0::2], src[..., 1::2], out=halves[0])
        np.subtract(src[..., 0::2], src[..., 1::2], out=halves[1])
        src = flat.reshape(a.shape)
    out = flat.reshape(size, *batch).transpose(*range(1, a.ndim), 0)
    if size == 1:
        out[...] = a
    return out


def walsh_butterflies(a: np.ndarray) -> None:
    """The unnormalized Walsh-Hadamard transform in place along axis 0 of a C-contiguous array.

    It serves the register blocks of VerifierFrame._kept_coefficients, which
    gather their cosets straight into this transform-leading layout, and
    transforms them where they lie beside a half-size scratch: a ping-pong
    pair, as fwht takes, would add a second block to the attack kernel's
    working set, which sets the attack's peak, for no steady speed gain.
    Measured with fwht there, 1000 random-state trials at n = 6 peaked at
    159,352 B, above the 102,000 B the attack is held to; at half the block
    they peaked at 85,560 B, but the attack-n6 benchmark ran at about 46k
    against 55k operations a second.
    Radix-2 butterflies, lowest index bit first, so every output entry adds
    its terms in butterfly order, as fwht's do.  Rows are the array's slices
    along axis 0.
    A stage of span h pairs runs of h rows, each contiguous, and is three
    operations: top - bottom into a scratch buffer, top += bottom, bottom =
    scratch.  When a stage has more than two pairs of runs shorter than half
    of getbufsize() entries, numpy copies each strided operand into a buffer
    of its own, up to getbufsize() entries: 1.5 times the stage's rows in
    all.  So a stage of four pairs with runs of at least _SLAB_RUN entries,
    as in a block of attack registers, runs as two slabs of two pairs, which
    numpy iterates in place.  Shorter runs and stages of more pairs stay
    whole: there numpy's cost per call would outweigh the buffers.
    """
    if not a.flags.c_contiguous:
        raise ValueError("walsh_butterflies transforms a C-contiguous array in place")
    size = a.shape[0]
    width = a.size // size
    scratch = np.empty((size // 2) * width, dtype=a.dtype)
    h = 1
    while h < size:
        groups, run = size // (2 * h), h * width
        pairs = a.reshape(groups, 2, run)
        diff = scratch.reshape(groups, run)
        if groups == 4 and run >= _SLAB_RUN:
            _butterflies(pairs[:2], diff[:2])
            _butterflies(pairs[2:], diff[2:])
        else:
            _butterflies(pairs, diff)
        h *= 2


# A stage of four pairs runs as two slabs when its runs hold at least this
# many entries, numpy's default buffer size over 32; below that, the extra
# calls cost more than numpy's buffers.
_SLAB_RUN = np.getbufsize() // 32


def _butterflies(pairs: np.ndarray, diff: np.ndarray) -> None:
    """(top, bottom) to (top + bottom, top - bottom) for each pair of runs, by way of diff."""
    top, bottom = pairs[:, 0], pairs[:, 1]
    np.subtract(top, bottom, out=diff)
    top += bottom
    bottom[...] = diff


def apply_basis_permutation(st: DenseState, b: BasisMap) -> DenseState:
    """The basis-permutation unitary of an invertible GF(2) map: |x> to |Bx>."""
    if b.n != st.n:
        raise ValueError("map dimension differs from the state size")
    reserve((1 << st.n,))
    # Bit j of x is coordinate n-1-j, so Bx sums the columns picked by x's bits in reverse order.
    images = _span_table([b.column(st.n - 1 - j).value for j in range(st.n)], st.n)
    out = np.empty_like(st.amplitudes)
    out[images] = st.amplitudes
    return DenseState._own(st.n, out)


def max_deviation(a: DenseState, b: DenseState) -> float:
    """Largest entrywise amplitude difference; exact state equality measure."""
    if a.n != b.n:
        raise ValueError("states act on different qubit counts")
    return float(np.abs(a.amplitudes - b.amplitudes).max())


def dump_state(st: DenseState) -> str:
    """One line per nonzero amplitude: '<bitstring> <re> <im>', in index order.

    The scan is != 0 then np.flatnonzero, over twice as fast as np.flatnonzero
    on complex values, for a mask of one byte per amplitude.
    """
    support = np.flatnonzero(st.amplitudes != 0)
    return _dump_lines(st.n, support, st.amplitudes[support])


def _dump_lines(n: int, indices: np.ndarray, values: np.ndarray) -> str:
    """dump_state's text of the nonzero values at their indices, which ascend.

    A line is '<bits> <re> <im>', each part written '%.17g' after adding 0.0,
    so a -0 part is written 0 and equal states give equal files.  No line is
    formatted on its own: each distinct part is formatted once (a coset
    note's parts are +a, -a and 0), and the lines are joined from the bit
    strings and those texts, each step one C-level operation over the lines.
    """
    kept = values != 0
    parts = (values[kept].astype(np.complex128, copy=False).view(np.float64) + 0.0).tolist()
    texts = {part: "%.17g" % part for part in set(parts)}
    re_texts = {part: f" {text} " for part, text in texts.items()}
    im_texts = {part: f"{text}\n" for part, text in texts.items()}
    pieces = zip(
        map(format, indices[kept].tolist(), repeat(f"0{n}b")),
        map(re_texts.__getitem__, parts[0::2]),
        map(im_texts.__getitem__, parts[1::2]),
    )
    return "".join(chain.from_iterable(pieces)) or "\n"


def parse_dump(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, indices, values) of dump_state's text, in line order, refusing what no note dumps.

    A line's fields are split as str.split() splits them: a bit string, whose
    length on the first line is n, and the real and imaginary parts.  Each line
    is checked in order, field count, bit string, then numeric parts, and the
    first bad line is named; repeated bit strings, the budget for the note's
    2^n amplitudes and the norm come after the last line, so a dump parses only
    if scatter_dump would build a note from it.  The norm is taken over the
    parsed values.  Indices are int64, values complex128; zero values are kept.

    No line is parsed on its own (see _columns): each step maps one C-level
    operation over the lines, the bit strings become indices in one such
    pass, and float() runs once per distinct numeric field.  A dump that fails
    a check is walked line by line for the first bad line (see _bad_line).
    Beside its lines, parsing holds one column of them at a time.
    """
    columns = _columns(text.splitlines())
    if columns is None:
        # Fields split by other whitespace or by runs of it: one space between
        # fields, blank lines dropped.
        lines = list(filter(None, (" ".join(line.split()) for line in text.splitlines())))
        if not lines:
            raise ValueError("empty state dump")
        columns = _columns(lines)
    if columns is None:
        raise _bad_line(text)
    n, indices, group, pairs = columns
    try:
        numbers = {token: float(token) for token in set(chain.from_iterable(pairs))}
    except ValueError:
        raise _bad_line(text) from None
    if len(set(indices)) != len(indices):
        raise ValueError("repeated bit string in state dump")
    reserve((1 << n,))
    values = np.array([(numbers[re], numbers[im]) for re, im in pairs]).view(np.complex128)
    values = values[group, 0]
    _check_unit_norm(values)
    return n, np.array(indices, dtype=np.int64), values


def _columns(lines: list[str]):
    """(n, indices, group, pairs) of lines that are each '<bits> <re> <im>' split by single spaces.

    indices are the bit strings' values as ints, pairs each distinct
    '<re> <im>' as its two fields, in order of first use, and group[i] line
    i's pair.  None when some line is not so, or the bit strings are not all
    n binary digits, or a pair that str.split() splits otherwise, as it does
    at 0x1f, which float() does not strip.  Each step maps one C-level
    operation over the lines.  A field that is not a number, empty ones
    included, fails float() and sends the dump to _bad_line.
    """
    n = lines[0].find(" ") if lines else 0
    if n < 1:
        return None
    bits = "".join(map(itemgetter(slice(n + 1)), lines))
    m = len(lines)
    if len(bits) != m * (n + 1) or bits[n :: n + 1] != " " * m or bits.count(" ") != m:
        return None
    if bits.strip("01 "):  # only binary digits beside those m spaces
        return None
    # Each distinct pair gets the next id the first time a line holds it.
    ids = defaultdict(count().__next__)
    group = np.fromiter(map(ids.__getitem__, map(itemgetter(slice(n + 1, None)), lines)), np.intp, m)
    pairs = [pair.split(" ") for pair in ids]
    if any(len(fields) != 2 or fields != pair.split() for fields, pair in zip(pairs, ids)):
        return None
    return n, list(map(int, map(itemgetter(slice(n)), lines), repeat(2))), group, pairs


def _bad_line(text: str) -> ValueError:
    """The error naming the first line of text that has no three fields, n binary digits or numbers."""
    n = None
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            return ValueError(
                f"line {number} of the state dump has {len(fields)} field(s); "
                "expected '<bits> <re> <im>'"
            )
        bits, re_s, im_s = fields
        if n is None:
            n = len(bits)
        if len(bits) != n or bits.strip("01"):
            return ValueError(f"bit string {bits!r} is not {n} binary digits")
        try:
            float(re_s), float(im_s)
        except ValueError:
            return ValueError(
                f"line {number} of the state dump has an amplitude that is not a number: "
                f"{re_s!r} {im_s!r}"
            )
    raise AssertionError("every line of the dump is well formed")


def scatter_dump(n: int, indices: np.ndarray, values: np.ndarray) -> DenseState:
    """The note with parse_dump's values at their indices and zeros elsewhere."""
    reserve((1 << n,))
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[indices] = values
    return DenseState._own(n, amps)


def pauli_lines(
    n: int, indices: np.ndarray, values: np.ndarray, e: BitVec, e_prime: BitVec, sign: int = 1
) -> tuple[int, np.ndarray, np.ndarray]:
    """apply_pauli on parse_dump's lines, as lines in ascending order, with no 2^n vector.

    Only the listed amplitudes move: the one at s goes to s + e, times
    sign (-1)^(s.e').  apply_pauli's extra (-1)^(e.e') cancels here, as its
    phase is taken at the destination, (s + e).e' = s.e' + e.e'.  The
    factor is chosen in float and cast to complex, as apply_pauli's is, so
    every nonzero part keeps its bits and only a zero part's sign can
    differ, which _dump_lines does not write: the bytes are dump_state's.
    """
    if e.n != n or e_prime.n != n:
        raise ValueError("error vector length differs from the state size")
    if sign not in (1, -1):
        raise ValueError(f"a Pauli's sign is +1 or -1, not {sign!r}")
    order = np.argsort(indices ^ e.value)
    odd = np.bitwise_count(indices[order] & e_prime.value) & 1
    factor = np.where(odd, -float(sign), float(sign)).astype(np.complex128)
    factor *= values[order]
    return n, indices[order] ^ e.value, factor
