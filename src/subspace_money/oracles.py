"""Classical membership oracles and the verifier's coset frame.

Verification never touches a code directly: it asks membership oracles,
and each asks one question, whether the syndrome Hx of a string x under one
side's parity check H lies in an accepted set.  x is within q bit flips of
the code (or its dual) exactly when Hx is the syndrome of an error of
weight <= q, so each side's accepted set is the set of syndromes of the
tolerated errors, taken from ``codes._error_syndromes``.

A VerifierFrame holds both sets, each a sorted read-only array, and is the
only array view of them.  It keeps the leader of each accepted primal coset,
the coset with syndrome v being leader(v) ^ c(u) over the codewords c(u),
finds a string's coset by its syndrome (only a dense note's gather lists the
cosets string by string), and holds the accepted dual syndromes as Walsh
frequencies of u.  In these coordinates the verifier's projector P is one
Walsh filter on each accepted coset, and the frame is P: it answers membership
queries, Ver's probability and post-state, Ver2's product probability and the
corrector's coset weights.  It also locates each coset test of the corrector:
a bit-flip coset C + e is one of its rows, a phase-flip coset one Walsh
frequency of its rows, and the frame lists that position for each tolerated
error on each side.  No other module reads its arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable

import numpy as np

from .codes import CodeSpec, _error_positions, _error_syndromes
from .errors import reserve
from .gf2 import BitVec, _bit_block, _span_table
from .states import DenseState, _coset_amplitudes, fwht, walsh_butterflies

SIDES = ("primal", "dual")

# Amplitudes a pure-note kernel gathers at a time, in whole frame rows (at least one).
_GATHER_CHUNK = 1 << 12


def _side_index(side: str) -> int:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return SIDES.index(side)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-d array, by a sort and a neighbour compare: np.unique imports numpy.ma."""
    values = np.sort(values)
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _pivots(row_values) -> list[int]:
    """The leading bit of each RREF row, its pivot column, as an int."""
    return [1 << (r.bit_length() - 1) for r in row_values]


def _syndromes(rows, strings: np.ndarray) -> np.ndarray:
    """H x of each string x under the parity rows of H, in ``codes._error_syndromes``' bit order.

    Row j of H is bit len(rows)-1-j; the syndromes are built one row at a time.
    """
    out = np.zeros(strings.shape, dtype=np.int64)
    for row in rows:
        out <<= 1
        out |= np.bitwise_count(strings & row) & 1
    return out


def _row_energy(rows: np.ndarray) -> float:
    """sum |x|^2 of a C-ordered stack of frame rows, by the rule VerifierFrame states."""
    return reduce(operator.add, np.vecdot(rows, rows).real.tolist(), 0.0)


@dataclass(frozen=True, eq=False)
class VerifierFrame:
    """Ver's projector P: the coordinates in which it is block-diagonal, and its kernels.

    Row r lists the accepted primal coset with syndrome rows[r] as the strings
    leaders[r] ^ c(u), where c(u) sums the dual side's parity rows (a basis
    of the code) picked by the bits of u; index lists them all, and only a
    dense note's gather builds it.  P keeps these |S_p| cosets and acts inside
    each as the same 2^k-point Walsh filter on u.  It passes frequency s when
    s, read as a syndrome under those rows, is accepted on the dual side.  Row
    j of a syndrome is bit j of s, so keep holds the dual's accepted syndromes
    under the code rows in reverse order.
    Row i of error_cosets holds, for side SIDES[i], where the coset side-code
    + e of each tolerated error e sits, in ``enumerate_errors`` order: a
    bit-flip coset C + e is the row of its syndrome, a phase-flip coset the
    Walsh frequency of u that reads as its syndrome.
    A sum over rows reduces each row alone (2^11 entries at most up to n = 22,
    below OpenBLAS's thread split) and adds the results one after another in
    ascending row order, so neither threads nor rows of zeros move a bit.
    """

    spec: CodeSpec
    leaders: np.ndarray  # leader(rows[r]) of each row, its string at u = 0
    keep: np.ndarray  # accepted dual syndromes as Walsh frequencies of u, ascending
    rows: np.ndarray  # the accepted primal syndrome of each row, ascending
    error_cosets: np.ndarray  # (2, |E_q|) frame position of each tolerated error's coset

    @classmethod
    def of(cls, spec: CodeSpec) -> "VerifierFrame":
        """The frame of a code: each side accepts the syndromes of the errors of weight <= q.

        leader(v) puts syndrome row j on the pivot column of the RREF parity
        row j, so H leader(v) = v, which is checked, as are the count of basis
        rows and that each code row alone holds its pivot (see _place).  It
        holds a few integers per coset; only a dense note's gather builds index.
        """
        parity, basis = spec.parity_primal, spec.parity_dual
        syndromes = _error_syndromes(_bit_block(parity.row_values, spec.n), spec.q)
        rows = _sorted_distinct(syndromes.astype(np.int64))
        # Under the code rows in reverse order, bit j of a syndrome is row j: a frequency of u.
        frequencies = _error_syndromes(_bit_block(basis.row_values[::-1], spec.n), spec.q)
        keep = _sorted_distinct(frequencies.astype(np.int64))
        # In the gather's bit order, bit i of a syndrome is parity row rows-1-i: pivots bottom-up.
        leaders = np.zeros_like(rows)
        for i, pivot in enumerate(_pivots(parity.row_values[::-1])):
            leaders |= (rows >> i & 1) * pivot
        # Each code pivot lies in its own row alone, so a codeword's pivot bits are its u.
        code_pivots = _pivots(basis.row_values)
        mask = sum(code_pivots)
        reduced = all(r & mask == p for r, p in zip(basis.row_values, code_pivots))
        images = _syndromes(parity.row_values, leaders)
        if basis.rows + parity.rows != spec.n or np.any(images != rows) or not reduced:
            raise ValueError("the parity rows are not RREF bases of the dual and the code")
        error_cosets = np.array([np.searchsorted(rows, syndromes), frequencies])
        for array in (leaders, keep, rows, error_cosets):
            array.setflags(write=False)
        return cls(spec, leaders, keep, rows, error_cosets)

    @cached_property
    def index(self) -> np.ndarray:
        """(|S_p|, 2^k) basis-string indices: index[r, u] = leaders[r] ^ c(u), read-only.

        Built when _occupied, its one reader, first gathers a DenseState,
        charged to the allocation budget before anything is walked or written,
        and kept; one the budget refuses is not.  Each row is written in place,
        so no broadcast buffer is made.
        """
        reserve((self.rows.size, self.size), np.int64)
        index = np.empty((self.rows.size, self.size), dtype=np.int64)
        for row, leader in zip(index, self.leaders.tolist()):
            np.bitwise_xor(self._codewords, leader, out=row)
        index.setflags(write=False)
        return index

    @property
    def size(self) -> int:
        """2^k, the strings of each accepted coset: the codewords."""
        return 1 << self.spec.parity_dual.rows

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def _codewords(self) -> np.ndarray:
        """c(u) for every u, in order of u, as int64 strings: 2^k of them, read-only and kept."""
        codewords = _span_table(self.spec.parity_dual.row_values, self.n).astype(np.int64)
        codewords.setflags(write=False)
        return codewords

    # -- membership and coset tests ---------------------------------------------

    def member(self, side: str, x: BitVec) -> bool:
        """Whether H x is accepted on side: a row's syndrome or, rows reversed, a kept frequency."""
        i = _side_index(side)
        if x.n != self.n:
            raise ValueError(f"length mismatch: {x.n} vs {self.n}")
        rows = (self.spec.parity_primal.row_values, self.spec.parity_dual.row_values[::-1])
        return bool(np.isin(_syndromes(rows[i], np.array([x.value])), (self.rows, self.keep)[i])[0])

    def locate(self, side: str, weights: np.ndarray) -> tuple[int, BitVec | None]:
        """Find the first tolerated e whose side-code + e holds all but 1e-9 of weights.

        weights are in the frame's coordinates (see weights), and error_cosets
        says where each error's coset sits, so the tests are one gather.
        Returns how many errors, in lexicographic order, were tested up to and
        including the match, and the match; every error and None when no
        coset matches.
        """
        cosets = self.error_cosets[_side_index(side)]
        hits = np.flatnonzero(weights[cosets] > 1.0 - 1e-9)
        if not hits.size:
            return cosets.size, None
        support = _error_positions(self.n, self.spec.q)[:, hits[0]]
        return int(hits[0]) + 1, BitVec.from_support(self.n, support[support < self.n].tolist())

    # -- Ver on one register ---------------------------------------------------------

    def apply(self, note) -> tuple[float, Callable[[], DenseState] | None]:
        """P on one register, a DenseState or a note file's lines: probability, post-state builder.

        Only the probability kernel runs here, on the cosets the note occupies
        (see _occupied and _kept_spectrum); the builder makes the 2^n
        post-state, and is None at probability zero.
        """
        rows, cosets = self._occupied(note)
        prob, kept = self._kept_spectrum(cosets)
        return prob, None if kept is None else partial(self._post_state, rows, kept)

    def coset_probability(self, e: BitVec, e_prime: BitVec) -> float:
        """Ver's acceptance probability of the tolerated coset state X^e Z^e' |C>.

        Its strings e + v over the codewords v are the frame row of C + e, its
        leader ^ the code's span, so that row's amplitudes are built in closed
        form and the kernel runs on that one row: no 2^n vector, index or
        (|S_p|, 2^k) block is made or gathered.
        """
        fits = e.n == e_prime.n == self.n
        row, accepted = self._rows_of(np.array([e.value if fits else 0]))
        if not (fits and accepted[0]):
            raise ValueError(f"X^{e} Z^{e_prime} is not a tolerated error on n={self.n} qubits")
        shift = int(self.leaders[row[0]]) ^ e.value  # a codeword: e and the leader share H x
        amplitudes = _coset_amplitudes(self._codewords ^ shift, e_prime)
        return self._kept_spectrum(amplitudes.astype(np.complex128)[None])[0]

    def mixed_probability(self) -> float:
        """tr(P) / 2^n, Ver's probability of the maximally mixed register.

        P is |S_p| copies of a 2^k-point Walsh filter of rank |keep|, so
        tr(P) = |S_p| |keep| and the dyadic value is exact.
        """
        return self.rows.size * self.keep.size / (1 << self.n)

    def basis_probabilities(self, strings: np.ndarray) -> np.ndarray:
        """<v|P|v> for each basis string v: |keep| / 2^k in an accepted coset, else zero.

        A one-hot coset transforms to 2^k coefficients of +-1, so the dyadic
        values are those of the block kernel on one-hot registers.  A string's
        coset is found by its syndrome (see _rows_of), a few integers a string.
        """
        if strings.size and not 0 <= strings.min() <= strings.max() < 1 << self.n:
            raise ValueError(f"basis strings must lie in [0, {1 << self.n})")
        return np.where(self._rows_of(strings)[1], self.keep.size / self.size, 0.0)

    def block_probabilities(self, block: np.ndarray) -> np.ndarray:
        """tr(P sigma) for every pure register of a block, shape (...).

        block is a float array of shape (..., parts, 2^n) whose parts are each
        register's real and imaginary amplitudes (one part for a real
        register), not necessarily normalised.  P is real, so <a + ib|P|a + ib>
        is the sum of the parts' <a|P|a>, the kept Walsh energy of their
        accepted cosets over 2^k, divided here by the register's squared norm;
        a block transforms every accepted coset.
        """
        if block.shape[-1] != 1 << self.n:
            raise ValueError(f"registers of the block must have {1 << self.n} amplitudes")
        coeffs = self._kept_coefficients(block)
        weight = np.vecdot(coeffs, coeffs).real
        norm = np.vecdot(block, block).sum(axis=-1)
        if not np.all(np.isfinite(norm) & (norm > 0.0)):
            raise ValueError("a register of the block is not a finite nonzero vector")
        return weight.sum(axis=-1) / norm / self.size

    def pair_probability(self, joint: DenseState | tuple) -> float:
        """Ver2's kernel: tr((P (x) P) rho) for two registers under one serial number.

        joint is a pair (sigma1, sigma2) meaning sigma1 (x) sigma2, each an
        n-qubit DenseState, scored as apply scores it, or None for the
        maximally mixed register; or a 2n-qubit DenseState, computed one
        register axis at a time.
        """
        if isinstance(joint, tuple):
            p1, p2 = (self.mixed_probability() if s is None else self.apply(s)[0] for s in joint)
            return p1 * p2
        if not isinstance(joint, DenseState):
            raise TypeError(f"unsupported joint state type {type(joint).__name__}")
        if joint.n != 2 * self.n:
            raise ValueError(f"joint state must act on 2n={2 * self.n} qubits")
        dim = 1 << self.n
        # Register two's kept coefficients, then register one's.
        coeffs = self._kept_coefficients(joint.amplitudes.reshape(dim, dim))
        coeffs = self._kept_coefficients(coeffs.T)
        return _row_energy(coeffs) / self.size**2

    def weights(self, note) -> tuple[np.ndarray, np.ndarray]:
        """The note's probability on each accepted bit-flip coset (row) and phase-flip frequency.

        note is a DenseState or a note file's parsed lines (see _occupied).  A
        frequency s of u counts the Hadamard-basis weight within the accepted
        cosets only: |fwht(each row's entries)|^2 summed over rows / 2^k.  It costs
        the occupied cosets, one 2^k transform for each and a few 2^k arrays.
        """
        rows, cosets = self._occupied(note)
        bit_flip, phase_flip = np.zeros(self.rows.size), np.zeros(self.size)
        for row, coset, spectrum in zip(rows, cosets, fwht(cosets)):
            bit_flip[row] = np.square(np.abs(coset)).sum()
            phase_flip += np.square(np.abs(spectrum))
        return bit_flip, phase_flip / self.size

    # -- kernels -----------------------------------------------------------------------

    def _rows_of(self, strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each string's row, where H x sorts into rows (clamped), and whether H x is that row's."""
        syndromes = _syndromes(self.spec.parity_primal.row_values, strings)
        row = np.minimum(np.searchsorted(self.rows, syndromes), self.rows.size - 1)
        return row, self.rows[row] == syndromes

    def _occupied(self, note) -> tuple[np.ndarray, np.ndarray]:
        """The accepted cosets holding any amplitude: their rows, ascending, and their entries.

        A row counts as occupied when a part of an entry is nonzero (-0.0 is
        not); the entries are a C-ordered (rows, 2^k) complex stack in the
        frame's layout.  A DenseState's rows are gathered up to _GATHER_CHUNK
        amplitudes at a time, so the working set is the occupied cosets plus
        one chunk, and one of another n is refused; a note file's lines,
        parse_dump's (n, indices, values), are put in place (see _place).  A
        tolerated X^e Z^e' note occupies one coset.
        """
        if not isinstance(note, DenseState):
            return self._place(*note[1:])
        if note.n != self.n:
            raise ValueError(f"register must act on n={self.n} qubits")
        amplitudes, index = note.amplitudes, self.index
        step = max(1, _GATHER_CHUNK // self.size)
        rows, cosets = [], []
        for start in range(0, index.shape[0], step):
            chunk = amplitudes[index[start : start + step]]
            # The float64 view tests both parts, with no complex-to-bool temporary.
            hits = np.flatnonzero(chunk.view(np.float64).any(axis=1))
            if hits.size:
                rows.append(hits + start)
                cosets.append(chunk[hits])
            del chunk  # so the next chunk is not gathered beside this one
        if not rows:
            return np.empty(0, dtype=np.intp), np.empty((0, self.size), np.complex128)
        return np.concatenate(rows), np.concatenate(cosets)

    def _place(self, indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_occupied's rows and stack, bit for bit, from a note's distinct lines, in any order.

        Line x lies in row r when H x is rows[r] (see _rows_of); a line outside
        the accepted cosets is dropped, as the gather never reads it.  Its
        column is u, the bits of x ^ leaders[r] on the code's pivot columns, so
        the working set is the occupied cosets and a few integers per line.
        """
        at, inside = self._rows_of(indices)
        hit = np.zeros(self.rows.size, dtype=bool)
        hit[at[inside & (values != 0)]] = True  # -0.0 is zero, as in the gather
        placed = inside & hit[at]
        at = at[placed]
        codewords = indices[placed] ^ self.leaders[at]
        # Bit j of u is the pivot of code row j: a syndrome under one-bit rows, bottom-up.
        u = _syndromes(_pivots(self.spec.parity_dual.row_values)[::-1], codewords)
        cosets = np.zeros((np.count_nonzero(hit), self.size), dtype=np.complex128)
        cosets[(np.cumsum(hit) - 1)[at], u] = values[placed]
        return np.flatnonzero(hit), cosets

    def _kept_spectrum(self, cosets: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Ver's probability kernel on gathered accepted cosets, which become the kept spectrum.

        cosets is a C-ordered (rows, 2^k) complex stack of frame rows.  They are
        normalised where they lie before the transform, so the second stage's
        probability is a unit vector's kept energy / 2^k; the product is
        clipped at one.  A coset holding no amplitude changes no bit of either
        stage, so callers pass the occupied cosets (see _occupied): a note
        costs the gather of the cosets it occupies plus one 2^k transform for
        each, one for a tolerated coset state.  The kept spectrum is written
        back into the gathered cosets, so the kernel holds them and fwht's two
        arrays of their size; it is None when the probability is zero.
        """
        prob1 = _row_energy(cosets)
        if prob1 == 0.0:
            return 0.0, None
        cosets /= math.sqrt(prob1)
        spectrum = fwht(cosets)
        cosets.fill(0)
        cosets[:, self.keep] = spectrum[:, self.keep]
        prob2 = _row_energy(cosets) / self.size
        if prob2 == 0.0:
            return 0.0, None
        return min(prob1 * prob2, 1.0), cosets

    def _post_state(self, rows: np.ndarray, kept: np.ndarray) -> DenseState:
        """The normalised accepted branch of the kept spectrum of rows, in a fresh 2^n vector.

        fwht only reads the spectrum, so the builder can run again.  The branch
        is put in C order, as its rows' strings leaders ^ c(u) are, before it is
        scattered to them: from fwht's transposed layout the scatter would take
        a numpy buffer beside the 2^n result.  The other accepted cosets, which
        held no amplitude, keep the result's zeros.
        """
        reserve((1 << self.n,))
        norm = self.size * math.sqrt(_row_energy(kept) / self.size)
        branch = np.ascontiguousarray(fwht(kept))
        branch /= norm
        out = np.zeros(1 << self.n, dtype=branch.dtype)
        out[self.leaders[rows, None] ^ self._codewords] = branch
        return DenseState._own(self.n, out)

    def _kept_coefficients(self, amps: np.ndarray) -> np.ndarray:
        """The kept Walsh coefficients of amps' accepted cosets, shape (..., |S_p| |keep|).

        Their squared norm over 2^k is <amps|P|amps> along the last axis.  The
        cosets are gathered through the C-ordered strings c(u) ^ leaders[r]
        straight into the transform-leading layout (2^k, |S_p|, ...), one
        C-contiguous array that walsh_butterflies transforms in place; its keep
        rows then take one transposed copy, so each vector's coefficients are
        contiguous, coset by coset.  Beside amps and the strings, the working
        set is the gather and the transform's half-size scratch, then the
        gather and its keep rows, then those rows and their copy.
        """
        lead = amps.ndim - 1
        cosets = amps.transpose(lead, *range(lead))[self._codewords[:, None] ^ self.leaders]
        walsh_butterflies(cosets)
        cosets = cosets[self.keep]
        return cosets.transpose(*range(2, lead + 2), 1, 0).reshape(*amps.shape[:-1], -1)

