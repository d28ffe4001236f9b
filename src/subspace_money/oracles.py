"""Classical membership oracles, the verifier's coset frame, and query accounting.

Verification never touches a code directly: it asks membership oracles,
and each asks one question, whether the syndrome Hx of a string x under one
side's parity check H lies in an accepted set.  x is within q bit flips of
the code (or its dual) exactly when Hx is the syndrome of an error of
weight <= q, so each side's accepted set is the set of syndromes of the
tolerated errors, taken from ``codes._error_syndromes``.

A VerifierFrame holds both sets, each a sorted read-only array, and is the
only array view of them.  It lists the accepted primal cosets string by
string, the coset with syndrome v as leader(v) ^ c(u) over the codewords
c(u), and holds the accepted dual syndromes as Walsh frequencies of u.  In
these coordinates the verifier's projector is one Walsh filter on each
accepted coset, which the frame's kernels compute.  The same frame locates
every coset test of the corrector: a bit-flip coset C + e is one of its
rows, a phase-flip coset one Walsh frequency of its rows, and the frame
lists that position for each tolerated error on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec, _error_syndromes
from .errors import reserve
from .gf2 import Gf2Matrix, _span_table
from .states import fwht, walsh_butterflies

SIDES = ("primal", "dual")


def _side_index(side: str) -> int:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return SIDES.index(side)


def _parity_for(spec: CodeSpec, side: str) -> Gf2Matrix:
    return (spec.parity_primal, spec.parity_dual)[_side_index(side)]


def _reverse_bits(values, k: int) -> np.ndarray:
    """k-bit dual syndromes as Walsh frequencies of u: syndrome row j is bit j of u.

    Row j is bit k-1-j of a syndrome value, so this reverses each value's k bits.
    """
    bits = np.arange(k)
    return ((np.asarray(values, dtype=np.int64)[:, None] >> bits) & 1) @ (1 << bits[::-1])


class VerifierFrame(NamedTuple):
    """Coordinates in which the verifier's projector P is block-diagonal.

    Row r of index lists the accepted primal coset with syndrome rows[r] as
    index[r, u] = leader ^ c(u), where c(u) sums the dual side's parity rows
    (a basis of the code) picked by the bits of u.  P keeps these |S_p|
    cosets and acts inside each as the same 2^k-point Walsh filter on u.  It
    passes frequency s when s, read as a syndrome under those rows, is
    accepted on the dual side.  Row j of a syndrome is bit j of s, so keep
    holds the dual's accepted syndrome values with their k bits reversed.
    Row i of error_cosets holds, for side SIDES[i], where the coset side-code
    + e of each tolerated error e sits, in ``enumerate_errors`` order: a
    bit-flip coset C + e is the row of its syndrome, a phase-flip coset the
    Walsh frequency of u that reads as its syndrome.
    """

    n: int
    index: np.ndarray  # (|S_p|, 2^k) basis-string indices
    keep: np.ndarray  # accepted dual syndromes as Walsh frequencies of u, ascending
    rows: np.ndarray  # the accepted primal syndrome of each row, ascending
    error_cosets: np.ndarray  # (2, |E_q|) frame position of each tolerated error's coset

    @classmethod
    def of(cls, spec: CodeSpec) -> "VerifierFrame":
        """The frame of a code: each side accepts the syndromes of the errors of weight <= q.

        leader(v) puts syndrome row j on the pivot column of the RREF parity
        row j, so H leader(v) = v, which is checked, as is the count of basis rows.
        The (|S_p|, 2^k) index is charged to the allocation budget before the
        code's span is walked.
        """
        parity, basis = spec.parity_primal, spec.parity_dual
        syndromes = _error_syndromes(parity, spec.q)
        rows = np.unique(syndromes).astype(np.int64)
        frequencies = _reverse_bits(_error_syndromes(basis, spec.q), basis.rows)
        keep = np.unique(frequencies)
        # Bit i of a syndrome value is row parity.rows-1-i, so the pivots run bottom-up.
        bottom_up = np.array(parity.row_values[::-1], dtype=np.int64)
        pivots = np.array([1 << (r.bit_length() - 1) for r in bottom_up.tolist()], dtype=np.int64)
        bits = np.arange(parity.rows)
        leaders = ((rows[:, None] >> bits) & 1) @ pivots
        images = (np.bitwise_count(leaders[:, None] & bottom_up) & 1) @ (1 << bits)
        if basis.rows + parity.rows != spec.n or np.any(images != rows):
            raise ValueError("the parity rows are not RREF bases of the dual and the code")
        reserve((rows.size, 1 << basis.rows), np.int64)
        index = leaders[:, None] ^ _span_table(basis.row_values, spec.n).astype(np.int64)
        error_cosets = np.stack([np.searchsorted(rows, syndromes), frequencies])
        for array in (index, keep, rows, error_cosets):
            array.setflags(write=False)
        return cls(spec.n, index, keep, rows, error_cosets)

    def accepts(self, side: str, syndrome: int) -> bool:
        """Whether side accepts a syndrome: a row's syndrome, or a kept frequency once reversed."""
        if side == "primal":
            return bool(np.isin(syndrome, self.rows))
        k = self.index.shape[1].bit_length() - 1
        return bool(np.isin(_reverse_bits([syndrome], k), self.keep)[0])

    def spectrum(
        self, cosets: np.ndarray, scale: float | None = None, kept: bool = False
    ) -> np.ndarray:
        """In place: gathered cosets become fwht(cosets / scale), zero outside keep if kept.

        cosets is a C-ordered (|S_p|, 2^k) complex block in the frame's layout.
        A row holding no amplitude transforms to exact zeros, so only the rows
        with a nonzero entry are divided and transformed, as one copy that fwht
        takes; the other rows become +0.0.  Returns cosets, the one gathered
        block a pure-note kernel holds: beside it, the working set is the
        occupied rows, their transform and its half-size scratch, a small
        share of a block for a note that occupies one coset.
        """
        # The float64 view tests both parts, with no complex-to-bool temporary.
        occupied = np.flatnonzero(cosets.view(np.float64).any(axis=1))
        if not occupied.size:
            cosets.fill(0)
            return cosets
        every = occupied.size == cosets.shape[0]
        # fwht copies its input, so a block of every row is divided where it lies.
        block = cosets if every else cosets[occupied]
        if scale is not None:
            block /= scale
        transformed = fwht(block)
        if kept:
            cosets.fill(0)
            cosets[occupied[:, None], self.keep] = transformed[:, self.keep]
        elif every:
            cosets[...] = transformed
        else:
            cosets.fill(0)
            cosets[occupied] = transformed
        return cosets

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """A fresh array with values (..., |S_p|, 2^k) at their strings on a last axis of 2^n."""
        out = np.zeros((*values.shape[:-2], 1 << self.n), dtype=values.dtype)
        out[..., self.index] = values
        return out

    def project(self, amps: np.ndarray) -> np.ndarray:
        """P along the last axis: the Walsh filter on each accepted coset, zero elsewhere."""
        spectrum = fwht(amps[..., self.index])
        kept = np.zeros_like(spectrum)
        kept[..., self.keep] = spectrum[..., self.keep]
        return self.scatter(fwht(kept) / self.index.shape[1])

    def kept_coefficients(self, amps: np.ndarray) -> np.ndarray:
        """The kept Walsh coefficients of amps' accepted cosets, shape (..., |S_p| |keep|).

        Their squared norm over 2^k is <amps|P|amps> along the last axis.  The
        cosets are gathered straight into the transform-leading layout
        (2^k, |S_p|, ...), one C-contiguous array that walsh_butterflies
        transforms in place; its keep rows then take one transposed copy, so
        each vector's coefficients are contiguous, coset by coset, and a
        vecdot over them adds in the same order as over fwht's output.  Beside
        amps, the working set is the gather and the transform's half-size
        scratch, then the gather and its keep rows, then those rows and their
        copy.
        """
        lead = amps.ndim - 1
        # With one entry per string the gather takes index.T's layout, not C order.
        cosets = np.ascontiguousarray(amps.transpose(lead, *range(lead))[self.index.T])
        walsh_butterflies(cosets)
        cosets = cosets[self.keep]
        return cosets.transpose(*range(2, lead + 2), 1, 0).reshape(*amps.shape[:-1], -1)

    def frequency_weights(self, mat: np.ndarray, kept: bool = False) -> np.ndarray:
        """<s|H mat H|s> over the last two axes, for every Walsh frequency s of u.

        Summed over the accepted cosets: on each, the projector onto frequency
        s has entries (1/2^k) (-1)^(s.(u^t)), so the weights are fwht(sums) /
        2^k, where sums[w] adds mat[index[v, t], index[v, t ^ w]] over every
        accepted coset v and every t.  With kept, their sum over the kept
        frequencies: tr(P mat).
        """
        index = self.index
        u = np.arange(index.shape[1])
        sums = mat[..., index[:, :, None], index[:, u[:, None] ^ u]].sum(axis=(-3, -2))
        weights = fwht(sums) / index.shape[1]
        return weights[..., self.keep].sum(axis=-1) if kept else weights


ORACLE_NAMES = ("primal", "dual", "combined", "coset")


@dataclass(frozen=True)
class QueryLedger:
    """Immutable query counters with the combined-oracle conversion applied.

    One subset query (primal or dual) costs conversion_factor = |E_X|
    combined-oracle queries; direct combined queries and per-coset queries
    cost one each.
    """

    conversion_factor: int
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)

    @classmethod
    def fresh(cls, conversion_factor: int) -> "QueryLedger":
        if conversion_factor < 1:
            raise ValueError("conversion factor must be >= 1")
        return cls(conversion_factor)

    @property
    def counters(self) -> dict[str, int]:
        return dict(zip(ORACLE_NAMES, self.counts))

    @staticmethod
    def _index(name: str) -> int:
        try:
            return ORACLE_NAMES.index(name)
        except ValueError:
            raise ValueError(f"unknown oracle name {name!r}; known: {ORACLE_NAMES}") from None

    def charge(self, name: str, count: int = 1) -> "QueryLedger":
        if count < 0:
            raise ValueError("count must be >= 0")
        i = self._index(name)
        counts = list(self.counts)
        counts[i] += count
        return QueryLedger(self.conversion_factor, tuple(counts))

    @property
    def combined_equivalent(self) -> int:
        primal, dual, combined, coset = self.counts
        return self.conversion_factor * (primal + dual) + combined + coset

