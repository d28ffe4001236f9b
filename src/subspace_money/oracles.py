"""Classical membership oracles, their action on states, and query accounting.

Verification never touches a code directly: it asks membership predicates,
and every predicate asks one question, whether the syndrome Hx of a string
x under one side's parity check H lies in an accepted set.  x is within q
bit flips of the code (or its dual) exactly when Hx is the syndrome of an
error of weight <= q, and x lies in the single coset code + e exactly when
Hx = He.  So a predicate is a side plus an accepted-syndrome set, and its
mask over all 2^n strings is a lookup into one vectorized syndrome array
per (code, side), which coset predicates derived from it share.

The subset and syndrome predicates derive their accepted sets in separate
code: the subset route takes the keys of a decoding SyndromeTable, the
syndrome route enumerates the weight-<=q vectors itself.  They share only
the syndrome array, so comparing their masks cross-validates the two
derivations.

The verifier reads the two predicates through one VerifierFrame, the
accepted primal cosets listed string by string in code coordinates; the
dual test acts inside each of them as one Walsh filter.  Measuring
membership in one coset code + e gives outcome "inside" with the
total probability of the strings whose syndrome is He, so one weighted
histogram of the syndrome array gives the outcome probability of every
coset test at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec, build_syndrome_table, enumerate_errors
from .gf2 import BitVec, Gf2Matrix, _span_table

SIDES = ("primal", "dual")
ROUTES = ("subset", "syndrome", "coset")


def _parity_for(spec: CodeSpec, side: str) -> Gf2Matrix:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return spec.parity_primal if side == "primal" else spec.parity_dual


def syndrome_array(parity: Gf2Matrix) -> np.ndarray:
    """H x for every x in F_2^n at once, indexed by the packed value of x.

    H x is the sum of the columns of H picked by the bits of x, and bit p of
    x is coordinate n-1-p, so this is the span table of H's columns in
    reverse order, in the smallest unsigned dtype that holds a syndrome.
    """
    syn = _span_table(parity.transpose().row_values[::-1], parity.rows)
    syn.setflags(write=False)
    return syn


class MembershipPredicate:
    """Membership in {x : H x in accepted} for one side's parity check H.

    kind is "<route>-<side>": the side picks the code (primal) or its dual,
    the route names how the accepted set was derived (subset: syndrome-table
    keys; syndrome: weight-limited enumeration; coset: the single syndrome
    of one error).
    """

    __slots__ = ("kind", "spec", "accepted", "_syndromes", "_mask")

    def __init__(self, kind: str, spec: CodeSpec, accepted: frozenset[BitVec]):
        route, _, side = kind.partition("-")
        if route not in ROUTES or side not in SIDES:
            raise ValueError(f"unknown predicate kind {kind!r}")
        self.kind = kind
        self.spec = spec
        self.accepted = accepted
        self._syndromes = None
        self._mask = None

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def side(self) -> str:
        return self.kind.split("-")[1]

    @property
    def parity(self) -> Gf2Matrix:
        return _parity_for(self.spec, self.side)

    def __call__(self, x: BitVec) -> bool:
        if x.n != self.spec.n:
            raise ValueError(f"length mismatch: {x.n} vs {self.spec.n}")
        return self.parity.mul_vec(x) in self.accepted

    def syndromes(self) -> np.ndarray:
        """The side's syndrome array, computed on first use and shared by cosets."""
        if self._syndromes is None:
            self._syndromes = syndrome_array(self.parity)
        return self._syndromes

    def support_mask(self) -> np.ndarray:
        """Boolean mask over all 2^n inputs, cached after first use."""
        if self._mask is None:
            syn = self.syndromes()
            if len(self.accepted) == 1:
                (only,) = self.accepted
                mask = syn == only.value
            else:
                good = np.zeros(1 << self.parity.rows, dtype=bool)
                good[[s.value for s in self.accepted]] = True
                mask = good[syn]
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def coset_weights(self, weights: np.ndarray) -> np.ndarray:
        """The total of weights[x] over each coset of the side's code, indexed by syndrome.

        With weights[x] the probability of basis string x, entry He is the
        probability that a test of the coset side-code + e comes out inside.
        """
        rows = self.parity.rows
        return np.bincount(self.syndromes(), weights=weights, minlength=1 << rows)

    def coset(self, error: BitVec) -> "MembershipPredicate":
        """Membership in the single coset side-code + error (accepted set {H error}).

        One such oracle exists per tolerated error vector; testing them in
        sequence identifies which error occurred.  The result reads this
        predicate's syndrome array instead of computing its own.
        """
        if error.n != self.spec.n:
            raise ValueError("error vector length differs from the code length")
        pred = MembershipPredicate(
            f"coset-{self.side}", self.spec, frozenset({self.parity.mul_vec(error)})
        )
        pred._syndromes = self.syndromes()
        return pred


def subset_predicate(spec: CodeSpec, side: str) -> MembershipPredicate:
    """Membership in the union of cosets side-code + e over tolerated e."""
    table = build_syndrome_table(_parity_for(spec, side), spec.q)
    return MembershipPredicate(f"subset-{side}", spec, table.syndromes())


def syndrome_predicate(spec: CodeSpec, side: str) -> MembershipPredicate:
    """The same set, with the accepted syndromes enumerated here directly.

    The key set comes from weight-limited vectors, not from a SyndromeTable,
    so the two predicate families derive their sets in separate code.
    """
    parity = _parity_for(spec, side)
    good = set()
    for j in range(min(spec.q, spec.n) + 1):
        for positions in itertools.combinations(range(spec.n), j):
            good.add(parity.mul_vec(BitVec.from_support(spec.n, positions)))
    return MembershipPredicate(f"syndrome-{side}", spec, frozenset(good))


class VerifierFrame(NamedTuple):
    """Coordinates in which the verifier's projector P is block-diagonal.

    Row v of index lists the accepted primal coset with syndrome v as
    index[v, u] = leader(v) ^ c(u), where c(u) sums the dual predicate's
    parity rows (a basis of the code) picked by the bits of u.  P keeps
    these |S_p| cosets and acts inside each as the same 2^k-point Walsh
    filter on u.  It passes frequency s when s, read as a syndrome under
    those rows, is accepted by the dual predicate.  Row j of a syndrome is
    bit j of s, so keep holds the dual's accepted syndrome values with their
    k bits reversed.
    """

    n: int
    index: np.ndarray  # (|S_p|, 2^k) basis-string indices
    keep: np.ndarray  # accepted dual syndromes as Walsh frequencies of u

    @classmethod
    def from_predicates(
        cls, primal: MembershipPredicate, dual: MembershipPredicate
    ) -> "VerifierFrame":
        """The frame of two predicates' accepted sets; reads no mask or syndrome array.

        leader(v) puts syndrome row j on the pivot column of the primal
        parity's RREF row j, the only row with a one there, so H leader(v) = v;
        that identity is checked for every accepted v, and the dual parity's
        rows are checked to be as many as a basis of the code needs.
        """
        parity = primal.parity
        n, k = parity.cols, dual.parity.rows
        syndromes = sorted(s.value for s in primal.accepted)
        # Bit i of a syndrome value is row parity.rows-1-i, so the pivots run bottom-up.
        pivots = [1 << (r.bit_length() - 1) for r in reversed(parity.row_values)]
        leaders = [sum(p for i, p in enumerate(pivots) if v >> i & 1) for v in syndromes]
        images = (parity.mul_vec(BitVec(n, x)).value for x in leaders)
        if k + parity.rows != n or any(image != v for image, v in zip(images, syndromes)):
            raise ValueError("the parity rows are not RREF bases of the dual and the code")
        codewords = _span_table(dual.parity.row_values, n).astype(np.int64)
        index = np.array(leaders, dtype=np.int64)[:, None] ^ codewords
        keep = np.array(sorted(int(f"{s.value:0{k}b}"[::-1], 2) for s in dual.accepted))
        index.setflags(write=False)
        keep.setflags(write=False)
        return cls(n, index, keep)


class CombinedOracle:
    """All per-coset membership predicates packed behind one tag-extended oracle.

    The tag is the leftmost k bits of a (k+n)-bit query.  Even tag values
    address primal cosets, odd ones dual cosets, with the error index in the
    remaining high bits, matching the layout (00, C+e) u (01, C~+e') u
    (10, C+t) u (11, C~+t').  k = 1 + ceil(log2 |E_X|); when |E_X| is not a
    power of two the leftover tags are constant-false padding.
    """

    __slots__ = ("spec", "k", "tag_map", "errors")

    def __init__(self, spec: CodeSpec):
        errors = enumerate_errors(spec.n, spec.q)
        m = len(errors)
        self.spec = spec
        self.errors = errors
        self.k = 1 + (m - 1).bit_length()
        tag_map: dict[int, tuple[str, BitVec]] = {}
        for i, e in enumerate(errors):
            tag_map[2 * i] = ("primal", e)
            tag_map[2 * i + 1] = ("dual", e)
        self.tag_map = tag_map

    @property
    def n(self) -> int:
        return self.spec.n + self.k

    def tag_for(self, side: str, e: BitVec) -> BitVec:
        """The tag addressing the coset side-code + e."""
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        value = 2 * self.errors.index(e) + (0 if side == "primal" else 1)
        return BitVec(self.k, value)

    def member(self, tagged_x: BitVec) -> bool:
        if tagged_x.n != self.k + self.spec.n:
            raise ValueError(
                f"length mismatch: expected {self.k}+{self.spec.n} bits, got {tagged_x.n}"
            )
        tag, x = tagged_x.split(self.k)
        entry = self.tag_map.get(tag.value)
        if entry is None:
            return False  # padding tag
        side, e = entry
        parity = _parity_for(self.spec, side)
        return parity.mul_vec(x) == parity.mul_vec(e)

    __call__ = member


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

    def count(self, name: str) -> int:
        return self.counts[self._index(name)]

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

    def merge(self, other: "QueryLedger") -> "QueryLedger":
        if other.conversion_factor != self.conversion_factor:
            raise ValueError("cannot merge ledgers with different conversion factors")
        counts = tuple(a + b for a, b in zip(self.counts, other.counts))
        return QueryLedger(self.conversion_factor, counts)

    @property
    def combined_equivalent(self) -> int:
        primal, dual, combined, coset = self.counts
        return self.conversion_factor * (primal + dual) + combined + coset

