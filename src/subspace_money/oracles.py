"""Classical membership oracles, their action on states, and query accounting.

Verification never touches a code directly: it asks membership predicates,
and every predicate asks one question, whether the syndrome Hx of a string
x under one side's parity check H lies in an accepted set.  x is within q
bit flips of the code (or its dual) exactly when Hx is the syndrome of an
error of weight <= q, and x lies in the single coset code + e exactly when
Hx = He.  So a predicate is a side plus an accepted-syndrome set.

The subset and syndrome predicates derive their accepted sets in separate
code: the subset route takes the keys of a decoding SyndromeTable, the
syndrome route enumerates the weight-<=q vectors itself, so comparing their
masks cross-validates the two derivations.

One coset frame is the only array view of a predicate: the coset with
syndrome v is listed string by string as leader(v) ^ c(u) over the
side-code's codewords c(u).  A predicate's 2^n mask scatters its own cosets.
The verifier reads the two predicates through one VerifierFrame, the
accepted primal cosets in these coordinates, inside each of which the dual
test acts as one Walsh filter.  The same frame locates every coset test of
the corrector: a bit-flip coset C + e is one of its rows, a phase-flip
coset one Walsh frequency of its rows.
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


def _frequency(syndrome: int, k: int) -> int:
    """A k-bit dual syndrome as a Walsh frequency of u: syndrome row j is bit j of u."""
    return int(f"{syndrome:0{k}b}"[::-1], 2)


class MembershipPredicate:
    """Membership in {x : H x in accepted} for one side's parity check H.

    kind is "<route>-<side>": the side picks the code (primal) or its dual,
    the route names how the accepted set was derived (subset: syndrome-table
    keys; syndrome: weight-limited enumeration; coset: the single syndrome
    of one error).
    """

    __slots__ = ("kind", "spec", "accepted", "_mask")

    def __init__(self, kind: str, spec: CodeSpec, accepted: frozenset[BitVec]):
        route, _, side = kind.partition("-")
        if route not in ROUTES or side not in SIDES:
            raise ValueError(f"unknown predicate kind {kind!r}")
        self.kind = kind
        self.spec = spec
        self.accepted = accepted
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

    def support_mask(self) -> np.ndarray:
        """The predicate's cosets scattered into a 2^n boolean mask, cached after first use."""
        if self._mask is None:
            mask = np.zeros(1 << self.n, dtype=bool)
            mask[self._cosets()] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def _cosets(self) -> np.ndarray:
        """The accepted strings, one coset per row, ascending by syndrome v.

        Row v is leader(v) ^ c(u), c(u) summing the other side's parity rows
        (a basis of the side-code) picked by the bits of u.  leader(v) puts
        syndrome row j on the pivot column of the RREF parity row j, so
        H leader(v) = v, which is checked, as is the count of basis rows.
        """
        parity, n = self.parity, self.n
        basis = _parity_for(self.spec, "dual" if self.side == "primal" else "primal")
        values = sorted(s.value for s in self.accepted)
        # Bit i of a syndrome value is row parity.rows-1-i, so the pivots run bottom-up.
        pivots = [1 << (r.bit_length() - 1) for r in reversed(parity.row_values)]
        leaders = [sum(p for i, p in enumerate(pivots) if v >> i & 1) for v in values]
        images = (parity.mul_vec(BitVec(n, x)).value for x in leaders)
        if basis.rows + parity.rows != n or any(image != v for image, v in zip(images, values)):
            raise ValueError("the parity rows are not RREF bases of the dual and the code")
        codewords = _span_table(basis.row_values, n).astype(np.int64)
        return np.array(leaders, dtype=np.int64)[:, None] ^ codewords

    def coset(self, error: BitVec) -> "MembershipPredicate":
        """Membership in the single coset side-code + error (accepted set {H error}).

        One such oracle exists per tolerated error vector; testing them in
        sequence identifies which error occurred.
        """
        if error.n != self.spec.n:
            raise ValueError("error vector length differs from the code length")
        return MembershipPredicate(
            f"coset-{self.side}", self.spec, frozenset({self.parity.mul_vec(error)})
        )


def subset_predicate(spec: CodeSpec, side: str) -> MembershipPredicate:
    """Membership in the union of cosets side-code + e over tolerated e."""
    table = build_syndrome_table(_parity_for(spec, side), spec.q)
    return MembershipPredicate(f"subset-{side}", spec, frozenset(table.entries))


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


def predicate_pair(
    spec: CodeSpec, approach: str = "subset"
) -> tuple[MembershipPredicate, MembershipPredicate]:
    """The primal and dual predicates of one approach, "subset" or "syndrome"."""
    make = {"subset": subset_predicate, "syndrome": syndrome_predicate}.get(approach)
    if make is None:
        raise ValueError(f"unknown approach {approach!r}")
    return make(spec, "primal"), make(spec, "dual")


class VerifierFrame(NamedTuple):
    """Coordinates in which the verifier's projector P is block-diagonal.

    Row r of index lists the accepted primal coset with syndrome rows[r] as
    index[r, u] = leader ^ c(u), where c(u) sums the dual predicate's parity
    rows (a basis of the code) picked by the bits of u.  P keeps these |S_p|
    cosets and acts inside each as the same 2^k-point Walsh filter on u.  It
    passes frequency s when s, read as a syndrome under those rows, is
    accepted by the dual predicate.  Row j of a syndrome is bit j of s, so
    keep holds the dual's accepted syndrome values with their k bits reversed.
    """

    n: int
    index: np.ndarray  # (|S_p|, 2^k) basis-string indices
    keep: np.ndarray  # accepted dual syndromes as Walsh frequencies of u
    rows: np.ndarray  # the accepted primal syndrome of each row, ascending

    @classmethod
    def from_predicates(
        cls, primal: MembershipPredicate, dual: MembershipPredicate
    ) -> "VerifierFrame":
        """The frame of two predicates of one code's sides; reads no mask."""
        k = dual.parity.rows
        index = primal._cosets()
        keep = np.array(sorted(_frequency(s.value, k) for s in dual.accepted), dtype=np.int64)
        rows = np.array(sorted(s.value for s in primal.accepted), dtype=np.int64)
        for array in (index, keep, rows):
            array.setflags(write=False)
        return cls(primal.n, index, keep, rows)

    def locate(self, side: str, syndromes: np.ndarray) -> np.ndarray:
        """Where the cosets side-code + e of the accepted syndromes H e sit in the frame.

        A bit-flip coset C + e is the row of its syndrome; a phase-flip coset
        is the Walsh frequency of u that reads as its syndrome.
        """
        if side == "primal":
            return np.searchsorted(self.rows, syndromes)
        k = self.index.shape[1].bit_length() - 1
        return np.array([_frequency(int(s), k) for s in syndromes], dtype=np.int64)


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

