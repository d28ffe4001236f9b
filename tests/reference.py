"""Reference constructions the tests check the package against.

None of these runs on a library path.  They compute the same quantities as
the package by slower, more literal routes: the tolerated coset states one
by one; membership predicates, a side plus an accepted-syndrome set derived
in two separate ways (the keys of a decoding SyndromeTable, or an
enumeration of the weight-<=q errors here), each with a per-string test, a
2^n mask scattered from its cosets and per-coset predicates; the verifier
frame built from two such predicates, with its dual frequencies reversed
through a bit string; predicate masks as a lookup of H x over all 2^n
strings; the tag-packed combined oracle; the phase oracle as a sign flip
over a 2^n mask; the verifier as the four-stage pipeline M_dual, FWHT,
M_primal on full 2^n masks, or in its coset frame with every accepted coset
transformed, its sums over rows added one row after another in a Python
loop, and the post-state built at once; the subset testers as a
classical query surface; code search by exhaustive minimum distances,
the tolerated errors one support at a time, syndrome tables one
matrix-vector product per error, RREF column by column,
a Pauli as one gather of every source index, and the state dump's text
written and parsed one line at a time.  The Hadamard on every
qubit, subspace membership and intersection dimension have no library
caller and live here too, as do the references the acceptance criteria
compare against: the verifier's projector as a dense matrix, random
subspaces, random invertible maps and coordinate-permutation isometries,
and the coset parameters of a permuted conjugate-coding state.  The small
constructors at the end (identity matrix, whole space, basis and uniform
states) are test conveniences.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from subspace_money.codes import CodeSpec, build_syndrome_table, enumerate_errors
from subspace_money.errors import CodeSearchError, SyndromeCollisionError, reserve
from subspace_money.gf2 import (
    BasisMap,
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    _independent_rows,
    _random_rows,
    _span_table,
    random_bitvec,
    rref,
)
from subspace_money.oracles import SIDES, VerifierFrame
from subspace_money.rng import Seed, as_generator
from subspace_money.states import DenseState, coset_state, fwht


ATOL_EXACT = 1e-12  # self-consistency of exact constructions

ROUTES = ("subset", "syndrome", "coset")


def _parity_for(spec: CodeSpec, side: str) -> Gf2Matrix:
    """The parity check of one side: H of the code's primal or dual membership test."""
    return (spec.parity_primal, spec.parity_dual)[SIDES.index(side)]


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


def predicate_frame(primal: MembershipPredicate, dual: MembershipPredicate) -> VerifierFrame:
    """VerifierFrame.of from two predicates of one code's sides; reads no mask.

    The predicates list every accepted coset in full: the frame is given its
    leaders, column 0, and its own index must list the same strings.
    """
    k = dual.parity.rows
    index = primal._cosets()
    keep = np.array(sorted(_frequency(s.value, k) for s in dual.accepted), dtype=np.int64)
    rows = np.array(sorted(s.value for s in primal.accepted), dtype=np.int64)
    # Each error's bit-flip coset is the row holding it, its phase-flip coset
    # the frequency of its dual syndrome.
    errors = enumerate_errors(primal.n, primal.spec.q)
    error_cosets = np.array(
        [
            [int(np.flatnonzero((index == e.value).any(axis=1))[0]) for e in errors],
            [_frequency(dual.parity.mul_vec(e).value, k) for e in errors],
        ],
        dtype=np.int64,
    )
    leaders = index[:, 0].copy()
    for array in (leaders, keep, rows, error_cosets):
        array.setflags(write=False)
    frame = VerifierFrame(primal.spec, leaders, keep, rows, error_cosets)
    assert frame.index.dtype == index.dtype and np.array_equal(frame.index, index)
    return frame


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
        n = self.spec.n
        tag, x = tagged_x.value >> n, BitVec(n, tagged_x.value & ((1 << n) - 1))
        entry = self.tag_map.get(tag)
        if entry is None:
            return False  # padding tag
        side, e = entry
        parity = _parity_for(self.spec, side)
        return parity.mul_vec(x) == parity.mul_vec(e)

    __call__ = member


def hadamard_all(st: DenseState) -> DenseState:
    """Hadamard on every qubit; an involution."""
    return DenseState._own(st.n, fwht(st.amplitudes) / math.sqrt(1 << st.n))


def member(space: SubspaceBasis, v: BitVec) -> bool:
    """Elimination of v against the RREF basis; True iff it reduces to zero."""
    if v.n != space.n:
        raise ValueError(f"length mismatch: {v.n} vs ambient {space.n}")
    x = v.value
    for rv in space.basis.row_values:
        if x & (1 << (rv.bit_length() - 1)):
            x ^= rv
    return x == 0


def intersection_dim(a: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(a ∩ b) = dim a + dim b - dim(a + b), the sum's dimension being the stacked rank."""
    if a.n != b.n:
        raise ValueError("ambient dimensions differ")
    stacked = Gf2Matrix(a.dim + b.dim, a.n, a.basis.row_values + b.basis.row_values)
    return a.dim + b.dim - rref(stacked)[1]


def apply_pauli_by_gather(st: DenseState, e: BitVec, e_prime: BitVec) -> DenseState:
    """X^e Z^e' on a pure state as one gather of every source index and a float sign array.

    Adding 0.0 turns the -0.0 parts that a product by -1 can leave into +0.0.
    """
    source = np.arange(1 << st.n, dtype=np.int64) ^ e.value
    signs = 1.0 - 2.0 * (np.bitwise_count(source & e_prime.value) & 1)
    return DenseState._own(st.n, signs * st.amplitudes[source] + 0.0)


def tolerated_coset_states(spec: CodeSpec) -> list[DenseState]:
    """All tolerated noisy variants of the code's subspace state.

    Ordered with the bit-flip error as the major index and the phase-flip
    error as the minor one, both in lexicographic error order.  For an
    applicable code these states are pairwise orthonormal and span the
    acceptance subspace of the verifier.
    """
    errors = enumerate_errors(spec.n, spec.q)
    return [coset_state(spec.code, e, ep) for e in errors for ep in errors]


def tolerated_projector(spec: CodeSpec) -> np.ndarray:
    """Sum of |c><c| over all tolerated coset states."""
    mat = np.stack([s.amplitudes for s in tolerated_coset_states(spec)])
    return mat.T @ mat.conj()


def syndrome_array(parity: Gf2Matrix) -> np.ndarray:
    """H x for every x in F_2^n at once, indexed by the packed value of x.

    H x is the sum of the columns of H picked by the bits of x, and bit p of
    x is coordinate n-1-p, so this is the span table of H's columns in
    reverse order.
    """
    return _span_table(parity.transpose().row_values[::-1], parity.rows)


def syndrome_mask(pred) -> np.ndarray:
    """The predicate's mask over all 2^n strings: its accepted set looked up at H x."""
    good = np.zeros(1 << pred.parity.rows, dtype=bool)
    good[[s.value for s in pred.accepted]] = True
    return good[syndrome_array(pred.parity)]


def masked_transform(amps: np.ndarray, primal, dual) -> np.ndarray:
    """M_dual fwht(M_primal amps) on the last axis, whose |.|^2 / 2^n is <amps|P|amps>."""
    return fwht(amps * primal.support_mask()) * dual.support_mask()


def masked_projection(amps: np.ndarray, primal, dual) -> np.ndarray:
    """P amps on the last axis as H M_dual H M_primal, with H the normalised transform."""
    return fwht(masked_transform(amps, primal, dual)) / amps.shape[-1]


def masked_pipeline(state: DenseState, primal, dual) -> tuple[float, DenseState | None]:
    """Acceptance probability and post-state of one register, stage by stage on 2^n masks."""
    dim = 1 << state.n
    kept = state.amplitudes * primal.support_mask()
    prob1 = float((np.abs(kept) ** 2).sum())
    if prob1 == 0.0:
        return 0.0, None
    half = masked_transform(kept / np.sqrt(prob1), primal, dual) / math.sqrt(dim)
    prob2 = float((np.abs(half) ** 2).sum())
    if prob2 == 0.0:
        return 0.0, None
    post = fwht(half / np.sqrt(prob2)) / math.sqrt(dim)
    return min(prob1 * prob2, 1.0), DenseState._own(state.n, post)


def apply_verifier(state: DenseState, primal, dual) -> tuple[float, DenseState | None]:
    """verify's kernel in the predicates' frame: acceptance probability and post-state, built now."""
    prob, build = predicate_frame(primal, dual).apply(state)
    return prob, None if build is None else build()


def row_ordered_energy(rows: np.ndarray) -> float:
    """sum |x|^2 over a C-ordered stack: each row's vdot, added one row after another."""
    total = 0.0
    for row in rows:
        total += float(np.vdot(row, row).real)
    return total


def all_rows_kept_spectrum(
    state: DenseState, frame: VerifierFrame
) -> tuple[float, np.ndarray | None]:
    """VerifierFrame._kept_spectrum with every accepted coset normalised and transformed."""
    cosets = state.amplitudes[frame.index]
    prob1 = row_ordered_energy(cosets)
    if prob1 == 0.0:
        return 0.0, None
    spectrum = fwht(cosets / math.sqrt(prob1))
    kept = np.zeros(spectrum.shape, dtype=spectrum.dtype)
    kept[:, frame.keep] = spectrum[:, frame.keep]
    prob2 = row_ordered_energy(kept) / frame.index.shape[1]
    if prob2 == 0.0:
        return 0.0, None
    return min(prob1 * prob2, 1.0), kept


def all_rows_post_state(n: int, kept: np.ndarray, frame: VerifierFrame) -> DenseState:
    """The accepted branch of a kept spectrum, transforming every row of it."""
    size = frame.index.shape[1]
    post = np.zeros(1 << n, dtype=kept.dtype)
    post[frame.index] = fwht(kept) / (size * math.sqrt(row_ordered_energy(kept) / size))
    return DenseState._own(n, post)


def all_rows_frame_weights(
    state: DenseState, frame: VerifierFrame
) -> tuple[np.ndarray, np.ndarray]:
    """VerifierFrame.weights of a pure state, transforming every accepted coset.

    The energies are C-ordered, so the sum over rows adds them one after another.
    """
    cosets = state.amplitudes[frame.index]
    energy = np.abs(np.ascontiguousarray(fwht(cosets))) ** 2
    return (np.abs(cosets) ** 2).sum(axis=1), energy.sum(axis=0) / frame.index.shape[1]


def all_rows_kept_coefficients(amps: np.ndarray, frame: VerifierFrame) -> np.ndarray:
    """VerifierFrame._kept_coefficients by fwht of amps' gathered cosets, transformed axis last."""
    kept = fwht(amps[..., frame.index])[..., frame.keep]
    return kept.reshape(*kept.shape[:-2], -1)


def eager_frame_pipeline(
    state: DenseState, frame: VerifierFrame
) -> tuple[float, DenseState | None]:
    """VerifierFrame.apply as before the post-state was built on read: post-state made now."""
    prob, kept = all_rows_kept_spectrum(state, frame)
    return prob, None if kept is None else all_rows_post_state(state.n, kept, frame)


class SubsetTesters:
    """A bank's subset testers as classical queries, one predicate per (serial, side), built once."""

    def __init__(self, registry):
        self.registry = registry
        self._predicates = {}

    def __call__(self, side: str, z: BitVec, x: BitVec) -> bool:
        """The subset tester for serial z.

        For an invalid serial the tester does nothing, which for a phase
        oracle means no sign flip: the predicate reads False.
        """
        if side not in ("primal", "dual"):
            raise ValueError(f"side must be primal or dual, got {side!r}")
        if not self.registry.serial_check(z):
            return False
        if (z, side) not in self._predicates:
            spec = self.registry.record_for_serial(z).spec
            self._predicates[z, side] = subset_predicate(spec, side)
        return self._predicates[z, side](x)


def search_by_distances(n: int, q: int, seed: Seed, max_attempts: int) -> CodeSpec:
    """Code search that walks both minimum distances of every candidate.

    A candidate is n/2 rows drawn one ``random_bitvec`` at a time and brought
    to RREF; a rank-deficient draw is redrawn without counting an attempt.
    It is accepted when min_distance of the code, then of its dual, is at
    least 2q+1.  The Singleton and sphere-packing pre-checks are left out.
    """
    k, need = n // 2, 2 * q + 1
    rng = as_generator(seed)
    for _ in range(max_attempts):
        while True:
            code = SubspaceBasis(n, [random_bitvec(n, rng) for _ in range(k)])
            if code.dim == k:
                break
        d_p = code.min_distance()
        if d_p < need:
            continue
        dual = code.dual()
        d_d = dual.min_distance()
        if d_d < need:
            continue
        return CodeSpec(n, q, code, dual, d_p, d_d, dual.basis, code.basis)
    raise CodeSearchError(f"no applicable code found for n={n}, q={q} in {max_attempts} attempts")


def errors_by_combinations(n: int, q: int) -> list[BitVec]:
    """Every error of weight <= q on n coordinates, one ``BitVec.from_support`` each, by value."""
    supports = (s for j in range(min(q, n) + 1) for s in itertools.combinations(range(n), j))
    return sorted((BitVec.from_support(n, s) for s in supports), key=lambda e: e.value)


def syndrome_table_entries(parity: Gf2Matrix, q: int) -> dict[BitVec, BitVec]:
    """Syndrome -> error for every error of weight <= q, one ``mul_vec`` per error.

    Raises SyndromeCollisionError, worded as ``build_syndrome_table`` words
    it, at the first error whose syndrome an earlier error already has.
    """
    entries: dict[BitVec, BitVec] = {}
    for e in enumerate_errors(parity.cols, q):
        s = parity.mul_vec(e)
        if s in entries:
            raise SyndromeCollisionError(
                f"errors {entries[s]} and {e} share syndrome {s}; "
                f"the code does not have d >= {2 * q + 1}"
            )
        entries[s] = e
    return entries


def rref_by_columns(m: Gf2Matrix) -> tuple[Gf2Matrix, int]:
    """RREF with zero rows dropped, and the rank: one pivot search per column, left to right."""
    n = m.cols
    work = list(m.row_values)
    r = 0
    for c in range(n):
        bit = 1 << (n - 1 - c)
        pivot = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        r += 1
        if r == len(work):
            break
    nonzero = [w for w in work if w]
    return Gf2Matrix(len(nonzero), n, nonzero), len(nonzero)


def dump_lines_by_format(n: int, indices: np.ndarray, values: np.ndarray) -> str:
    """The state dump's text of the nonzero values at their indices, one '%s %.17g %.17g' per line."""
    kept = values != 0
    bits = f"0{n}b"
    lines = [
        "%s %.17g %.17g" % (format(i, bits), amp.real + 0.0, amp.imag + 0.0)
        for i, amp in zip(indices[kept].tolist(), values[kept].tolist())
    ]
    return "\n".join(lines) + "\n"


def parse_dump_by_lines(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """parse_dump one line at a time: each line split, checked and converted in turn."""
    indices, values = [], []
    n = None
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ValueError(
                f"line {number} of the state dump has {len(fields)} field(s); "
                "expected '<bits> <re> <im>'"
            )
        bits, re_s, im_s = fields
        if n is None:
            n = len(bits)
        if len(bits) != n or bits.strip("01"):
            raise ValueError(f"bit string {bits!r} is not {n} binary digits")
        indices.append(int(bits, 2))
        try:
            values.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(
                f"line {number} of the state dump has an amplitude that is not a number: "
                f"{re_s!r} {im_s!r}"
            ) from None
    if n is None:
        raise ValueError("empty state dump")
    if len(set(indices)) != len(indices):
        raise ValueError("repeated bit string in state dump")
    reserve((1 << n,))
    values = np.array(values, dtype=np.complex128)
    with np.errstate(over="ignore"):  # an overflow to inf is refused below, as parse_dump does
        norm = float(np.linalg.norm(values))
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not a finite unit vector: |psi| = {norm}")
    return n, np.array(indices, dtype=np.int64), values


def dump_state_by_fstrings(st: DenseState) -> str:
    """dump_state as one f-string per nonzero amplitude of np.flatnonzero's scan."""
    support = np.flatnonzero(st.amplitudes)
    lines = [
        f"{i:0{st.n}b} {amp.real + 0.0:.17g} {amp.imag + 0.0:.17g}"
        for i, amp in zip(support.tolist(), st.amplitudes[support].tolist())
    ]
    return "\n".join(lines) + "\n"


def verification_matrix(spec: CodeSpec) -> np.ndarray:
    """The verifier's projector P as a dense real matrix, from its own block kernel.

    Row x of K holds the kept Walsh coefficients of the basis vector |x>, so
    <x|P|y> = K[x] . K[y] / 2^k and P = K K^T / 2^k.  For an applicable code
    this equals the projector onto the span of all tolerated coset states.
    """
    reserve((1 << spec.n, 1 << spec.n), np.float64)
    frame = VerifierFrame.of(spec)
    kept = frame._kept_coefficients(np.eye(1 << spec.n))
    return kept @ kept.T / frame.index.shape[1]


def random_subspace(n: int, dim: int, seed: Seed) -> SubspaceBasis:
    """Uniformly random dim-dimensional subspace of F_2^n.

    Samples dim random rows, as one dim x n block of bits, and redraws the
    block on rank deficiency; conditioned on full rank, the row space is
    uniform over all dim-dimensional subspaces.  The block draws the same
    bits as dim calls to ``random_bitvec`` on the same generator.
    """
    if not 0 <= dim <= n:
        raise ValueError(f"dim {dim} out of range for n={n}")
    if dim == 0:
        return SubspaceBasis(n)
    return SubspaceBasis(n, _independent_rows(n, dim, as_generator(seed)))


def random_basis_map(n: int, seed: Seed) -> BasisMap:
    """Uniformly random invertible linear map of F_2^n (rejection on singularity)."""
    rng = as_generator(seed)
    while True:
        m = Gf2Matrix(n, n, _random_rows(n, n, rng))
        try:
            return BasisMap(m)
        except ValueError:
            continue


def random_isometry(n: int, seed: Seed) -> BasisMap:
    """Random invertible linear isometry of the Hamming metric.

    Over GF(2) these are exactly the coordinate permutations, so the result
    is a permutation matrix, sending coordinate i to perm[i], and application
    preserves Hamming weight.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perm = [int(p) for p in as_generator(seed).permutation(n)]
    return BasisMap.from_columns([BitVec.from_support(n, [perm[i]]) for i in range(n)])


def map_subspace(f: BasisMap, s: SubspaceBasis) -> SubspaceBasis:
    """The image of s under f, spanned by the images of its basis rows."""
    return SubspaceBasis(f.n, [f.matrix.mul_vec(r) for r in s.basis])


def conjugate_coset_parameters(
    basis_map: BasisMap, theta: BitVec, x: BitVec
) -> tuple[BitVec, BitVec]:
    """The (t, t') for which the permuted conjugate-coding state is X^t Z^t' |A>.

    Here A is the span of the basis columns at Hadamard positions; t sums
    basis columns over computational positions, t' sums dual-basis rows over
    Hadamard positions.  The dual basis, rows u^1..u^n with u^i . u_j =
    delta_ij, is the inverse matrix's rows, verified exhaustively.
    """
    n = basis_map.n
    if theta.n != n or x.n != n:
        raise ValueError("theta and x must match the basis-map dimension")
    dual_rows = basis_map.matrix.inverse()
    for i in range(n):
        for j in range(n):
            if BitVec(n, dual_rows.row_values[i]).dot(basis_map.column(j)) != (1 if i == j else 0):
                raise AssertionError("dual basis failed the delta check")
    t = BitVec.zeros(n)
    t_prime = BitVec.zeros(n)
    for i in range(n):
        if not x.bit(i):
            continue
        if theta.bit(i):
            t_prime = t_prime ^ BitVec(n, dual_rows.row_values[i])
        else:
            t = t ^ basis_map.column(i)
    return t, t_prime


def identity_matrix(n: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, [1 << (n - 1 - i) for i in range(n)])


def full_space(n: int) -> SubspaceBasis:
    """F_2^n itself."""
    return SubspaceBasis(n, [1 << i for i in range(n)])


def basis_state(n: int, b: BitVec | int) -> DenseState:
    """The computational basis ket |b>."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[b.value if isinstance(b, BitVec) else int(b)] = 1.0
    return DenseState(n, amps)


def uniform_state(n: int) -> DenseState:
    """The uniform superposition over all 2^n strings."""
    return DenseState(n, np.full(1 << n, 1.0 / math.sqrt(1 << n)))
