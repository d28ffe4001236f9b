"""Applicable CSS codes: search, certification, error sets, syndrome tables, bounds.

A code is "applicable" for tolerance q when it is an n/2-dimensional
subspace C of F_2^n and both C and its dual have minimum distance at least
2q+1, so each side corrects q classical errors.  Such codes give a CSS code
with a single codeword; that codeword is the banknote state.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import CodeSearchError, SyndromeCollisionError, reserve
from .gf2 import (
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    _BLOCK_ROWS,
    _bit_block,
    _bit_rows,
    _echelon,
    _pack,
    _unpack,
)
from .rng import Seed, as_generator

DEFAULT_MAX_ATTEMPTS = 10_000
_BATCH_BITS = 512  # code search draws about this many candidate bits per generator call
CODESPEC_FORMAT = "codespec-v1"


@dataclass(frozen=True)
class CodeSpec:
    """A candidate CSS code with its derived data.

    ``parity_primal`` (the check matrix of the code itself) has the dual's
    basis for rows; ``parity_dual`` checks the dual code and has the code's
    basis for rows.  Distances are exact; ``certify`` recomputes everything
    from scratch and reports whether the spec really tolerates q errors per
    type.
    """

    n: int
    q: int
    code: SubspaceBasis
    dual_code: SubspaceBasis
    d_primal: int  # math.inf when the code has no nonzero words
    d_dual: int
    parity_primal: Gf2Matrix
    parity_dual: Gf2Matrix

    @classmethod
    def build(cls, code: SubspaceBasis, q: int) -> "CodeSpec":
        """Derive duals, parities and distances for any subspace.

        Deliberately permissive: specs violating the applicability bounds can
        be built so that ``certify`` has something to fail on.
        """
        if q < 0:
            raise ValueError("q must be >= 0")
        dual = code.dual()
        return cls(
            n=code.n,
            q=q,
            code=code,
            dual_code=dual,
            d_primal=_distance_or_inf(code, dual, q),
            d_dual=_distance_or_inf(dual, code, q),
            parity_primal=dual.basis,
            parity_dual=code.basis,
        )

    def to_json_dict(self) -> dict:
        return {
            "format": CODESPEC_FORMAT,
            "n": self.n,
            "q": self.q,
            "code_rows": self.code.basis.to_strings(),
            "dual_rows": self.dual_code.basis.to_strings(),
            "parity_primal": self.parity_primal.to_strings(),
            "parity_dual": self.parity_dual.to_strings(),
            "d_primal": None if math.isinf(self.d_primal) else self.d_primal,
            "d_dual": None if math.isinf(self.d_dual) else self.d_dual,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CodeSpec":
        """The spec of a parsed code file, every field checked; ``certify`` checks its mathematics.

        The basis rows are turned into ints once, as _json_rows has checked
        them; the parity rows are checked as Gf2Matrix.from_strings checks them.
        """
        fmt = _json_field(data, "format")
        if fmt != CODESPEC_FORMAT:
            raise ValueError(f"unsupported code file format: {fmt!r}")
        n = _json_field(data, "n", int)
        d_primal, d_dual = (_json_field(data, k, (int, type(None))) for k in ("d_primal", "d_dual"))
        code_rows, dual_rows = (
            [int(r, 2) for r in _json_rows(data, key, n)] for key in ("code_rows", "dual_rows")
        )
        return cls(
            n=n,
            q=_json_field(data, "q", int),
            code=SubspaceBasis(n, code_rows),
            dual_code=SubspaceBasis(n, dual_rows),
            d_primal=math.inf if d_primal is None else d_primal,
            d_dual=math.inf if d_dual is None else d_dual,
            parity_primal=Gf2Matrix.from_strings(_json_field(data, "parity_primal", list)),
            parity_dual=Gf2Matrix.from_strings(_json_field(data, "parity_dual", list)),
        )


def _json_field(data, key: str, kind: type | tuple[type, ...] = str):
    """data[key] of a parsed JSON object; ValueError naming the field when it is absent or not a kind."""
    if not (isinstance(data, dict) and key in data and isinstance(data[key], kind)):
        raise ValueError(f"field {key!r} is missing or malformed")
    return data[key]


def _dumps_json(data: dict) -> str:
    """A JSON file's text: two-space indents, sorted keys and a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_files(*files: tuple[str | Path, str]) -> None:
    """Write each (path, text), in order, so that a failed write leaves every path as it was.

    Every text first goes to a new ("x") temporary file beside its path, and
    only then does each replace its path; on a failure they are removed.
    """
    staged = []
    try:
        for path, text in files:
            with open(f"{path}.{os.getpid()}.tmp", "x") as f:
                staged.append(f.name)
                f.write(text)
        for temporary, (path, _) in zip(staged, files):
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged:
            if os.path.exists(temporary):
                os.remove(temporary)
        raise


def _json_rows(data, key: str, n: int) -> list[str]:
    """data[key] as a list of n-digit bit strings; ValueError naming the field otherwise."""
    rows = _json_field(data, key, list)
    if not all(isinstance(r, str) and len(r) == n and not r.strip("01") for r in rows):
        raise ValueError(f"field {key!r} holds a row that is not {n} binary digits")
    return rows


def _distance_or_inf(code: SubspaceBasis, checks: SubspaceBasis, q: int):
    """code's exact minimum distance, math.inf if it is zero; checks spans code's dual.

    Distinct syndromes of the errors of weight <= q under the rows of checks
    prove d >= 2q+1, and the walk then stops there; otherwise it runs to the
    end.  The proof is made only where it can shorten a walk of more than one
    block: q >= 0, fewer than 64 check rows (the syndrome test's limit), no
    more errors than syndromes (else two collide), and a support table of
    ``_error_positions`` no larger than the walk's 2^dim words (its budget).
    """
    floor = 1
    if (
        code.dim > _BLOCK_ROWS
        and q >= 0
        and checks.dim < 64
        and error_count(code.n, q) <= 1 << checks.dim
        and min(q, code.n) * error_count(code.n, q) <= 1 << code.dim
        and _block_syndromes_distinct(_bit_block(checks.basis.row_values, code.n), q)
    ):
        floor = 2 * q + 1
    return code.min_distance(floor) if code.dim > 0 else math.inf


def save_code(spec: CodeSpec, path: str | Path) -> None:
    _write_files((path, _dumps_json(spec.to_json_dict())))


def load_code(path: str | Path) -> CodeSpec:
    return CodeSpec.from_json_dict(json.loads(Path(path).read_text()))


def search_applicable_code(
    n: int, q: int, seed: Seed, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> CodeSpec:
    """Rejection-sample uniformly random n/2-dim subspaces until one is applicable.

    A code corrects q errors, d >= 2q+1, exactly when the errors of weight
    <= q have distinct syndromes, so that is what each candidate is tested
    for.  A candidate is k = n/2 random rows G; rank-deficient draws are
    skipped and not counted as attempts.  Candidates come in batches of
    max(1, 512 // (k n)), one ``rng.integers`` call of (batch, k, n) bits,
    and the dual ker G of a whole batch is tested at once on the columns as
    drawn.  In draw order, each full-rank candidate that passes is brought
    to RREF and dualized, and its code is tested on the dual basis' columns;
    the first to pass is accepted.  A batch holds the same bits as that
    many (k, n) draws, so the accepted code is the one-at-a-time search's,
    and a Generator passed as ``seed`` is left in the state that search
    would leave it in.  Only the accepted code's distances are walked, and
    each walk stops at the first block holding a word of weight 2q+1, the
    floor that the two syndrome tests have proved for C and its dual.

    Raises CodeSearchError before the first attempt when no applicable code
    can exist: C and its dual are both [n, n/2] codes, so each must meet the
    Singleton bound (2q+1 <= n/2 + 1) and the sphere-packing bound
    (|E_q| <= 2^(n/2)).  The Griesmer bound adds nothing here: for even n <=
    200 and q < 40 it allows every [n, n/2, 2q+1] code that these two allow.
    Passing both proves nothing: (14, 2) passes them, yet no [14, 7] code has
    d >= 5, so its search runs out its attempts.
    Otherwise raises CodeSearchError after max_attempts; persistent failure
    at positive ``gv_margin(n, q)`` (existence, asymptotically) would be
    surprising, while a negative margin guarantees nothing.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if q < 0:
        raise ValueError("q must be >= 0")
    k, need = n // 2, 2 * q + 1
    if need > k + 1:
        raise CodeSearchError(
            f"no [{n}, {k}] code has d >= {need}: the Singleton bound caps d at n/2 + 1 = {k + 1}"
        )
    ball = error_count(n, q)
    if ball > 1 << k:
        raise CodeSearchError(
            f"no [{n}, {k}] code corrects {q} errors: the sphere-packing bound needs "
            f"|E_q| = {ball} <= 2^(n/2) = {1 << k}"
        )
    reserve((1 << k,), np.uint64)  # the accepted code's distance walk
    rng = as_generator(seed)
    batch = max(1, _BATCH_BITS // (k * n))
    attempts = 0
    while attempts < max_attempts:
        state = rng.bit_generator.state
        # No more candidates than attempts left, so the last batch ends on the last attempt.
        bits = rng.integers(0, 2, size=(min(batch, max_attempts - attempts), k, n))
        passed = _block_syndromes_distinct(bits, q).tolist()
        values = _bit_rows(bits.reshape(-1, n))
        for i, primal_ok in enumerate(passed):
            rows = values[i * k : (i + 1) * k]
            if len(_echelon(rows)) < k:
                continue
            attempts += 1
            if not primal_ok:
                continue
            code = SubspaceBasis(n, rows)
            dual = code.dual()
            if not _block_syndromes_distinct(_bit_block(dual.basis.row_values, n), q):
                continue
            if i + 1 < len(passed):
                # Leave the generator as if only the draws up to this one were made.
                rng.bit_generator.state = state
                rng.integers(0, 2, size=(i + 1, k, n))
            d_primal, d_dual = code.min_distance(need), dual.min_distance(need)
            return CodeSpec(n, q, code, dual, d_primal, d_dual, dual.basis, code.basis)
    raise CodeSearchError(
        f"no applicable code found for n={n}, q={q} in {max_attempts} attempts "
        f"(gv_margin={gv_margin(n, q):+.4f}; positive means one exists asymptotically)"
    )


@dataclass(frozen=True)
class CertCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    checks: tuple[CertCheck, ...]
    d_primal: int
    d_dual: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"{'pass' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in self.checks]
        verdict = "certified" if self.passed else "REJECTED"
        return "\n".join(lines + [f"=> {verdict} (d_primal={self.d_primal}, d_dual={self.d_dual})"])


def certify(spec: CodeSpec) -> CertificationReport:
    """Recompute every invariant of the spec from scratch and report pass/fail.

    From scratch includes the floor each distance walk stops at: the proof
    of d >= 2q+1 by distinct syndromes (``_distance_or_inf``) is made again,
    with the recomputed dual's rows as checks for the code and the code's
    rows as checks for the dual.  A passing report means the spec is an
    applicable CSS code for its q.
    """
    checks = []
    need = 2 * spec.q + 1

    checks.append(CertCheck("even_length", spec.n % 2 == 0, f"n={spec.n}"))

    dim_ok = spec.code.dim == spec.n // 2
    checks.append(CertCheck("code_dimension", dim_ok, f"dim={spec.code.dim}, want {spec.n // 2}"))

    recomputed_dual = spec.code.dual()
    dual_ok = recomputed_dual == spec.dual_code and recomputed_dual.dual() == spec.code
    checks.append(CertCheck("dual_match", dual_ok, "dual(code) == dual_code and involutive"))

    # The verifier reads coset leaders off the pivots of these rows, so they
    # must be the canonical bases, not just span the right spaces.
    pp_ok = spec.parity_primal == recomputed_dual.basis
    checks.append(CertCheck("parity_primal", pp_ok, "rows are the dual's RREF basis"))

    pd_ok = spec.parity_dual == spec.code.basis
    checks.append(CertCheck("parity_dual", pd_ok, "rows are the code's RREF basis"))

    d_p = _distance_or_inf(spec.code, recomputed_dual, spec.q)
    d_d = _distance_or_inf(recomputed_dual, spec.code, spec.q)
    checks.append(
        CertCheck("distance_primal", d_p >= need, f"d={d_p}, need >= {need} for q={spec.q}")
    )
    checks.append(
        CertCheck("distance_dual", d_d >= need, f"d={d_d}, need >= {need} for q={spec.q}")
    )
    checks.append(
        CertCheck(
            "recorded_distances",
            spec.d_primal == d_p and spec.d_dual == d_d,
            f"recorded ({spec.d_primal}, {spec.d_dual}) vs recomputed ({d_p}, {d_d})",
        )
    )
    return CertificationReport(tuple(checks), d_p, d_d)


def error_count(n: int, q: int) -> int:
    """Number of vectors of weight <= q on n coordinates (exact)."""
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    return sum(math.comb(n, j) for j in range(min(q, n) + 1))


def enumerate_errors(n: int, q: int) -> tuple[BitVec, ...]:
    """Every error of weight at most q on n coordinates, by value: ``_error_positions``' BitVecs."""
    return tuple(
        BitVec.from_support(n, [p for p in support if p < n])
        for support in _error_positions(n, q).T.tolist()
    )


@functools.lru_cache(maxsize=8)
def _error_positions(n: int, q: int) -> np.ndarray:
    """Support of every error of weight <= q, one column each, in ascending order of value.

    The supports come from ``itertools.combinations``, padded with n, the
    index of the zero column that ``_error_syndromes`` appends.  Coordinate p
    is bit n-1-p of a value, so values ascend as padded supports descend.
    """
    width, count = min(q, n), error_count(n, q)
    reserve((width, count), np.intp)
    by_weight = (itertools.combinations(range(n), j) for j in range(width + 1))
    padded = [s + (n,) * (width - len(s)) for s in itertools.chain.from_iterable(by_weight)]
    padded.sort(reverse=True)
    flat = np.fromiter(itertools.chain.from_iterable(padded), np.intp, width * count)
    positions = flat.reshape(count, width).T.copy()
    positions.setflags(write=False)
    return positions


def _error_syndromes(bits: np.ndarray, q: int) -> np.ndarray:
    """H e for every error e of weight <= q, in ``enumerate_errors`` order, for each H given.

    bits holds H as a (k, n) array of 0/1 bits, or a (count, k, n) stack of
    them with k < 64.  This is where the bit order of a syndrome is decided:
    row j of H is bit k-1-j of H e, as in ``Gf2Matrix.mul_vec``, in
    ``gf2._pack``'s layout for k bits.  H e is the XOR of the columns of H on
    the support of e, so the columns are packed that way, a zero column is
    appended for the padding of ``_error_positions``, and one gather and one
    XOR reduction give every syndrome: (|E_q|, count) for a stack, (|E_q|[,
    limbs]) for one H.
    """
    k, n = bits.shape[-2:]
    if k < 64:
        packed = ((1 << np.arange(k - 1, -1, -1)) @ bits).T
    else:
        packed = _pack(_bit_rows(bits.T), k)
    columns = np.zeros((n + 1, *packed.shape[1:]), np.min_scalar_type((1 << min(k, 64)) - 1))
    columns[:n] = packed
    return np.bitwise_xor.reduce(columns[_error_positions(n, q)], axis=0)


def _block_syndromes_distinct(bits: np.ndarray, q: int) -> np.ndarray:
    """Whether the errors of weight <= q have distinct syndromes, ker H of d >= 2q+1, per H.

    bits is as ``_error_syndromes`` takes it, with k < 64: a sort of the
    syndromes along the error axis finds the repeats.
    """
    syndromes = _error_syndromes(bits, q)
    syndromes.sort(axis=0)
    return (syndromes[1:] != syndromes[:-1]).all(axis=0)


def count_error_pairs(n: int, q: int) -> int:
    """Size of the tolerated (bit-flip, phase-flip) pair set, exactly."""
    return error_count(n, q) ** 2


@dataclass(frozen=True)
class SyndromeTable:
    """Bijection between syndromes of weight-<=q errors and the errors themselves.

    Existence of the bijection is exactly the statement d >= 2q+1;
    construction fails loudly on any collision.
    """

    parity: Gf2Matrix
    q: int
    entries: Mapping[BitVec, BitVec]

    def decode(self, syndrome: BitVec) -> BitVec | None:
        return self.entries.get(syndrome)

    def __len__(self) -> int:
        return len(self.entries)


def build_syndrome_table(parity: Gf2Matrix, q: int) -> SyndromeTable:
    """Map the syndrome H e of every error e of weight <= q back to e.

    ker H has d >= 2q+1 exactly when these syndromes are distinct.  They come
    from ``_error_syndromes``; the first error, in ``enumerate_errors`` order,
    whose syndrome repeats an earlier one raises SyndromeCollisionError naming
    both.
    """
    if not parity.rows:
        raise ValueError("matrix has no rows")
    syndromes = _error_syndromes(_bit_block(parity.row_values, parity.cols), q)
    entries: dict[BitVec, BitVec] = {}
    for e, value in zip(enumerate_errors(parity.cols, q), _unpack(syndromes)):
        s = BitVec(parity.rows, value)
        if s in entries:
            raise SyndromeCollisionError(
                f"errors {entries[s]} and {e} share syndrome {s}; "
                f"the code does not have d >= {2 * q + 1}"
            )
        entries[s] = e
    return SyndromeTable(parity, q, entries)


@dataclass(frozen=True)
class StabilizerSet:
    """Stabilizer generators of the single-codeword CSS code.

    X-type generators come from the dual's parity check, Z-type from the
    code's own; together they form the block-diagonal check matrix with n
    generators in total.
    """

    x_type_rows: Gf2Matrix
    z_type_rows: Gf2Matrix

    @property
    def generator_count(self) -> int:
        return self.x_type_rows.rows + self.z_type_rows.rows

    def pauli_strings(self) -> list[str]:
        out = []
        for r in self.x_type_rows:
            out.append("".join("X" if r.bit(i) else "I" for i in range(r.n)))
        for r in self.z_type_rows:
            out.append("".join("Z" if r.bit(i) else "I" for i in range(r.n)))
        return out


def stabilizer_generators(spec: CodeSpec) -> StabilizerSet:
    return StabilizerSet(x_type_rows=spec.parity_dual, z_type_rows=spec.parity_primal)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy with H(0) = H(1) = 0 fixed by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gv_margin(n: int, q: int) -> float:
    """Gilbert-Varshamov existence margin 1 - 2 H(2q/n).

    Positive means an applicable code for (n, q) exists (asymptotically, by
    Gilbert-Varshamov at rate 1/2, for n > 4q); negative guarantees nothing.
    """
    if n < 1 or q < 0 or 2 * q > n:
        raise ValueError(f"need 0 <= 2q <= n, got n={n}, q={q}")
    return 1.0 - 2.0 * binary_entropy(2.0 * q / n)


def soundness_log2(n: int, q: int, eps: float | None = None) -> float:
    """log2 of the bound |E_q|^2 eps (|E_q|: error_count^2 pairs), eps 2^(-n/2) by default."""
    if n < 1 or n % 2:
        raise ValueError("n must be even and >= 2")
    if eps is None:
        log2_eps = -n / 2.0
    else:
        if eps <= 0:
            raise ValueError("eps must be positive")
        log2_eps = math.log2(eps)
    return 4.0 * math.log2(error_count(n, q)) + log2_eps


def soundness_tradeoff(n: int, q: int, eps: float | None = None) -> float:
    """The soundness bound |E_q|^2 eps (|E_q|: error_count^2 pairs), computed in the log domain."""
    return float(2.0 ** soundness_log2(n, q, eps))
