"""The noisy-projective mini-scheme: bank, serial registry, verifier, corrector.

The bank side is an OracleRegistry: a keyed deterministic map from bank
randomness r to a mint record (an applicable code, a distinct 3n-bit serial
and, on the conjugate route, a basis map plus the basis-choice string).
Each record owns its code's VerifierFrame, built on first use and kept.
Everyone else interacts with a record only through its oracles: the serial
checker and the primal/dual membership testers, reached via an
OracleSession, which counts the queries each use of the record's frame
costs on three oracles: primal, dual and coset.  Every entry point takes a
caller's session only when it holds the registry's record for the note's
serial, and refuses a session for another record.

Verification is the four-stage pipeline

    project onto tolerated bit-flip cosets, Hadamard everything, project
    onto tolerated phase-flip cosets (now bit-flips of the dual), Hadamard
    back,

whose composition P is exactly the projector onto the span of all tolerated
noisy variants of the banknote state.  The record's VerifierFrame computes
P; this module validates, charges, clips and samples around it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .codes import CodeSpec, _dumps_json, _json_field, _write_files, certify, error_count
from .codes import search_applicable_code
from .errors import SerialCollisionError, UndecodableError, UnknownSerialError, reserve
from .gf2 import BasisMap, BitVec, Gf2Matrix, SubspaceBasis, random_bitvec
from .gf2 import _independent_rows, _random_rows
from .oracles import SIDES, VerifierFrame
from .rng import Seed, as_generator, derive_sequence
from .states import (
    DenseState,
    _coset_amplitudes,
    _dump_lines,
    apply_basis_permutation,
    apply_pauli,
    parse_dump,
    pauli_lines,
    scatter_dump,
    subspace_state,
)

BANKNOTE_FORMAT = "banknote-v1"
BANKKEY_FORMAT = "bankkey-v1"

DEFAULT_SERIAL_RETRIES = 64

ORACLE_NAMES = ("primal", "dual", "coset")


@dataclass(frozen=True)
class Banknote:
    """A serial number and the money state a wallet holds for it.

    The state is a DenseState, or a note file's lines, parse_dump's (n,
    indices, values), which verify, diagnose, corrupt and correct take as
    they are.
    """

    serial: BitVec
    state: DenseState | tuple[int, np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.serial.n != 3 * self.n:
            raise ValueError(
                f"the note's state acts on {self.n} qubits, so its serial needs "
                f"3n={3 * self.n} bits, not {self.serial.n}"
            )

    @property
    def n(self) -> int:
        return self.state.n if isinstance(self.state, DenseState) else self.state[0]


@dataclass(frozen=True)
class MintRecord:
    """Bank-internal data for one banknote; never serialized toward wallets."""

    r: BitVec
    serial: BitVec
    spec: CodeSpec
    route: str  # "direct" | "conjugate"
    theta: BitVec | None = None
    basis_map: BasisMap | None = None

    def __post_init__(self):
        if self.route not in ("direct", "conjugate"):
            raise ValueError(f"unknown route {self.route!r}")
        if self.serial.n != 3 * self.spec.n:
            raise ValueError("serial length must be 3n")
        if self.route == "conjugate":
            if self.theta is None or self.basis_map is None:
                raise ValueError("conjugate records need theta and a basis map")
            if self.theta.n != self.spec.n:
                raise ValueError(f"theta has {self.theta.n} bits, not n={self.spec.n}")
            if self.basis_map.n != self.spec.n:
                raise ValueError(f"basis_map acts on {self.basis_map.n} bits, not n={self.spec.n}")
            if self.theta.weight != self.spec.n // 2:
                raise ValueError("theta must have weight n/2")
            selected = [self.basis_map.column(i) for i in self.theta.support()]
            if SubspaceBasis(self.spec.n, selected) != self.spec.code:
                raise ValueError("theta-selected basis columns do not span the code")

    @cached_property
    def frame(self) -> VerifierFrame:
        """The code's verifier frame, built on first use and kept."""
        return VerifierFrame.of(self.spec)


class VerifyOutcome:
    """Ver's sampled decision, exact acceptance probability, accepted branch and rejection reason.

    Unpacks as (accepted, accept_probability, post_state, reason).
    """

    def __init__(self, accepted: bool, accept_probability: float,
                 build: Callable[[], DenseState] | None = None, reason: str | None = None):
        self.accepted, self.accept_probability, self.reason = accepted, accept_probability, reason
        self._build = build

    @cached_property
    def post_state(self) -> DenseState | None:
        """The accepted branch, built on first read by VerifierFrame.apply's builder; None at 0."""
        return None if self._build is None else self._build()

    def __iter__(self):
        return iter((self.accepted, self.accept_probability, self.post_state, self.reason))


class DoubleVerifyOutcome(NamedTuple):
    accept_probability: float
    sampled: bool


class OracleSession:
    """The charged queries to one banknote's membership oracles.

    This is the only surface attack code may touch: membership queries, the
    verifier frame and coset tests, never the code itself.  Each use reads the
    record's one frame and is counted against one of ORACLE_NAMES; counters
    is a fresh dict, so reading it at any point gives a snapshot.
    """

    def __init__(self, registry: "OracleRegistry", serial: BitVec):
        self._record = registry.record_for_serial(serial)
        self.serial = serial
        self._counts = dict.fromkeys(ORACLE_NAMES, 0)

    def charge(self, name: str, count: int = 1) -> None:
        """Record count queries to the named oracle."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if name not in self._counts:
            raise ValueError(f"unknown oracle name {name!r}; known: {ORACLE_NAMES}")
        self._counts[name] += count

    @property
    def counters(self) -> dict[str, int]:
        return dict(self._counts)

    @property
    def combined_equivalent(self) -> int:
        """In combined-oracle queries: |E_q| per primal or dual query, one per coset test."""
        counts, spec = self._counts, self._record.spec
        factor = error_count(spec.n, spec.q)
        return factor * (counts["primal"] + counts["dual"]) + counts["coset"]

    def member(self, side: str, x: BitVec) -> bool:
        """Whether H x is an accepted syndrome on side, charged as one query once x is valid."""
        accepted = self.verifier_frame(passes=0).member(side, x)
        self.charge(side)
        return accepted

    def verifier_frame(self, passes: int = 1) -> VerifierFrame:
        """The record's coset frame, charged as passes queries to each side.

        Membership queries and coset tests read it with passes=0 and charge
        their own oracle; double_verify charges its passes once the kernel has
        run (see there).
        """
        frame = self._record.frame
        self.charge("primal", passes)
        self.charge("dual", passes)
        return frame


class OracleRegistry:
    """The bank: lazy keyed generation of mint records and their public oracles.

    A record, and its verifier frame once a session has used it, lives as long
    as the registry.  The frame holds a few integers per accepted coset and,
    once a kernel has read them, the code's 2^k codewords as int64: at n = 20,
    q = 1, 8 KB.
    """

    def __init__(self, n: int, q: int, master_seed: int, *, route: str = "direct"):
        if route not in ("direct", "conjugate"):
            raise ValueError(f"unknown route {route!r}")
        self.n = n
        self.q = q
        self.master_seed = int(master_seed)
        self.route = route
        self.records: dict[BitVec, MintRecord] = {}
        self.serial_index: dict[BitVec, BitVec] = {}

    @cached_property
    def _decision_rng(self) -> np.random.Generator:
        """Stream for sampled accept/reject decisions when callers pass no rng, built on first use."""
        return as_generator(derive_sequence(self.master_seed, 0xDEC1DE))

    # -- record generation ---------------------------------------------------

    def generate(self, r: BitVec, spec: CodeSpec | None = None) -> MintRecord:
        """The banknote generator: deterministic in (master_seed, r), cached.

        Serial distinctness is enforced actively: on a collision with an
        already-issued serial the whole derivation is redone with the next
        nonce.  A given spec replaces the code search, must have the registry's
        (n, q), must pass certification and, for a generated r, must be its code.
        """
        if spec is not None:
            self._check_parameters(spec)
        if r.n != self.n:
            raise ValueError(f"r must have length n={self.n}")
        record = self.records.get(r)
        if record is not None:
            if spec is not None and spec != record.spec:
                raise ValueError(f"r={r} was already generated with another code")
            return record
        for nonce in range(DEFAULT_SERIAL_RETRIES):
            seq = derive_sequence(self.master_seed, r.value, nonce)
            serial_seq, code_seq, basis_seq = seq.spawn(3)
            serial = random_bitvec(3 * self.n, as_generator(serial_seq))
            if serial in self.serial_index:
                continue
            code = spec or search_applicable_code(self.n, self.q, code_seq)
            theta = basis_map = None
            if self.route == "conjugate":
                theta, basis_map = _conjugate_parts(code, as_generator(basis_seq))
            record = MintRecord(r, serial, code, self.route, theta, basis_map)
            self.install_record(record, require_applicable=spec is not None)
            return record
        raise SerialCollisionError(
            f"could not find a fresh serial for r={r} in {DEFAULT_SERIAL_RETRIES} tries"
        )

    def install_record(self, record: MintRecord, *, require_applicable: bool = True) -> None:
        """Register an externally-built record (worked examples, bank key files).

        Raises ValueError for a code of other (n, q) than the registry's, for
        an r that holds another record, and one naming every failed
        ``certify`` check, unless require_applicable is False.
        """
        self._check_parameters(record.spec)
        if self.records.get(record.r, record) != record:
            raise ValueError(f"r={record.r} was already installed with another record")
        if require_applicable:
            report = certify(record.spec)
            if not report.passed:
                failed = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.passed)
                raise ValueError(f"record's code fails certification ({failed})")
        if record.serial in self.serial_index and self.serial_index[record.serial] != record.r:
            raise SerialCollisionError(f"serial {record.serial} already issued")
        self.records[record.r] = record
        self.serial_index[record.serial] = record.r

    def _check_parameters(self, spec: CodeSpec) -> None:
        if (spec.n, spec.q) != (self.n, self.q):
            raise ValueError(
                f"the code has (n, q) = ({spec.n}, {spec.q}), "
                f"but this registry mints (n, q) = ({self.n}, {self.q})"
            )

    # -- public oracles -------------------------------------------------------

    def serial_check(self, z: BitVec) -> bool:
        """The serial number checker: 1 iff z was issued for some record."""
        if z.n != 3 * self.n:
            raise ValueError(f"serial length must be 3n={3 * self.n}")
        return z in self.serial_index

    def record_for_serial(self, z: BitVec) -> MintRecord:
        r = self.serial_index.get(z)
        if r is None:
            raise UnknownSerialError(f"unknown serial {z}")
        return self.records[r]

    def session(self, serial: BitVec) -> OracleSession:
        return OracleSession(self, serial)

    def _session_for(self, serial: BitVec, session: OracleSession | None) -> OracleSession:
        """session when it holds this registry's record for serial, else a fresh session.

        A fresh session raises UnknownSerialError for a serial never issued;
        a session for another record is refused.
        """
        if session is None:
            return self.session(serial)
        if session._record != self.record_for_serial(serial):
            raise ValueError(f"a session for serial {session.serial} cannot check serial {serial}")
        return session


def _conjugate_parts(spec: CodeSpec, rng: np.random.Generator) -> tuple[BitVec, BasisMap]:
    """Draw theta (weight n/2) and a basis whose theta-columns span the code."""
    n, k = spec.n, spec.n // 2
    positions = sorted(int(p) for p in rng.choice(n, size=k, replace=False))
    theta = BitVec.from_support(n, positions)
    # A uniformly random basis of the code: an invertible combination of its
    # RREF rows.
    mix = Gf2Matrix(k, k, _independent_rows(k, k, rng))
    inside = list(mix @ spec.code.basis)
    # Complete with random outside columns until the whole matrix is invertible.
    while True:
        it_in, it_out = iter(inside), iter(_random_rows(n, n - k, rng))
        columns = [next(it_in) if theta.bit(i) else BitVec(n, next(it_out)) for i in range(n)]
        try:
            return theta, BasisMap.from_columns(columns)
        except ValueError:
            continue


# -- minting -------------------------------------------------------------------


def mint_direct(registry: OracleRegistry, r: BitVec) -> Banknote:
    """Mint by preparing the code's subspace state directly, refusing an over-budget n first."""
    reserve((1 << registry.n,))
    record = registry.generate(r)
    return Banknote(record.serial, subspace_state(record.spec.code))


def mint_conjugate(registry: OracleRegistry, r: BitVec) -> Banknote:
    """Mint by preparing conjugate coding qubits and permuting basis states.

    Qubit i is |0> where theta_i = 0 and H|0> where theta_i = 1; the
    record's basis map then permutes the computational basis, which lands
    exactly on the code's subspace state.  An over-budget n is refused
    before the record is generated.
    """
    reserve((1 << registry.n,))
    record = registry.generate(r)
    if record.route != "conjugate":
        raise ValueError("record was generated for the direct route")
    state = conjugate_coding_state(BitVec.zeros(record.spec.n), record.theta)
    return Banknote(record.serial, apply_basis_permutation(state, record.basis_map))


def mint_dump(registry: OracleRegistry, r: BitVec) -> tuple[MintRecord, str]:
    """The record for r and the dump_state text of its fresh note, with no 2^n vector.

    Either route mints the code's subspace state: its lines are the codewords,
    ascending, each at subspace_state's 1/sqrt(2^k) or at conjugate_coding_state's
    n/2 factors 1/sqrt(2), multiplied in turn, so the bytes are the dense note's.
    An over-budget n is refused before the record is generated.
    """
    reserve((1 << registry.n,))
    record = registry.generate(r)
    codewords = np.sort(record.spec.code.vector_values())
    if record.route == "direct":
        amplitudes = _coset_amplitudes(codewords, BitVec.zeros(registry.n))
    else:
        h = 1.0 / math.sqrt(2.0)
        amplitudes = np.full(codewords.size, math.prod([h] * record.theta.weight))
    return record, _dump_lines(registry.n, codewords, amplitudes)


def conjugate_coding_state(x: BitVec, theta: BitVec) -> DenseState:
    """The product state with qubit i in basis theta_i showing value x_i."""
    if x.n != theta.n:
        raise ValueError("x and theta lengths differ")
    reserve((1 << x.n,))
    amps = np.ones(1, dtype=np.complex128)
    h = 1.0 / math.sqrt(2.0)
    for i in range(x.n):
        if theta.bit(i):
            local = (h, -h if x.bit(i) else h)
        else:
            local = (0.0, 1.0) if x.bit(i) else (1.0, 0.0)
        # np.kron(amps, local) column by column, which needs no temporary beyond the result.
        grown = np.empty((amps.size, 2), dtype=np.complex128)
        for bit, factor in enumerate(local):
            np.multiply(amps, factor, out=grown[:, bit])
        amps = grown.reshape(-1)
    return DenseState._own(x.n, amps)


# -- corruption ------------------------------------------------------------------


def corrupt(note: Banknote, e: BitVec, e_prime: BitVec) -> Banknote:
    """Apply the Pauli noise X^e Z^e' to the note's state, any weights allowed (see _pauli)."""
    return Banknote(note.serial, _pauli(note.state, e, e_prime))


def _pauli(state, e: BitVec, e_prime: BitVec, sign: int = 1):
    """sign X^e Z^e' on a DenseState, or on a note file's lines as lines, with no 2^n vector."""
    if isinstance(state, DenseState):
        return apply_pauli(state, e, e_prime, sign)
    return pauli_lines(*state, e, e_prime, sign)


def random_corruption(n: int, weight: int, seed: Seed) -> tuple[BitVec, BitVec]:
    """Uniform bit-flip and phase-flip patterns of the given exact weight."""
    if not 0 <= weight <= n:
        raise ValueError("weight out of range")
    rng = as_generator(seed)
    e = BitVec.from_support(n, (int(i) for i in rng.choice(n, size=weight, replace=False)))
    ep = BitVec.from_support(n, (int(i) for i in rng.choice(n, size=weight, replace=False)))
    return e, ep


# -- verification -----------------------------------------------------------------


def verify(
    registry: OracleRegistry,
    note: Banknote,
    *,
    rng: Seed | None = None,
    session: OracleSession | None = None,
) -> VerifyOutcome:
    """Ver: reject unknown serials, then apply P in the record's frame, charged to the session.

    Only the note's |E_q| accepted bit-flip cosets are read, and each one it
    occupies goes through one 2^k-point Walsh filter (see
    VerifierFrame.apply); a note file's lines are read with no 2^n vector.
    The outcome carries both the exact acceptance probability and one
    sampled decision; the post-state, built on first read, is the accepted
    branch whenever it exists, regardless of how the sample came out.
    """
    if not registry.serial_check(note.serial):
        return VerifyOutcome(False, 0.0, None, reason="unknown serial")
    session = registry._session_for(note.serial, session)
    prob, build = session.verifier_frame().apply(note.state)
    return VerifyOutcome(_sample(registry, rng, prob), prob, build)


def _sample(registry: OracleRegistry, rng: Seed | None, prob: float) -> bool:
    gen = registry._decision_rng if rng is None else as_generator(rng)
    return bool(gen.random() < prob)


def double_verify(
    registry: OracleRegistry,
    serial: BitVec,
    joint: DenseState | tuple,
    *,
    rng: Seed | None = None,
    session: OracleSession | None = None,
) -> DoubleVerifyOutcome:
    """Ver2: verify two (possibly entangled) registers under one serial number.

    The acceptance probability is tr((P (x) P) rho) for the verifier's projector
    P = H M_dual H M_primal onto the tolerated span, computed by the record's
    frame (see VerifierFrame.pair_probability) and clipped to [0, 1].  The
    joint state is a 2n-qubit DenseState, or a pair (sigma1, sigma2) meaning
    sigma1 (x) sigma2 of n-qubit registers, each a DenseState or None for
    the maximally mixed register.  Only the kernel checks the joint state's
    size, so the two passes are charged once it has run: a refused joint
    state charges nothing.
    """
    session = registry._session_for(serial, session)
    prob = float(session.verifier_frame(passes=0).pair_probability(joint))
    session.verifier_frame(passes=2)  # charged once the kernel has run
    prob = min(max(prob, 0.0), 1.0)
    return DoubleVerifyOutcome(prob, _sample(registry, rng, prob))


# -- correction -------------------------------------------------------------------


def diagnose(
    registry: OracleRegistry,
    note: Banknote,
    *,
    session: OracleSession | None = None,
) -> tuple[BitVec, BitVec]:
    """Identify the Pauli error on a tolerated coset state by syndrome decoding.

    Both sides are read in the record's verifier frame (see VerifierFrame.weights),
    not charged as a primal or dual query; the session charges one coset
    query per error tested in lexicographic order.  The phase-flip weights
    cover only the accepted bit-flip cosets, so they differ from the note's
    full Hadamard-basis marginal by at most its weight outside them, below
    1e-9 once the bit-flip test has matched.  Raises UndecodableError when no
    coset holds all but 1e-9 of the probability.
    """
    session = registry._session_for(note.serial, session)
    frame = session.verifier_frame(passes=0)
    found = []
    for side, weights, flip in zip(SIDES, frame.weights(note.state), ("bit-flip", "phase-flip")):
        tests, error = frame.locate(side, weights)
        session.charge("coset", tests)
        if error is None:
            raise UndecodableError(f"state lies in no tolerated {flip} coset")
        found.append(error)
    return tuple(found)


def correct(
    registry: OracleRegistry,
    note: Banknote,
    *,
    session: OracleSession | None = None,
) -> Banknote:
    """Identify and invert the note's Pauli error, restoring the fresh codeword.

    The inverse of X^e Z^e' takes its commutation sign (see _pauli), so a
    signed coset state becomes the fresh subspace state exactly, not just up
    to phase: in one 2^n pass, or as lines for a note file's lines.
    """
    e, ep = diagnose(registry, note, session=session)
    return Banknote(note.serial, _pauli(note.state, e, ep, sign=-1 if e.dot(ep) else 1))


# -- file formats -----------------------------------------------------------------


def banknote_text(serial: BitVec, dump: str) -> str:
    """A note file's text from its serial and a dump_state text."""
    state = {"kind": "dense", "dump": dump}
    return _dumps_json({"format": BANKNOTE_FORMAT, "serial": str(serial), "state": state})


def save_banknote_dump(serial: BitVec, dump: str, path: str | Path) -> None:
    """Write a note file from its serial and a dump_state text (see codes._write_files)."""
    _write_files((path, banknote_text(serial, dump)))


def load_banknote(path: str | Path) -> Banknote:
    note = load_banknote_dump(path)
    return Banknote(note.serial, scatter_dump(*note.state))


def load_banknote_dump(path: str | Path) -> Banknote:
    """A note file as a Banknote of its serial and parse_dump's lines, its envelope checked.

    No 2^n vector is built: verify and diagnose score the lines in the
    verifier frame, and corrupt and correct rewrite them under a Pauli;
    load_banknote scatters them into the note.
    """
    data = json.loads(Path(path).read_text())
    fmt = _json_field(data, "format")
    if fmt != BANKNOTE_FORMAT:
        raise ValueError(f"unsupported banknote format: {fmt!r}")
    serial = BitVec.from_string(_json_field(data, "serial"))
    state = _json_field(data, "state", dict)
    kind = _json_field(state, "kind")
    if kind != "dense":
        raise ValueError(f"unknown state kind {kind!r}")
    return Banknote(serial, parse_dump(_json_field(state, "dump")))


def record_to_json_dict(record: MintRecord) -> dict:
    data = {
        "format": BANKKEY_FORMAT,
        "r": str(record.r),
        "serial": str(record.serial),
        "route": record.route,
        "spec": record.spec.to_json_dict(),
    }
    if record.route == "conjugate":
        data["theta"] = str(record.theta)
        data["basis_columns"] = [str(c) for c in record.basis_map.columns()]
    return data


def record_from_json_dict(data: dict) -> MintRecord:
    fmt = _json_field(data, "format")
    if fmt != BANKKEY_FORMAT:
        raise ValueError(f"unsupported bank key format: {fmt!r}")
    spec = CodeSpec.from_json_dict(_json_field(data, "spec", dict))
    route = _json_field(data, "route")
    theta = basis_map = None
    if route == "conjugate":
        theta = BitVec.from_string(_json_field(data, "theta"))
        columns = _json_field(data, "basis_columns", list)
        basis_map = BasisMap.from_columns([BitVec.from_string(c) for c in columns])
    return MintRecord(
        r=BitVec.from_string(_json_field(data, "r")),
        serial=BitVec.from_string(_json_field(data, "serial")),
        spec=spec,
        route=route,
        theta=theta,
        basis_map=basis_map,
    )


def record_text(record: MintRecord) -> str:
    """A bank key file's text."""
    return _dumps_json(record_to_json_dict(record))


def load_record(path: str | Path) -> MintRecord:
    return record_from_json_dict(json.loads(Path(path).read_text()))


def registry_for_record(record: MintRecord) -> OracleRegistry:
    """A verification-side registry reconstituted from one bank key file, master seed 0."""
    registry = OracleRegistry(record.spec.n, record.spec.q, 0, route=record.route)
    registry.install_record(record)
    return registry
