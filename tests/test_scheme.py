"""Tests for minting, the registry and its oracles, verification and correction."""

import gc
import itertools
import math
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subspace_money import oracles, scheme
from subspace_money.codes import CodeSpec, enumerate_errors, error_count, search_applicable_code
from subspace_money.errors import (
    SerialCollisionError,
    SyndromeCollisionError,
    UndecodableError,
    UnknownSerialError,
)
from subspace_money.experiments import ATTACK_KINDS, run_attack
from subspace_money.gf2 import BitVec, SubspaceBasis, random_bitvec
from subspace_money.oracles import VerifierFrame
from subspace_money.scheme import (
    Banknote,
    MintRecord,
    OracleRegistry,
    conjugate_coding_state,
    corrupt,
    correct,
    diagnose,
    double_verify,
    load_banknote,
    load_banknote_dump,
    load_record,
    mint_conjugate,
    mint_direct,
    random_corruption,
    record_text,
    registry_for_record,
    save_banknote_dump,
    verify,
)
from subspace_money.states import (
    DenseState,
    _dump_lines,
    apply_basis_permutation,
    apply_pauli,
    coset_state,
    dump_state,
    max_deviation,
    parse_dump,
    scatter_dump,
    subspace_state,
)

import reference
from conftest import WORKED_CODEWORDS, stdout_under_one_and_two_blas_threads
from reference import (
    ATOL_EXACT,
    SubsetTesters,
    all_rows_frame_weights,
    all_rows_kept_spectrum,
    apply_verifier,
    basis_state,
    conjugate_coset_parameters,
    eager_frame_pipeline,
    frame_index,
    full_space,
    hadamard_all,
    identity_matrix,
    map_subspace,
    masked_pipeline,
    masked_projection,
    masked_transform,
    predicate_frame,
    random_isometry,
    random_subspace,
    subset_predicate,
    syndrome_array,
    syndrome_predicate,
    tolerated_coset_states,
    tolerated_projector,
    uniform_state,
    verification_matrix,
)


def bv(s):
    return BitVec.from_string(s)


@pytest.fixture()
def registry():
    return OracleRegistry(6, 1, master_seed=2024)


@pytest.fixture()
def worked_registry(worked_spec):
    reg = OracleRegistry(6, 1, master_seed=7)
    record = reg.generate(BitVec.zeros(6))
    injected = MintRecord(record.r, record.serial, worked_spec, "direct")
    reg.records[record.r] = injected
    return reg, injected


# ---------------------------------------------------------------------------
# registry and records


def test_generate_is_deterministic_and_cached(registry):
    r = bv("101010")
    a = registry.generate(r)
    b = registry.generate(r)
    assert a is b
    other = OracleRegistry(6, 1, master_seed=2024)
    c = other.generate(r)
    assert c.serial == a.serial and c.spec.code == a.spec.code


def test_generate_refuses_another_spec_for_a_generated_r():
    reg = OracleRegistry(8, 1, master_seed=0)
    r = BitVec(8, 5)
    record = reg.generate(r)
    assert reg.generate(r, record.spec) is record
    other = search_applicable_code(8, 1, 99)
    assert other != record.spec
    with pytest.raises(ValueError, match="already generated with another code"):
        reg.generate(r, other)
    assert reg.records[r] is record


def test_distinct_r_distinct_serials(registry):
    rng = np.random.default_rng(1)
    serials = set()
    for _ in range(100):
        rec = registry.generate(random_bitvec(6, rng))
        assert registry.serial_check(rec.serial)
        serials.add(rec.serial)
    assert len(serials) == len(registry.records)


def test_serial_uniqueness_under_collision_pressure():
    # With q=0 every subspace qualifies, so records are cheap; at n=4 the
    # serial space has 2^12 = 4096 values and 600 records force birthday
    # collisions that the retry nonce must absorb.
    reg = OracleRegistry(4, 0, master_seed=99)
    for value in range(600):
        reg.generate(random_bitvec(4, value))
    serials = [rec.serial for rec in reg.records.values()]
    assert len(serials) == len(set(serials))


def test_serial_collision_on_every_nonce_raises(monkeypatch):
    # Every derivation draws the same serial, so a second r collides on all 64 nonces.
    serial = random_bitvec(18, 0)
    monkeypatch.setattr(scheme, "random_bitvec", lambda n, rng: serial)
    reg = OracleRegistry(6, 1, master_seed=5)
    first = reg.generate(bv("000001"))
    with pytest.raises(SerialCollisionError, match="in 64 tries"):
        reg.generate(bv("000010"))
    assert reg.records == {first.r: first}
    assert reg.record_for_serial(serial) is first


def test_serial_uniqueness_ten_thousand_records():
    # n must be at least 14 to have 10^4 distinct r values.
    reg = OracleRegistry(14, 0, master_seed=123)
    for value in range(10_000):
        reg.generate(BitVec(14, value))
    serials = {rec.serial for rec in reg.records.values()}
    assert len(serials) == 10_000


def test_serial_check(registry):
    rec = registry.generate(bv("000111"))
    assert registry.serial_check(rec.serial)
    assert not registry.serial_check(BitVec.zeros(18))
    with pytest.raises(ValueError):
        registry.serial_check(BitVec.zeros(6))
    with pytest.raises(UnknownSerialError):
        registry.record_for_serial(BitVec.zeros(18))


def test_install_record_rejects_uncertified(registry, worked_spec):
    from subspace_money.codes import CodeSpec

    bad_spec = CodeSpec.build(full_space(6), q=1)
    record = MintRecord(bv("000000"), BitVec.zeros(18), bad_spec, "direct")
    with pytest.raises(ValueError):
        registry.install_record(record)
    registry.install_record(record, require_applicable=False)
    assert registry.serial_check(BitVec.zeros(18))


def test_install_record_refuses_an_r_that_holds_another_record(worked_spec):
    # A second record at r would leave the first serial issued, pointing at the new record.
    reg = OracleRegistry(6, 1, master_seed=0)
    s1, s2 = BitVec(18, 1), BitVec(18, 2)
    first = MintRecord(BitVec.zeros(6), s1, search_applicable_code(6, 1, 0), "direct")
    reg.install_record(first)
    assert first.spec != worked_spec
    with pytest.raises(ValueError, match="r=000000 was already installed with another record"):
        reg.install_record(MintRecord(first.r, s2, worked_spec, "direct"))
    assert reg.serial_check(s1) and not reg.serial_check(s2)
    assert reg.record_for_serial(s1) is first
    # An equal record installs again.
    reg.install_record(MintRecord(first.r, s1, first.spec, "direct"))
    assert reg.record_for_serial(s1) == first


def test_registry_validates_route():
    with pytest.raises(ValueError):
        OracleRegistry(6, 1, master_seed=0, route="sideways")


def test_conjugate_record_invariant():
    reg = OracleRegistry(6, 1, master_seed=5, route="conjugate")
    rec = reg.generate(bv("110011"))
    assert rec.theta.weight == 3
    selected = [rec.basis_map.column(i) for i in rec.theta.support()]
    assert SubspaceBasis(6, selected) == rec.spec.code


def test_record_json_round_trip(tmp_path):
    reg = OracleRegistry(6, 1, master_seed=5, route="conjugate")
    rec = reg.generate(bv("010101"))
    path = tmp_path / "bank.json"
    path.write_text(record_text(rec))
    loaded = load_record(path)
    assert loaded == rec
    assert record_text(loaded) == path.read_text()


def test_mint_record_validates_theta_weight(worked_spec):
    from subspace_money.gf2 import BasisMap

    with pytest.raises(ValueError):
        MintRecord(
            bv("000000"),
            BitVec.zeros(18),
            worked_spec,
            "conjugate",
            theta=bv("111111"),  # weight n, not n/2
            basis_map=BasisMap(identity_matrix(6)),
        )


def test_record_refuses_theta_and_basis_map_of_the_wrong_length():
    from subspace_money.scheme import record_from_json_dict, record_to_json_dict

    reg = OracleRegistry(6, 1, master_seed=5, route="conjugate")
    data = record_to_json_dict(reg.generate(bv("010101")))
    assert record_from_json_dict(data) == reg.generate(bv("010101"))
    with pytest.raises(ValueError, match="theta has 7 bits, not n=6"):
        record_from_json_dict({**data, "theta": data["theta"] + "0"})
    # Each column grown by a zero, plus a seventh unit column: an invertible 7 x 7 map.
    columns = [c + "0" for c in data["basis_columns"]] + ["0000001"]
    with pytest.raises(ValueError, match="basis_map acts on 7 bits, not n=6"):
        record_from_json_dict({**data, "basis_columns": columns})


def test_tester_oracle_surface(registry):
    rec = registry.generate(bv("011000"))
    member = next(iter(rec.spec.code.basis))
    tester = SubsetTesters(registry)
    assert tester("primal", rec.serial, member)
    # An invalid serial makes the tester do nothing: the predicate reads False.
    assert not tester("primal", BitVec.zeros(18), member)
    with pytest.raises(ValueError):
        tester("sideways", rec.serial, member)


def test_tester_builds_one_syndrome_table_per_side(registry, monkeypatch):
    rec = registry.generate(bv("011000"))
    predicates = {side: subset_predicate(rec.spec, side) for side in oracles.SIDES}
    built = []
    real = reference.build_syndrome_table

    def counting(parity, q):
        built.append(parity)
        return real(parity, q)

    monkeypatch.setattr(reference, "build_syndrome_table", counting)
    rng = np.random.default_rng(170)
    tester = SubsetTesters(registry)
    for i in range(100):
        side = oracles.SIDES[i % 2]
        x = random_bitvec(6, rng)
        assert tester(side, rec.serial, x) == predicates[side](x)
    sides = (rec.spec.parity_primal, rec.spec.parity_dual)
    assert sorted(h.row_values for h in built) == sorted(h.row_values for h in sides)


# ---------------------------------------------------------------------------
# minting


def test_mint_direct_worked_code(worked_registry):
    reg, record = worked_registry
    note = mint_direct(reg, record.r)
    assert note.serial == record.serial
    support = {str(b) for b in note.state.support()}
    assert support == set(WORKED_CODEWORDS)


def test_mint_direct_deterministic(registry):
    a = mint_direct(registry, bv("111000"))
    b = mint_direct(registry, bv("111000"))
    assert a.serial == b.serial
    assert max_deviation(a.state, b.state) == 0


def test_conjugate_coding_state_matches_tensor_construction():
    x, theta = bv("10"), bv("01")
    st = conjugate_coding_state(x, theta)
    # Qubit 1 is |1>, qubit 2 is H|0> = |+>.
    expected = np.zeros(4, dtype=np.complex128)
    expected[2] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(st.amplitudes, expected, atol=1e-15)


@pytest.mark.parametrize("n, q", [(6, 0), (6, 2), (8, 1)])
def test_registry_refuses_a_code_of_other_parameters(worked_spec, n, q):
    # Neither a given spec nor an installed record may change the registry's (n, q).
    reg = OracleRegistry(n, q, master_seed=3)
    want = re.escape(f"the code has (n, q) = (6, 1), but this registry mints (n, q) = ({n}, {q})")
    with pytest.raises(ValueError, match=want):
        reg.generate(BitVec.zeros(n), worked_spec)
    record = MintRecord(BitVec.zeros(6), BitVec.zeros(18), worked_spec, "direct")
    with pytest.raises(ValueError, match=want):
        reg.install_record(record)
    assert reg.records == {} and reg.serial_index == {}


def test_mint_conjugate_x_zero_equals_direct():
    reg = OracleRegistry(6, 1, master_seed=31, route="conjugate")
    r = bv("011010")
    direct = mint_direct(reg, r)
    conjugate = mint_conjugate(reg, r)
    assert max_deviation(direct.state, conjugate.state) < ATOL_EXACT


def test_mint_conjugate_general_x_is_coset_state():
    reg = OracleRegistry(6, 1, master_seed=13, route="conjugate")
    r = bv("001100")
    record = reg.generate(r)
    rng = np.random.default_rng(40)
    for _ in range(10):
        x = random_bitvec(6, rng)
        state = apply_basis_permutation(conjugate_coding_state(x, record.theta), record.basis_map)
        t, t_prime = conjugate_coset_parameters(record.basis_map, record.theta, x)
        expected = coset_state(record.spec.code, t, t_prime)
        assert max_deviation(state, expected) < ATOL_EXACT


def test_mint_conjugate_requires_conjugate_route(registry):
    with pytest.raises(ValueError):
        mint_conjugate(registry, bv("000000"))


# ---------------------------------------------------------------------------
# verification


def test_fresh_note_verifies_with_probability_one(registry):
    note = mint_direct(registry, bv("100100"))
    outcome = verify(registry, note, rng=1)
    assert outcome.accept_probability == pytest.approx(1.0, abs=1e-9)
    assert outcome.accepted
    assert outcome.reason is None
    assert max_deviation(outcome.post_state, note.state) < 1e-9


def test_unknown_serial_rejected(registry):
    note = Banknote(BitVec.zeros(18), basis_state(6, 0))
    outcome = verify(registry, note)
    assert not outcome.accepted
    assert outcome.accept_probability == 0.0
    assert outcome.reason == "unknown serial"


def test_tolerated_corruptions_verify_perfectly(worked_registry):
    reg, record = worked_registry
    note = mint_direct(reg, record.r)
    for e in enumerate_errors(6, 1):
        for ep in enumerate_errors(6, 1):
            bad = corrupt(note, e, ep)
            outcome = verify(reg, bad, rng=0)
            assert outcome.accept_probability == pytest.approx(1.0, abs=1e-9)
            assert max_deviation(outcome.post_state, bad.state) < 1e-9


def test_undecodable_corruption_rejected(worked_registry):
    reg, record = worked_registry
    note = corrupt(mint_direct(reg, record.r), bv("000111"), BitVec.zeros(6))
    outcome = verify(reg, note, rng=0)
    assert outcome.accept_probability == 0.0
    assert not outcome.accepted
    assert outcome.post_state is None


def test_verify_probability_matches_span_overlap(worked_registry, worked_spec):
    # The pipeline probability equals the summed squared overlaps with the
    # 49 tolerated coset states.
    reg, record = worked_registry
    basis = tolerated_coset_states(worked_spec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi = DenseState(6, amps / np.linalg.norm(amps))
        outcome = verify(reg, Banknote(record.serial, psi), rng=0)
        direct = sum(abs(np.vdot(b.amplitudes, psi.amplitudes)) ** 2 for b in basis)
        assert outcome.accept_probability == pytest.approx(direct, abs=1e-9)


def test_verify_maximally_mixed(worked_registry):
    # Ver's probability of the maximally mixed register is tr(P) / 2^n, a
    # closed form of the record's frame: no register is built, in Ver or Ver2.
    reg, record = worked_registry
    frame = reg.session(record.serial).verifier_frame()
    assert frame.mixed_probability() == 49 / 64
    outcome = double_verify(reg, record.serial, (None, None), rng=0)
    assert outcome.accept_probability == (49 / 64) ** 2


def test_verify_charges_ledger(worked_registry):
    reg, record = worked_registry
    session = reg.session(record.serial)
    note = mint_direct(reg, record.r)
    verify(reg, note, session=session, rng=0)
    assert session.counters["primal"] == 1
    assert session.counters["dual"] == 1
    assert session.combined_equivalent == 14


def _double_verify_note(reg, note, session):
    return double_verify(reg, note.serial, (note.state, note.state), rng=0, session=session)


@pytest.mark.parametrize(
    "check",
    [partial(verify, rng=0), _double_verify_note, diagnose],
    ids=["verify", "double_verify", "diagnose"],
)
def test_a_session_for_another_note_is_refused(check):
    # Scored against note 1's code, fresh note 2 would verify at 0.39, pass Ver2 at
    # 0.15 and lie in no tolerated coset.
    reg = OracleRegistry(8, 1, master_seed=5)
    one, two = (mint_direct(reg, BitVec(8, r)) for r in (1, 2))
    foreign = reg.session(one.serial)
    message = f"a session for serial {one.serial} cannot check serial {two.serial}"
    with pytest.raises(ValueError, match=message):
        check(reg, two, session=foreign)
    assert foreign.counters == {"primal": 0, "dual": 0, "coset": 0}
    check(reg, two, session=reg.session(two.serial))


def test_verifier_charges_per_pass(registry):
    note = mint_direct(registry, BitVec.zeros(6))
    session = registry.session(note.serial)
    double_verify(registry, note.serial, (note.state, note.state), rng=0, session=session)
    assert session.counters == {"primal": 2, "dual": 2, "coset": 0}
    assert session.combined_equivalent == 28

    session = registry.session(note.serial)
    verify(registry, note, session=session, rng=0)
    assert session.counters == {"primal": 1, "dual": 1, "coset": 0}
    session.verifier_frame()
    assert session.counters["primal"] == session.counters["dual"] == 2
    frame = session.verifier_frame(passes=2)
    assert session.counters["primal"] == session.counters["dual"] == 4
    assert session.combined_equivalent == 7 * 8
    assert (frame.rows.size, frame.size) == (7, 8) and frame.keep.shape == (7,)


def test_a_refused_joint_state_charges_nothing(registry):
    # Only the kernel checks a joint state's size, and Ver2 charges its passes after it.
    note = mint_direct(registry, BitVec.zeros(6))
    session = registry.session(note.serial)
    with pytest.raises(ValueError, match="joint state must act on 2n=12 qubits"):
        double_verify(registry, note.serial, uniform_state(10), rng=0, session=session)
    with pytest.raises(ValueError, match="register must act on n=6 qubits"):
        double_verify(registry, note.serial, (uniform_state(5), None), rng=0, session=session)
    assert session.counters == {"primal": 0, "dual": 0, "coset": 0}


def test_each_record_builds_one_verifier_frame(monkeypatch, registry):
    build = VerifierFrame.of
    calls = []

    def counted(cls, spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(VerifierFrame, "of", classmethod(counted))
    notes = [mint_direct(registry, BitVec(6, r)) for r in (0, 1)]
    for note in notes:
        verify(registry, note, rng=0)
        assert diagnose(registry, note) == (BitVec.zeros(6), BitVec.zeros(6))
        double_verify(registry, note.serial, (note.state, note.state), rng=0)
        verify(registry, note, rng=0, session=registry.session(note.serial))
        session = registry.session(note.serial)
        assert session.member("primal", BitVec.zeros(6))
        assert session.counters == {"primal": 1, "dual": 0, "coset": 0}
    assert calls == [registry.record_for_serial(note.serial).spec for note in notes]


def test_verify_coset_label_banknote(worked_registry, worked_spec):
    reg, record = worked_registry
    state = coset_state(worked_spec.code, bv("010000"), bv("000010"))
    outcome = verify(reg, Banknote(record.serial, state), rng=0)
    assert outcome.accept_probability == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("qubits", [8, 4])
@pytest.mark.parametrize("check", [verify, diagnose, correct])
def test_wrongly_sized_notes_are_refused(worked_registry, check, qubits):
    # Banknote refuses the state when it is built, so no entry point can be handed it.
    reg, record = worked_registry
    needs = f"acts on {qubits} qubits, so its serial needs 3n={3 * qubits} bits, not 18"
    with pytest.raises(ValueError, match=needs):
        check(reg, Banknote(record.serial, uniform_state(qubits)))


@pytest.mark.parametrize("bits", [17, 19, 20])
def test_a_note_serial_must_have_3n_bits(worked_spec, bits):
    # 19 and 20 bits floor to n = 6, as 18 does; the error names both lengths.
    needs = f"acts on 6 qubits, so its serial needs 3n=18 bits, not {bits}"
    with pytest.raises(ValueError, match=needs):
        Banknote(BitVec.zeros(bits), subspace_state(worked_spec.code))


def test_coset_label_note_needs_a_code_of_the_serial_size(worked_registry):
    _, record = worked_registry
    small = search_applicable_code(4, 0, 1)
    with pytest.raises(ValueError, match="acts on 4 qubits"):
        Banknote(record.serial, coset_state(small.code, BitVec.zeros(4), BitVec.zeros(4)))


def test_verification_matrix_is_tolerated_projector(worked_spec):
    v = verification_matrix(worked_spec)
    proj = tolerated_projector(worked_spec)
    assert np.abs(v - proj).max() < 1e-10
    assert np.abs(v @ v - v).max() < 1e-10
    assert np.abs(v - v.conj().T).max() < 1e-10
    rank = int((np.linalg.eigvalsh(v) > 0.5).sum())
    assert rank == 49


def test_locate_refuses_unknown_side(worked_registry):
    reg, record = worked_registry
    session = reg.session(record.serial)
    with pytest.raises(ValueError, match="side must be one of"):
        session.verifier_frame(passes=0).locate("bogus", np.ones(8))
    assert session.counters == {"primal": 0, "dual": 0, "coset": 0}


@pytest.mark.parametrize("side", ["coset", "combined", "bogus"])
def test_member_refuses_unknown_side(worked_registry, side):
    # Names that are not sides (the coset oracle, the combined oracle no session
    # counts, nonsense) are refused before anything is charged.
    reg, record = worked_registry
    session = reg.session(record.serial)
    with pytest.raises(ValueError, match="side must be one of"):
        session.member(side, BitVec.zeros(6))
    assert session.counters == {"primal": 0, "dual": 0, "coset": 0}
    # So is a string of the wrong length, on either side.
    for known in ("primal", "dual"):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 6"):
            session.member(known, BitVec.zeros(4))
    assert session.counters == {"primal": 0, "dual": 0, "coset": 0}


# ---------------------------------------------------------------------------
# double verification


def test_double_verify_product_of_tolerated_states(worked_registry, worked_spec):
    reg, record = worked_registry
    one = coset_state(worked_spec.code, bv("100000"), bv("000001"))
    two = coset_state(worked_spec.code, bv("000000"), bv("010000"))
    prob, _ = double_verify(reg, record.serial, (one, two), rng=0)
    assert prob == pytest.approx(1.0, abs=1e-9)


def test_double_verify_mixed_second_register(worked_registry, worked_spec):
    reg, record = worked_registry
    fresh = subspace_state(worked_spec.code)
    # None is the maximally mixed register, scored in closed form and never built.
    prob, _ = double_verify(reg, record.serial, (fresh, None), rng=0)
    assert prob == 49 / 64


def test_double_verify_classical_copy(worked_registry, worked_spec):
    reg, record = worked_registry
    for w in WORKED_CODEWORDS:
        v = basis_state(6, bv(w))
        prob, _ = double_verify(reg, record.serial, (v, v), rng=0)
        assert prob == pytest.approx((7 / 8) ** 2, abs=1e-9)


def test_double_verify_entangled_dense_state(worked_registry, worked_spec):
    # |C>|C> as a genuine 12-qubit vector.
    reg, record = worked_registry
    fresh = subspace_state(worked_spec.code).amplitudes
    joint = DenseState(12, np.kron(fresh, fresh))
    prob, sampled = double_verify(reg, record.serial, joint, rng=0)
    assert prob == pytest.approx(1.0, abs=1e-9)
    assert sampled


def test_double_verify_unknown_serial(registry):
    with pytest.raises(UnknownSerialError):
        double_verify(registry, BitVec.zeros(18), (basis_state(6, 0),) * 2)


def test_double_verify_product_paths_agree(worked_registry):
    # A product state fed as a pair and as an explicit 12-qubit vector must
    # give the same probability.
    reg, record = worked_registry
    rng = np.random.default_rng(61)
    for _ in range(5):
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        s1 = DenseState(6, a / np.linalg.norm(a))
        s2 = DenseState(6, b / np.linalg.norm(b))
        p_pair, _ = double_verify(reg, record.serial, (s1, s2), rng=0)
        joint = DenseState(12, np.kron(s1.amplitudes, s2.amplitudes))
        p_joint, _ = double_verify(reg, record.serial, joint, rng=0)
        assert p_pair == pytest.approx(p_joint, abs=1e-12)


def test_register_probability_block_matches_states(worked_registry):
    # A block of unnormalised real and imaginary parts gives each register's
    # tr(P sigma), as the normalised DenseState does.
    reg, record = worked_registry
    frame = reg.session(record.serial).verifier_frame()
    rng = np.random.default_rng(62)
    parts = rng.standard_normal((5, 2, 64))
    block = frame.block_probabilities(parts)
    assert block.shape == (5,)
    for (a, b), p in zip(parts, block):
        amps = a + 1j * b
        want = frame.apply(DenseState(6, amps / np.linalg.norm(amps)))[0]
        assert p == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="64 amplitudes"):
        frame.block_probabilities(parts[..., :32])
    with pytest.raises(ValueError, match="finite nonzero"):
        frame.block_probabilities(np.zeros((1, 2, 64)))
    # A register of another n is refused by Ver and by Ver2, alone or in a pair.
    for bad in (basis_state(4, 0), basis_state(7, 0)):
        with pytest.raises(ValueError, match="n=6"):
            frame.apply(bad)
        with pytest.raises(ValueError, match="n=6"):
            double_verify(reg, record.serial, (None, bad), rng=0)


def _random_pure(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return DenseState(n, amps / np.linalg.norm(amps))


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([6, 8]), seed=st.integers(0, 2**32 - 1))
def test_double_verify_matches_projector_reference(n, seed):
    reg = OracleRegistry(n, 1, master_seed=seed)
    record = reg.generate(BitVec.zeros(n))
    proj = tolerated_projector(record.spec)
    rng = np.random.default_rng(seed)

    def expect(state):
        return np.vdot(state.amplitudes, proj @ state.amplitudes).real

    one, two = _random_pure(rng, n), _random_pure(rng, n)
    prob, _ = double_verify(reg, record.serial, (one, two), rng=0)
    assert abs(prob - expect(one) * expect(two)) < 1e-10

    # The maximally mixed second register scores tr(P) / 2^n.
    prob, _ = double_verify(reg, record.serial, (one, None), rng=0)
    assert abs(prob - expect(one) * np.trace(proj).real / (1 << n)) < 1e-10

    joint = _random_pure(rng, 2 * n)
    grid = joint.amplitudes.reshape(1 << n, 1 << n)
    expected = np.vdot(grid, proj @ grid @ proj.T).real
    prob, _ = double_verify(reg, record.serial, joint, rng=0)
    assert abs(prob - expected) < 1e-10


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([6, 8]), seed=st.integers(0, 2**32 - 1))
def test_verify_matches_projector_reference(n, seed):
    reg = OracleRegistry(n, 1, master_seed=seed)
    record = reg.generate(BitVec.zeros(n))
    proj = tolerated_projector(record.spec)
    rng = np.random.default_rng(seed)

    psi = _random_pure(rng, n).amplitudes
    image = proj @ psi
    outcome = verify(reg, Banknote(record.serial, DenseState(n, psi)), rng=0)
    assert abs(outcome.accept_probability - np.vdot(psi, image).real) < 1e-10
    assert np.abs(outcome.post_state.amplitudes - image / np.linalg.norm(image)).max() < 1e-10


def test_double_verify_n16_stays_within_state_budget():
    reg = OracleRegistry(16, 1, master_seed=1616)
    note = mint_direct(reg, BitVec.zeros(16))
    tracemalloc.start()
    try:
        prob, _ = double_verify(reg, note.serial, (note.state, note.state), rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prob == pytest.approx(1.0, abs=1e-9)
    assert peak < 16 * 2**20


def _held_bytes(call, calls=500):
    """Traced bytes still held after calls repetitions, from emptied free lists.

    A full collection empties the interpreter's free lists, and gc stays off
    so that none empties them midway.  What a call strands in them then shows
    as held bytes until they fill: np.moveaxis's wrapper strands a 48-byte
    tuple per call, np.clip's a keyword dict.
    """
    call()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()


def test_repeated_double_verify_holds_no_memory(worked_registry, worked_spec):
    reg, record = worked_registry
    fresh = subspace_state(worked_spec.code).amplitudes
    joint = DenseState(12, np.kron(fresh, fresh))
    session = reg.session(record.serial)
    verify_twice = partial(double_verify, reg, record.serial, joint, rng=0, session=session)
    assert _held_bytes(verify_twice) < 16 << 10


def _predicate_pairs(spec):
    """(route, primal, dual) for the syndrome route, and for the subset route where it builds."""
    pairs = [("syndrome", syndrome_predicate(spec, "primal"), syndrome_predicate(spec, "dual"))]
    try:
        pairs.append(("subset", subset_predicate(spec, "primal"), subset_predicate(spec, "dual")))
    except SyndromeCollisionError:
        pass  # two tolerated errors share a syndrome: the code is not applicable for q
    return pairs


def _block_reference(parts, primal, dual):
    """Each register's tr(P sigma) from its unnormalised real and imaginary parts."""
    out = masked_transform(parts, primal, dual)
    weight = (out**2).sum(axis=(-2, -1)) / parts.shape[-1]
    return weight / (parts**2).sum(axis=(-2, -1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_coset_frame_kernel_matches_masked_reference(n, data):
    # Random codes of any dimension and tolerance, applicable or not, against
    # the four-stage pipeline on 2^n masks.
    k = data.draw(st.integers(1, n - 1), label="k")
    q = data.draw(st.sampled_from([0, 1, 2]), label="q")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    spec = CodeSpec.build(random_subspace(n, k, seed), q)
    rng = np.random.default_rng(seed)
    dim = 1 << n
    for route, primal, dual in _predicate_pairs(spec):
        frame = predicate_frame(primal, dual)
        assert (frame.rows.size, frame.size) == (len(primal.accepted), 1 << k)
        assert len(frame.keep) == len(dual.accepted)
        inside = np.flatnonzero(primal.support_mask())
        assert np.array_equal(np.sort(frame_index(frame), axis=None), inside)

        states = [_random_pure(rng, n), basis_state(n, int(rng.integers(dim)))]
        for state in states:
            prob, post = apply_verifier(state, primal, dual)
            ref_prob, ref_post = masked_pipeline(state, primal, dual)
            assert abs(prob - ref_prob) < 1e-12, route
            assert (post is None) == (ref_post is None)
            if post is not None:
                assert np.abs(post.amplitudes - ref_post.amplitudes).max() < 1e-10
            assert abs(frame.apply(state)[0] - ref_prob) < 1e-12

        parts = rng.standard_normal((3, 2, 2, dim))
        pairs = frame.block_probabilities(parts)
        assert pairs.shape == (3, 2)
        assert np.abs(pairs - _block_reference(parts, primal, dual)).max() < 1e-12
        real = frame.block_probabilities(parts[:, 0, :1])
        assert np.abs(real - _block_reference(parts[:, 0, :1], primal, dual)).max() < 1e-12

        # Ver2 on joint states, through a registry holding this code.
        reg = OracleRegistry(n, q, master_seed=seed)
        record = MintRecord(BitVec.zeros(n), random_bitvec(3 * n, rng), spec, "direct")
        reg.install_record(record, require_applicable=False)
        session = reg.session(record.serial)
        joint = _random_pure(rng, 2 * n)
        grid = joint.amplitudes.reshape(dim, dim)
        image = masked_projection(masked_projection(grid, primal, dual).T, primal, dual).T
        prob, _ = double_verify(reg, record.serial, joint, rng=0, session=session)
        assert abs(prob - np.vdot(grid, image).real) < 1e-12
        prob, _ = double_verify(reg, record.serial, (states[0], states[1]), rng=0, session=session)
        assert abs(prob - masked_pipeline(states[0], primal, dual)[0]
                   * masked_pipeline(states[1], primal, dual)[0]) < 1e-12
        # The maximally mixed register's tr(P) / 2^n, against the masked pipeline's P.
        trace = np.trace(masked_projection(np.eye(dim), primal, dual))
        prob, _ = double_verify(reg, record.serial, (states[0], None), rng=0, session=session)
        assert abs(prob - masked_pipeline(states[0], primal, dual)[0] * trace / dim) < 1e-12
        assert session.counters["primal"] == session.counters["dual"] == 2 * 3


def test_verifier_reads_no_mask_or_syndrome_array(monkeypatch, registry):
    def refuse(*args):
        raise AssertionError("the verifier read a 2^n array of a predicate")

    note = mint_direct(registry, BitVec.zeros(6))
    monkeypatch.setattr(reference.MembershipPredicate, "support_mask", refuse)
    monkeypatch.setattr(reference, "syndrome_array", refuse)
    assert verify(registry, note, rng=0).accept_probability == 1.0
    bad = corrupt(note, bv("110000"), BitVec.zeros(6))
    assert verify(registry, bad, rng=0).accept_probability <= 1.0
    e, ep = bv("010000"), bv("000100")
    pure = corrupt(note, e, ep)
    assert diagnose(registry, pure) == (e, ep)
    assert max_deviation(correct(registry, pure).state, note.state) < ATOL_EXACT
    prob, _ = double_verify(registry, note.serial, (note.state, None), rng=0)
    assert prob == pytest.approx(49 / 64, abs=1e-12)
    joint = DenseState(12, np.kron(note.state.amplitudes, note.state.amplitudes))
    prob, _ = double_verify(registry, note.serial, joint, rng=0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    for kind in ATTACK_KINDS:
        run_attack(registry, kind, 20, seed=1)


def test_diagnose_n18_allocates_no_dense_array():
    # Both sides are read on the accepted cosets, so diagnose allocates
    # nothing of the note's size: no 2^n probabilities and no 2^n transform.
    reg = OracleRegistry(18, 1, master_seed=1818)
    errors = enumerate_errors(18, 1)
    note = corrupt(mint_direct(reg, BitVec.zeros(18)), errors[-1], errors[-1])
    tracemalloc.start()
    try:
        found = diagnose(reg, note)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == (errors[-1], errors[-1])
    assert peak < note.state.amplitudes.nbytes / 4


def test_verify_n18_allocates_only_the_post_state():
    reg = OracleRegistry(18, 1, master_seed=1818)
    note = mint_direct(reg, BitVec.zeros(18))
    tracemalloc.start()
    try:
        outcome = verify(reg, note, rng=0)
        post = outcome.post_state
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.accept_probability == 1.0
    assert max_deviation(post, note.state) < 1e-9
    assert peak < 1.5 * note.state.amplitudes.nbytes


# Verifies tolerated n = 20 notes: the probability's float.hex and the post-state's sha256 per note.
_VERIFY_TOLERATED_N20 = """
import hashlib
from subspace_money.gf2 import BitVec
from subspace_money.scheme import OracleRegistry, corrupt, mint_direct, verify
reg = OracleRegistry(20, 1, master_seed=20)
note = mint_direct(reg, BitVec.zeros(20))
for e, ep in [(0, 0), (1 << 19, 0), (0, 1), (1 << 3, 1 << 3)]:
    outcome = verify(reg, corrupt(note, BitVec(20, e), BitVec(20, ep)), rng=0)
    post = hashlib.sha256(outcome.post_state.amplitudes.tobytes()).hexdigest()
    print(outcome.accept_probability.hex(), post)
"""


def test_tolerated_n20_verify_bits_do_not_depend_on_the_blas_thread_count():
    # A tolerated note occupies one accepted coset, 2^10 amplitudes at n = 20:
    # one dot, below the 10,000 entries above which OpenBLAS splits a complex
    # dot across threads.  Notes on several cosets are scored in the next test.
    runs = stdout_under_one_and_two_blas_threads(_VERIFY_TOLERATED_N20)
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0].splitlines()] == [(1.0).hex()] * 4


# Scores saved n = 20 notes of the registry below, one .npy file each: the
# probability's float.hex, the post-state's sha256 and the sha256 of weights' bytes.
_SCORE_SAVED_N20 = """
import hashlib, sys
import numpy as np
from subspace_money.gf2 import BitVec
from subspace_money.scheme import Banknote, OracleRegistry, mint_direct, verify
from subspace_money.states import DenseState
reg = OracleRegistry(20, 1, master_seed=20)
serial = mint_direct(reg, BitVec.zeros(20)).serial
frame = reg.session(serial).verifier_frame(passes=0)
for path in sys.argv[1:]:
    state = DenseState(20, np.load(path))
    outcome = verify(reg, Banknote(serial, state), rng=0)
    post = hashlib.sha256(outcome.post_state.amplitudes.tobytes()).hexdigest()
    weights = hashlib.sha256(b"".join(w.tobytes() for w in frame.weights(state))).hexdigest()
    print(outcome.accept_probability.hex(), post, weights)
"""


def test_multi_coset_n20_verify_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Notes on 2, 3 and 5 accepted cosets with unequal complex weights, the last
    # with a weight-2 phase flip on one coset, so it scores strictly between 0
    # and 1, and a Haar-random note on all 21 cosets, 21,504 entries.  Each is
    # written once, so every child scores the same bits.
    reg = OracleRegistry(20, 1, master_seed=20)
    note = mint_direct(reg, BitVec.zeros(20))
    zero = BitVec.zeros(20)
    flip = [BitVec(20, 1 << j) for j in (19, 12, 7, 3, 0)]
    superpositions = [
        [(1.0, zero, flip[2]), (0.5j, flip[0], zero)],
        [(0.3 + 0.4j, flip[1], flip[1]), (-1.2, flip[3], flip[0]), (0.7j, flip[4], flip[4])],
        [
            (1.0, zero, flip[4]),
            (-0.6j, flip[0], BitVec(20, 0b11 << 9)),
            (0.45 + 0.2j, flip[1], flip[2]),
            (-0.3, flip[2], flip[1]),
            (0.25j, flip[3], zero),
        ],
    ]
    paths = []
    for terms in superpositions:
        # The terms lie in distinct cosets, each a unit vector, so the norm is
        # that of the weights.
        scale = math.sqrt(sum(abs(weight) ** 2 for weight, _, _ in terms))
        amps = sum(w / scale * corrupt(note, e, ep).state.amplitudes for w, e, ep in terms)
        paths.append(tmp_path / f"cosets{len(terms)}.npy")
        np.save(paths[-1], amps)
    rng = np.random.default_rng(20)
    haar = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
    paths.append(tmp_path / "haar.npy")
    np.save(paths[-1], haar / np.linalg.norm(haar))
    del amps, haar

    runs = stdout_under_one_and_two_blas_threads(_SCORE_SAVED_N20, *paths)
    assert runs[0] == runs[1]
    probabilities = [float.fromhex(line.split()[0]) for line in runs[0].splitlines()]
    assert len(probabilities) == 4 and 0.0 < probabilities[2] < 1.0 - 1e-3


def test_verify_n18_builds_no_dense_array_until_the_post_state_is_read():
    # The probability needs only the accepted cosets' spectrum, |S_p| 2^k
    # numbers; the 2^n post-state is not built when nothing reads it.
    reg = OracleRegistry(18, 1, master_seed=1818)
    note = mint_direct(reg, BitVec.zeros(18))
    tracemalloc.start()
    try:
        outcome = verify(reg, note, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.accept_probability == 1.0
    assert peak < note.state.amplitudes.nbytes / 4


@pytest.fixture(scope="module")
def tolerated_n20():
    """A tolerated X^e Z^e' note at n = 20, q = 1, its session and its built frame."""
    reg = OracleRegistry(20, 1, master_seed=2020)
    errors = enumerate_errors(20, 1)
    note = corrupt(mint_direct(reg, BitVec.zeros(20)), errors[3], errors[5])
    session = reg.session(note.serial)
    return reg, note, session, session.verifier_frame(passes=0)


# Each pure-note kernel gathers the accepted cosets a few rows at a time and
# keeps only those the note occupies: one row for this note, beside one gather
# chunk of two rows' strings and amplitudes, 48 KB.  The bound is its tracemalloc peak beyond the note, in
# units of the (|S_p|, 2^k) = 21 x 1024 complex block of every accepted coset,
# 344 KB at n = 20, q = 1; diagnose sums its phase-flip energies row by row into
# one 2^k array.  A kernel that holds the whole block reads at least one block
# (verify and register_probability 1.15), so each bound fails it.
KERNEL_PEAKS = [
    ("verify", lambda reg, note, session, frame: verify(reg, note, session=session, rng=0), 0.4),
    ("register_probability", lambda reg, note, session, frame: frame.pair_probability(
        (note.state, None)), 0.4),
    ("diagnose", lambda reg, note, session, frame: diagnose(reg, note, session=session), 0.4),
]


@pytest.mark.parametrize(
    "call, bound", [case[1:] for case in KERNEL_PEAKS], ids=[case[0] for case in KERNEL_PEAKS]
)
def test_pure_note_kernel_holds_its_occupied_cosets(tolerated_n20, call, bound):
    frame = tolerated_n20[3]
    # The frame keeps its 2^k codewords, 8 KB, once read: here outside the trace.
    assert (frame.rows.size, frame._codewords.size) == (21, 1 << 10)
    gc.collect()
    tracemalloc.start()
    try:
        call(*tolerated_n20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * frame.rows.size * frame.size * 16


def test_correct_with_a_commutation_sign_builds_one_dense_vector():
    # e.e' = 1: the -1 rides in apply_pauli's +-1 factors, with no second 2^n pass.
    reg = OracleRegistry(16, 1, master_seed=1616)
    fresh = mint_direct(reg, BitVec.zeros(16))
    e = enumerate_errors(16, 1)[4]
    bad = corrupt(fresh, e, e)
    session = reg.session(bad.serial)
    session.verifier_frame(passes=0)
    gc.collect()
    tracemalloc.start()
    try:
        fixed = correct(reg, bad, session=session)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(fixed.state.amplitudes, fresh.state.amplitudes)
    assert peak < 1.5 * fresh.state.amplitudes.nbytes


def test_verifier_and_corrector_at_q2_on_a_pinned_22_qubit_code():
    # The verifier frame's 254 accepted cosets of 2^11 strings each; each note
    # is 64 MiB.  X and Z share one position, so correct pays a -1 sign.
    spec = search_applicable_code(22, 2, 0)
    assert (spec.d_primal, spec.d_dual) == (5, 5)
    reg = OracleRegistry(22, 2, master_seed=22)
    reg.generate(BitVec.zeros(22), spec)
    fresh = mint_direct(reg, BitVec.zeros(22))
    session = reg.session(fresh.serial)
    frame = session.verifier_frame(passes=0)
    # At d = 5 a weight-3 error can share a weight-2 error's syndrome, so the
    # rejected error is drawn by syndrome, not by weight.
    rng = np.random.default_rng(22)
    over = random_bitvec(22, rng)
    while frame.member("primal", over):
        over = random_bitvec(22, rng)
    # Ver's diagonal finds each string's coset by its syndrome, a few integers
    # a string, and lists no coset's strings (254 x 2^11 int64, 4.16 MB, for all).
    codeword = spec.parity_dual.row_values[0]
    strings = np.array([frame.leaders[0], frame.leaders[-1] ^ codeword, over.value])
    gc.collect()
    tracemalloc.start()
    try:
        diagonal = frame.basis_probabilities(strings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diagonal.tolist() == [frame.keep.size / (1 << 11)] * 2 + [0.0]
    assert peak < 64 << 10
    assert (frame.rows.size, frame.size) == (254, 1 << 11)
    bad = corrupt(fresh, bv("0000100000000000100000"), bv("0000100000000000000010"))
    # The note occupies one of the 254 cosets, so verify and diagnose hold that
    # row and a chunk of one row's strings and amplitudes, not the 8.3 MB block of every accepted coset;
    # diagnose sums the phase-flip energies row by row into one 2^11 array.  A
    # second session shares the frame and keeps these calls off the ledger read below.
    probe = reg.session(fresh.serial)
    for call, bound_mb in ((verify, 0.5), (diagnose, 0.5)):
        gc.collect()
        tracemalloc.start()
        try:
            call(reg, bad, session=probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, call.__name__
    assert verify(reg, bad, session=session).accept_probability == 1.0
    fixed = correct(reg, bad, session=session).state.amplitudes
    del bad
    assert session.counters["coset"] == 318
    # Every amplitude's bytes come back, the zero parts' signs too: apply_pauli
    # writes no -0.0.  The uint64 views compare the bytes without a copy of either note.
    assert np.array_equal(fixed.view(np.uint64), fresh.state.amplitudes.view(np.uint64))
    del fixed
    outside = corrupt(fresh, over, BitVec.zeros(22))
    assert verify(reg, outside, session=session).accept_probability == 0.0


def test_post_state_builder_gives_the_same_bytes_twice(worked_registry):
    # The builder transforms a copy of the kept spectrum, so a second call
    # reads it unchanged: a note in one accepted coset and one in all of them.
    reg, record = worked_registry
    frame = reg.session(record.serial).verifier_frame(passes=0)
    fresh = mint_direct(reg, record.r)
    for state in (corrupt(fresh, bv("000100"), bv("100000")).state,
                  _random_pure(np.random.default_rng(31), 6)):
        _, build = frame.apply(state)
        first = build().amplitudes.tobytes()
        assert build().amplitudes.tobytes() == first


def test_post_state_is_built_once_and_unpacks(worked_registry):
    reg, record = worked_registry
    note = corrupt(mint_direct(reg, record.r), bv("001000"), bv("000010"))
    outcome = verify(reg, note, rng=0)
    post = outcome.post_state
    assert outcome.post_state is post
    accepted, prob, unpacked, reason = outcome
    assert (accepted, prob, unpacked, reason) == (True, outcome.accept_probability, post, None)
    assert max_deviation(post, note.state) < 1e-9


def test_lazy_post_state_matches_eager_pipeline_bitwise(worked_registry):
    # Notes on and off the tolerated span: the same probability and the same
    # post-state bytes as building it at once.
    reg, record = worked_registry
    rng = np.random.default_rng(77)
    fresh = mint_direct(reg, record.r)
    states = [corrupt(fresh, bv("010000"), bv("000001")).state, _random_pure(rng, 6)]
    session = reg.session(record.serial)
    frame = session.verifier_frame(passes=0)
    for state in states:
        outcome = verify(reg, Banknote(record.serial, state), rng=0, session=session)
        prob, post = eager_frame_pipeline(state, frame)
        assert outcome.accept_probability == prob
        assert outcome.post_state.amplitudes.tobytes() == post.amplitudes.tobytes()


# Every (n, q) with n in 4..12 and q <= 2 that the sphere-packing bound
# allows: it rules out q = 2 at all these n, and q = 1 at n = 4.
OCCUPIED_PAIRS = [
    (n, q) for n in range(4, 13, 2) for q in range(3) if error_count(n, q) <= 1 << (n // 2)
]
STATE_KINDS = ["coset", "pauli", "negated", "superposition", "haar", "outside"]


def _kernel_state(kind, spec, frame, rng):
    """A pure state of one kind: tolerated coset states, their combinations, or none of them."""
    n, errors = spec.n, enumerate_errors(spec.n, spec.q)

    def tolerated():
        return errors[rng.integers(len(errors))], errors[rng.integers(len(errors))]

    if kind == "coset":
        coset = coset_state(spec.code, *tolerated())
        return coset if rng.choice([1, -1]) == 1 else DenseState._own(n, -coset.amplitudes)
    if kind in ("pauli", "negated"):
        bad = apply_pauli(subspace_state(spec.code), *tolerated())
        # A negated Pauli-corrupted note: every zero becomes -0.
        return bad if kind == "pauli" else DenseState._own(n, -bad.amplitudes)
    if kind == "superposition":
        amps = sum(
            complex(*rng.normal(size=2)) * coset_state(spec.code, *tolerated()).amplitudes
            for _ in range(rng.integers(2, 4))
        )
        return DenseState(n, amps / np.linalg.norm(amps))
    if kind == "haar":
        return _random_pure(rng, n)
    outside = np.setdiff1d(np.arange(1 << n), frame_index(frame))
    assume(outside.size)  # a perfect code leaves no string outside the accepted cosets
    return coset_state(spec.code, BitVec(n, int(rng.choice(outside))), tolerated()[1])


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    pair=st.sampled_from(OCCUPIED_PAIRS),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(STATE_KINDS),
)
def test_occupied_coset_kernels_match_all_rows_reference_bitwise(pair, seed, kind):
    spec = search_applicable_code(*pair, seed)
    frame = VerifierFrame.of(spec)
    state = _kernel_state(kind, spec, frame, np.random.default_rng(seed))

    rows, cosets = frame._occupied(state)
    prob, kept = frame._kept_spectrum(cosets)
    ref_prob, ref_kept = all_rows_kept_spectrum(state, frame)
    assert _bits(prob) == _bits(ref_prob)
    # Ver2 scores a register with Ver's kernel.
    want = ref_prob * frame.mixed_probability()
    assert _bits(frame.pair_probability((state, None))) == _bits(want)
    assert (kept is None) == (ref_kept is None) == (kind == "outside")
    if kept is not None:
        # Equal entry for entry once the occupied rows are put back among the
        # rest; adding 0.0 forgets the sign of zero, since a row with no
        # amplitude holds +0.0 where the transform of a row of -0.0 entries (a
        # negated note) gives -0.0 at frequency 0.
        every = np.zeros((frame.rows.size, frame.size), dtype=kept.dtype)
        every[rows] = kept
        assert (every + 0.0).tobytes() == (ref_kept + 0.0).tobytes()
    prob, build = frame.apply(state)
    ref_prob, ref_post = eager_frame_pipeline(state, frame)
    assert _bits(prob) == _bits(ref_prob)
    assert (build is None) == (ref_post is None)
    if build is not None:
        assert build().amplitudes.tobytes() == ref_post.amplitudes.tobytes()
    for got, ref in zip(frame.weights(state), all_rows_frame_weights(state, frame)):
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    pair=st.sampled_from(OCCUPIED_PAIRS),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(STATE_KINDS + ["sparse"]),
    zero_lines=st.integers(0, 6),
)
def test_note_file_lines_give_the_gathered_cosets_bitwise(pair, seed, kind, zero_lines):
    # A note file's lines, in any order and with '0 0' and '-0 -0' lines in and
    # out of the accepted cosets, put in the frame's coordinates give the stack
    # the scattered note's gather gives, bit for bit, so apply and weights agree.
    spec = search_applicable_code(*pair, seed)
    frame = VerifierFrame.of(spec)
    rng = np.random.default_rng(seed)
    n = spec.n
    if kind == "sparse":  # random amplitudes on a random set of strings
        amps = np.zeros(1 << n, dtype=np.complex128)
        support = rng.choice(1 << n, size=rng.integers(1, 1 << n, endpoint=True), replace=False)
        amps[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        amps /= np.linalg.norm(amps)
    else:
        amps = _kernel_state(kind, spec, frame, rng).amplitudes
    support = np.flatnonzero(amps)
    empty = np.setdiff1d(np.arange(1 << n), support)
    zeros = rng.choice(empty, size=min(zero_lines, empty.size), replace=False)
    lines = [(i, complex(amps[i])) for i in support.tolist()]
    lines += [(i, complex(*rng.choice([0.0, -0.0], size=2).tolist())) for i in zeros.tolist()]
    lines = [lines[j] for j in rng.permutation(len(lines))]
    text = "".join(f"{i:0{n}b} {v.real!r} {v.imag!r}\n" for i, v in lines)
    note = parse_dump(text)
    dense = scatter_dump(*note)
    for got, want in zip(frame._occupied(note), frame._occupied(dense)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    (prob, build), (want_prob, want_build) = frame.apply(note), frame.apply(dense)
    assert _bits(prob) == _bits(want_prob) and (build is None) == (want_build is None)
    if build is not None:
        assert build().amplitudes.tobytes() == want_build().amplitudes.tobytes()
    for got, want in zip(frame.weights(note), frame.weights(dense)):
        assert got.tobytes() == want.tobytes()


def test_pauli_corrupted_note_costs_one_coset_transform(monkeypatch):
    # A tolerated X^e Z^e' note occupies one accepted bit-flip coset, so
    # verify and diagnose each run the 2^k-point transform on one row.
    n = 16
    reg = OracleRegistry(n, 1, master_seed=1616)
    note = mint_direct(reg, BitVec.zeros(n))
    session = reg.session(note.serial)
    errors, none = enumerate_errors(n, 1), BitVec.zeros(n)
    shapes = []
    transform = oracles.fwht
    monkeypatch.setattr(oracles, "fwht", lambda a: shapes.append(a.shape) or transform(a))
    for e, ep in [(errors[3], none), (none, errors[9]), (errors[16], errors[1])]:
        bad = corrupt(note, e, ep)
        shapes.clear()
        assert verify(reg, bad, session=session, rng=0).accept_probability == 1.0
        assert shapes == [(1, 1 << (n // 2))]
        shapes.clear()
        assert diagnose(reg, bad, session=session) == (e, ep)
        assert shapes == [(1, 1 << (n // 2))]


@pytest.fixture(scope="module")
def conjugate_bank():
    reg = OracleRegistry(16, 1, master_seed=1616, route="conjugate")
    r = BitVec(16, 0b1011)
    return reg, r, reg.generate(r)


# (constructor, its inputs from the conjugate bank, the call, and the bound on
# its tracemalloc peak in units of the 16 * 2^16 bytes of one n = 16 note).
WORKING_SETS = [
    (
        "apply_basis_permutation",
        lambda reg, r, rec: (conjugate_coding_state(BitVec.zeros(16), rec.theta), rec.basis_map),
        apply_basis_permutation,
        2.5,
    ),
    ("mint_conjugate", lambda reg, r, rec: (reg, r), mint_conjugate, 3.5),
    (
        "conjugate_coding_state",
        lambda reg, r, rec: (BitVec.zeros(16), rec.theta),
        conjugate_coding_state,
        1.6,
    ),
]


@pytest.mark.parametrize(
    "setup, call, bound", [case[1:] for case in WORKING_SETS], ids=[c[0] for c in WORKING_SETS]
)
def test_dense_constructor_working_set(conjugate_bank, setup, call, bound):
    args = setup(*conjugate_bank)
    tracemalloc.start()
    try:
        built = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = built.state if isinstance(built, Banknote) else built
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < ATOL_EXACT
    assert peak <= bound * (16 << 16)


# ---------------------------------------------------------------------------
# correction


def test_correct_round_trip(worked_registry, worked_spec):
    reg, record = worked_registry
    fresh = mint_direct(reg, record.r)
    bad = corrupt(fresh, bv("100000"), bv("010000"))
    session = reg.session(record.serial)
    fixed = correct(reg, bad, session=session)
    assert max_deviation(fixed.state, fresh.state) < ATOL_EXACT
    assert session.counters["coset"] > 0


def test_correct_fresh_note_unchanged(worked_registry):
    reg, record = worked_registry
    fresh = mint_direct(reg, record.r)
    session = reg.session(record.serial)
    fixed = correct(reg, fresh, session=session)
    assert max_deviation(fixed.state, fresh.state) < ATOL_EXACT
    # Matching the zero error on both sides costs exactly two coset queries.
    assert session.counters["coset"] == 2


def test_correct_undecodable_raises(worked_registry):
    reg, record = worked_registry
    bad = corrupt(mint_direct(reg, record.r), bv("000111"), BitVec.zeros(6))
    with pytest.raises(UndecodableError):
        correct(reg, bad)


def test_diagnose_identifies_errors(worked_registry):
    reg, record = worked_registry
    rng = np.random.default_rng(77)
    fresh = mint_direct(reg, record.r)
    for _ in range(10):
        e, ep = random_corruption(6, 1, rng)
        found_e, found_ep = diagnose(reg, corrupt(fresh, e, ep))
        assert (found_e, found_ep) == (e, ep)


def test_diagnose_charge_accounting(worked_registry):
    reg, record = worked_registry
    fresh = mint_direct(reg, record.r)
    errors = enumerate_errors(6, 1)
    e, ep = errors[3], errors[5]
    session = reg.session(record.serial)
    diagnose(reg, corrupt(fresh, e, ep), session=session)
    # One charge per tested coset: positions are 0-based, so index+1 tests.
    assert session.counters["coset"] == (3 + 1) + (5 + 1)


def reference_coset_index(spec, side, weights):
    """Index of the first tolerated error whose coset holds all but 1e-9 of weights, or None.

    Sums weights over one syn == H e mask per error, one coset at a time.
    """
    parity = spec.parity_primal if side == "primal" else spec.parity_dual
    syn = syndrome_array(parity)
    for i, e in enumerate(enumerate_errors(spec.n, spec.q)):
        if weights[syn == parity.mul_vec(e).value].sum() > 1.0 - 1e-9:
            return i
    return None


def reference_weights(state):
    """Probabilities of the computational and the Hadamard basis states."""
    return state.probabilities(), hadamard_all(state).probabilities()


def undecodable_probe(spec, side):
    """The first weight-(q+1) error whose syndrome no tolerated error shares.

    At q = 1 one always exists: were every sum of two columns of H zero or a
    column, the columns and zero would fill F_2^(n/2), yet n + 1 != 2^(n/2).
    """
    parity = spec.parity_primal if side == "primal" else spec.parity_dual
    tolerated = {parity.mul_vec(e) for e in enumerate_errors(spec.n, spec.q)}
    supports = itertools.combinations(range(spec.n), spec.q + 1)
    probes = (BitVec.from_support(spec.n, positions) for positions in supports)
    return next(p for p in probes if parity.mul_vec(p) not in tolerated)


# No q = 2 code exists at n <= 12 (Singleton and sphere-packing bounds), so q is 1.
@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([6, 8, 10, 12]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_diagnose_matches_per_coset_reference(n, seed, data):
    reg = OracleRegistry(n, 1, master_seed=seed)
    record = reg.generate(random_bitvec(n, seed))
    spec = record.spec
    errors = enumerate_errors(n, spec.q)
    i = data.draw(st.integers(0, len(errors) - 1), label="bit-flip index")
    j = data.draw(st.integers(0, len(errors) - 1), label="phase-flip index")
    sign = data.draw(st.sampled_from([1, -1]), label="sign")

    def note_for(e, ep):
        amps = sign * coset_state(spec.code, e, ep).amplitudes
        return Banknote(record.serial, DenseState._own(n, amps))

    note = note_for(errors[i], errors[j])
    bit_flip, phase_flip = reference_weights(note.state)
    assert reference_coset_index(spec, "primal", bit_flip) == i
    assert reference_coset_index(spec, "dual", phase_flip) == j
    session = reg.session(record.serial)
    assert diagnose(reg, note, session=session) == (errors[i], errors[j])
    assert session.counters == {"primal": 0, "dual": 0, "coset": i + j + 2}
    # The same tests in frame coordinates: bit-flip rows, phase-flip frequencies.
    frame = VerifierFrame.of(spec)
    for side, weights, index in zip(("primal", "dual"), frame.weights(note.state), (i, j)):
        assert frame.locate(side, weights) == (index + 1, errors[index])

    zero = BitVec.zeros(n)
    other = errors[(i + 1) % len(errors)]
    split = sum(coset_state(spec.code, e, zero).amplitudes for e in (errors[i], other))
    probes = [
        ("primal", note_for(undecodable_probe(spec, "primal"), zero)),
        ("dual", note_for(zero, undecodable_probe(spec, "dual"))),
        # An even split over two tolerated bit-flip cosets lies in neither.
        ("primal", Banknote(record.serial, DenseState(n, split / math.sqrt(2)))),
    ]
    for side, bad in probes:
        weights = reference_weights(bad.state)[0 if side == "primal" else 1]
        assert reference_coset_index(spec, side, weights) is None
        session = reg.session(record.serial)
        flip = "bit-flip" if side == "primal" else "phase-flip"
        with pytest.raises(UndecodableError, match=f"no tolerated {flip} coset"):
            diagnose(reg, bad, session=session)
        # Every error is tested on the failing side, after one test matching zero on the other.
        expected = len(errors) + (0 if side == "primal" else 1)
        assert session.counters["coset"] == expected


# ---------------------------------------------------------------------------
# banknote files


def test_banknote_json_round_trip_dense(tmp_path, registry):
    note = mint_direct(registry, bv("011011"))
    path = tmp_path / "note.json"
    save_banknote_dump(note.serial, dump_state(note.state), path)
    loaded = load_banknote(path)
    assert loaded.serial == note.serial
    assert max_deviation(loaded.state, note.state) == 0
    save_banknote_dump(loaded.serial, dump_state(loaded.state), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


@pytest.mark.parametrize("route", ["direct", "conjugate"])
def test_corrupt_and_correct_keep_a_note_read_from_a_file_as_lines(tmp_path, route):
    # corrupt and correct move a file's parsed lines with no 2^n vector, to the
    # bytes the dense note dumps, and the corrected lines dump to the fresh
    # note file's bytes; e.e' = 1, so the inverse carries its commutation sign.
    reg = OracleRegistry(8, 1, master_seed=8, route=route)
    record, dump = scheme.mint_dump(reg, bv("01101100"))
    path = tmp_path / "note.json"
    save_banknote_dump(record.serial, dump, path)
    e, ep = bv("00010000"), bv("00010000")
    bad = corrupt(load_banknote_dump(path), e, ep)
    assert isinstance(bad.state, tuple)
    assert _dump_lines(*bad.state) == dump_state(corrupt(load_banknote(path), e, ep).state)
    save_banknote_dump(bad.serial, _dump_lines(*bad.state), tmp_path / "bad.json")
    fixed = correct(reg, load_banknote_dump(tmp_path / "bad.json"))
    assert isinstance(fixed.state, tuple)
    save_banknote_dump(fixed.serial, _dump_lines(*fixed.state), tmp_path / "fixed.json")
    assert (tmp_path / "fixed.json").read_bytes() == path.read_bytes()


def test_registry_for_record_round_trip(tmp_path):
    reg = OracleRegistry(6, 1, master_seed=3)
    r = bv("110110")
    note = mint_direct(reg, r)
    (tmp_path / "bank.json").write_text(record_text(reg.generate(r)))

    verifier_side = registry_for_record(load_record(tmp_path / "bank.json"))
    outcome = verify(verifier_side, note, rng=0)
    assert outcome.accept_probability == pytest.approx(1.0, abs=1e-9)


def test_readme_library_example_prints_one_and_zero(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library in five lines", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    assert capsys.readouterr().out.split() == ["1.0", "0.0"]


# ---------------------------------------------------------------------------
# isometry covariance


def test_isometry_covariance(worked_registry, worked_spec):
    from subspace_money.codes import CodeSpec, certify
    rng = np.random.default_rng(55)
    reg, record = worked_registry
    for _ in range(5):
        f = random_isometry(6, rng)
        mapped_spec = CodeSpec.build(map_subspace(f, worked_spec.code), q=1)
        assert certify(mapped_spec).passed

        pred = subset_predicate(worked_spec, "primal")
        mapped_pred = subset_predicate(mapped_spec, "primal")
        for v in range(64):
            x = BitVec(6, v)
            assert pred(x) == mapped_pred(f.matrix.mul_vec(x))
