"""The one allocation budget: every dense array is charged before it is allocated.

Each test lowers ``errors.BUDGET_BYTES`` with monkeypatch, so none allocates
more than a few MiB whatever the default budget is.
"""

import json
import tracemalloc

import numpy as np
import pytest

from subspace_money import codes, errors, scheme
from subspace_money.cli import main
from subspace_money.codes import enumerate_errors, search_applicable_code
from subspace_money.errors import BudgetExceededError
from subspace_money.experiments import run_attack
from subspace_money.gf2 import BitVec, SubspaceBasis
from subspace_money.scheme import (
    Banknote,
    OracleRegistry,
    conjugate_coding_state,
    mint_direct,
    mint_dump,
    verify,
)
from subspace_money.states import (
    DenseState,
    apply_basis_permutation,
    apply_pauli,
    coset_state,
    dump_state,
    parse_dump,
    scatter_dump,
    subspace_state,
)

from reference import full_space, random_basis_map, random_subspace, verification_matrix

PURE = 12  # a 2^12 vector, 64 KiB
PURE_BYTES = 16 << PURE
SPAN_BYTES = 8 << 12  # a walk of 2^12 uint64 words


def _code(n=PURE):
    return random_subspace(n, n // 2, seed=n)


def _pure(n=PURE):
    return subspace_state(_code(n))


def _verified():
    reg = OracleRegistry(PURE, 1, master_seed=12)
    return (verify(reg, mint_direct(reg, BitVec.zeros(PURE)), rng=0),)


# (entry point, inputs built under the default budget, the call on them, and
# the bytes of the largest array the call charges).
ENTRY_POINTS = [
    ("subspace_state", lambda: (_code(),), subspace_state, PURE_BYTES),
    (
        "coset_state",
        lambda: (_code(), BitVec(PURE, 5), BitVec(PURE, 9)),
        coset_state,
        PURE_BYTES,
    ),
    (
        "parse_dump",
        lambda: (dump_state(_pure()),),
        lambda text: scatter_dump(*parse_dump(text)),
        PURE_BYTES,
    ),
    (
        "apply_pauli_pure",
        lambda: (_pure(), BitVec(PURE, 3), BitVec(PURE, 6)),
        apply_pauli,
        PURE_BYTES,
    ),
    (
        "apply_basis_permutation",
        lambda: (_pure(), random_basis_map(PURE, seed=1)),
        apply_basis_permutation,
        PURE_BYTES,
    ),
    ("DenseState", lambda: (PURE, _pure().amplitudes), DenseState, PURE_BYTES),
    ("DenseState.probabilities", lambda: (_pure(),), DenseState.probabilities, 8 << PURE),
    (
        "conjugate_coding_state",
        lambda: (BitVec(PURE, 0b101), BitVec(PURE, 0b111111)),
        conjugate_coding_state,
        PURE_BYTES,
    ),
    ("VerifyOutcome.post_state", _verified, lambda outcome: outcome.post_state, PURE_BYTES),
    (
        "verification_matrix",
        lambda: (search_applicable_code(6, 1, seed=6),),
        verification_matrix,
        8 << 12,  # 2^6 x 2^6 float64
    ),
    ("min_distance", lambda: (full_space(12),), SubspaceBasis.min_distance, SPAN_BYTES),
    ("vector_values", lambda: (full_space(12),), SubspaceBasis.vector_values, SPAN_BYTES),
    ("search_applicable_code", lambda: (24, 1, 24), search_applicable_code, SPAN_BYTES),
    (
        "enumerate_errors",
        lambda: codes._error_positions.cache_clear() or (40, 3),
        enumerate_errors,
        8 * 3 * 10701,  # the (3, 10701) int64 support table of codes._error_positions, built cold
    ),
]


@pytest.mark.parametrize(
    "setup, call, nbytes", [case[1:] for case in ENTRY_POINTS], ids=[c[0] for c in ENTRY_POINTS]
)
def test_entry_point_refuses_before_it_allocates(setup, call, nbytes, monkeypatch):
    args = setup()
    monkeypatch.setattr(errors, "BUDGET_BYTES", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as refused:
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"{nbytes} bytes exceed the budget of {nbytes - 1} bytes"
    assert peak < nbytes - 1
    monkeypatch.setattr(errors, "BUDGET_BYTES", nbytes)
    call(*args)


def test_search_refuses_before_the_first_candidate(monkeypatch):
    # Without the up-front refusal the accepted code's walk would raise the same error later.
    def refuse(*args):
        raise AssertionError("drew a candidate whose distance walk cannot fit")

    monkeypatch.setattr(codes, "as_generator", refuse)
    monkeypatch.setattr(errors, "BUDGET_BYTES", SPAN_BYTES - 1)
    with pytest.raises(BudgetExceededError):
        search_applicable_code(24, 1, seed=24)


@pytest.mark.parametrize("route", ["direct", "conjugate"])
def test_mint_refuses_before_the_code_search(tmp_path, capsys, monkeypatch, route):
    searches = []
    search = scheme.search_applicable_code
    monkeypatch.setattr(
        scheme, "search_applicable_code", lambda *a: searches.append(a) or search(*a)
    )
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 << 12)
    note = tmp_path / "note.json"
    mint = ["--seed", "5", "--out", str(note), "mint", "--q", "1", "--route", route]
    assert main([*mint, "--n", "14"]) == 1
    assert "error: 262144 bytes exceed the budget of 65536 bytes" in capsys.readouterr().err
    assert not note.exists() and not note.with_suffix(".bank.json").exists()
    assert searches == []
    # The same mint within the budget searches once and writes both files.
    assert main([*mint, "--n", "12"]) == 0
    assert len(searches) == 1
    assert note.exists() and note.with_suffix(".bank.json").exists()


def test_parse_dump_bounds_outside_input(tmp_path, capsys, monkeypatch):
    note, bank = tmp_path / "note.json", tmp_path / "note.bank.json"
    assert main(["--seed", "3", "--out", str(note), "mint", "--n", "12", "--q", "1"]) == 0
    dump = json.loads(note.read_text())["state"]["dump"]
    monkeypatch.setattr(errors, "BUDGET_BYTES", (16 << 12) - 1)
    with pytest.raises(BudgetExceededError):
        scatter_dump(*parse_dump(dump))
    capsys.readouterr()
    assert main(["--seed", "0", "verify", str(note), "--bank", str(bank)]) == 1
    assert "error: 65536 bytes exceed the budget" in capsys.readouterr().err


def test_only_dense_kernels_build_the_frame_index_and_refused_ones_charge_nothing(monkeypatch):
    # At n = 14, q = 1 the frame's index is 15 accepted cosets of 2^7 strings, int64.
    reg = OracleRegistry(14, 1, master_seed=14)
    note = mint_direct(reg, BitVec.zeros(14))
    session = reg.session(note.serial)
    frame = session.verifier_frame(passes=0)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 4096)
    # A membership query reads the accepted syndromes alone.
    session.member("primal", BitVec(14, 3))
    assert session.counters == {"primal": 1, "dual": 0, "coset": 0}
    assert "index" not in vars(frame)
    # A dense verify needs the index; the refused one is not kept and the pass is not charged.
    with pytest.raises(BudgetExceededError, match="15360 bytes exceed the budget of 4096 bytes"):
        verify(reg, note, session=session, rng=0)
    assert session.counters == {"primal": 1, "dual": 0, "coset": 0}
    assert "index" not in vars(frame)
    # Under the raised budget the first verify builds it, and a second session shares it.
    monkeypatch.setattr(errors, "BUDGET_BYTES", 15360)
    assert verify(reg, note, session=session, rng=0).accept_probability == 1.0
    index = vars(frame)["index"]
    fresh = reg.session(note.serial)
    assert verify(reg, note, session=fresh, rng=0).accept_probability == 1.0
    assert fresh.verifier_frame(passes=0) is frame and vars(frame)["index"] is index
    assert session.counters == {"primal": 2, "dual": 1, "coset": 0}
    assert fresh.counters == {"primal": 1, "dual": 1, "coset": 0}


@pytest.mark.parametrize("kernel", ["apply", "weights"])
def test_only_a_dense_gather_builds_the_frame_index(kernel):
    # Every other kernel finds a string's coset by its syndrome or forms its
    # rows' strings leaders ^ c(u) per call, so the fresh frame keeps no index.
    reg = OracleRegistry(6, 1, master_seed=6)
    record, dump = mint_dump(reg, BitVec.zeros(6))
    frame, note = record.frame, scatter_dump(*parse_dump(dump))
    assert frame.basis_probabilities(np.arange(64)).mean() == frame.mixed_probability()
    assert "index" not in vars(frame)
    parts = np.stack([note.amplitudes.real, note.amplitudes.imag])
    assert frame.block_probabilities(parts) == pytest.approx(1.0)
    assert "index" not in vars(frame)
    pair = DenseState(12, np.kron(note.amplitudes, note.amplitudes))
    assert frame.pair_probability(pair) == pytest.approx(1.0)
    assert "index" not in vars(frame)
    post = verify(reg, Banknote(record.serial, parse_dump(dump)), rng=0).post_state
    assert np.allclose(post.amplitudes, note.amplitudes)
    assert "index" not in vars(frame)
    getattr(frame, kernel)(note)
    assert vars(frame)["index"].shape == (7, 8)


@pytest.mark.parametrize("strategy, trials", [("random-state", 3)])
def test_attack_blocks_are_charged_to_the_budget(tmp_path, capsys, monkeypatch, strategy, trials):
    # One n = 10 note fits; a block of four 2^10-entry float64 vectors (one
    # random-state trial) is twice its bytes.
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 << 10)
    refusal = "32768 bytes exceed the budget of 16384 bytes"
    with pytest.raises(BudgetExceededError, match=refusal):
        run_attack(OracleRegistry(10, 1, master_seed=1), strategy, trials, 1)
    out = tmp_path / "attack.csv"
    argv = ["--seed", "1", "--out", str(out), "attack", "--strategy", strategy]
    assert main([*argv, "--n", "10", "--q", "1", "--trials", str(trials)]) == 1
    assert f"error: {refusal}" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(errors, "BUDGET_BYTES", 32 << 10)
    assert main([*argv, "--n", "10", "--q", "1", "--trials", str(trials)]) == 0


@pytest.mark.parametrize("strategy", ["passthrough-mixed", "measure-and-copy"])
def test_closed_form_attacks_run_under_a_one_note_budget(tmp_path, monkeypatch, strategy):
    # At n = 10 the note's 2^10 complex amplitudes fill the budget and
    # measure-and-copy's CDF is half of it; neither attack builds a register.
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 << 10)
    out = tmp_path / "attack.csv"
    argv = ["--seed", "1", "--out", str(out), "attack", "--strategy", strategy]
    assert main([*argv, "--n", "10", "--q", "1", "--trials", "50"]) == 0
    assert out.read_text().startswith("strategy,")
