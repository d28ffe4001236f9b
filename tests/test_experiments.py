"""Tests for the experiment harness."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_money import experiments
from subspace_money.codes import search_applicable_code
from subspace_money.experiments import (
    ATTACK_KINDS,
    amplification_cost,
    completeness_sweep,
    gv_table,
    run_attack,
    smallest_sound_n,
    soundness_table,
    wilson_interval,
)
from subspace_money.gf2 import random_bitvec
from subspace_money.scheme import OracleRegistry, double_verify, mint_direct
from subspace_money.states import DenseState

from conftest import stdout_under_one_and_two_blas_threads
from reference import basis_state, tolerated_projector


@pytest.fixture()
def registry():
    return OracleRegistry(6, 1, master_seed=404)


# ---------------------------------------------------------------------------
# completeness sweep


def test_completeness_sweep_worked_code(worked_spec):
    report = completeness_sweep(worked_spec)
    assert len(report.rows) == 49
    assert all(row[2] == pytest.approx(1.0, abs=1e-9) for row in report.rows)


def test_completeness_sweep_q0():
    spec = search_applicable_code(4, 0, seed=12)
    report = completeness_sweep(spec)
    assert len(report.rows) == 1
    assert report.rows[0][2] == pytest.approx(1.0, abs=1e-9)


def test_completeness_rows_are_exactly_one():
    # Criterion 02 allows 1e-9; the verifier's arithmetic gives exactly one.
    for n in (6, 8, 10, 12):
        for seed in range(5):
            report = completeness_sweep(search_applicable_code(n, 1, seed=seed))
            assert len(report.rows) == (n + 1) ** 2
            assert all(row[2] == 1.0 for row in report.rows), (n, seed)


def test_completeness_sweep_builds_no_dense_state():
    # Each row's frame block is built in closed form, not gathered from a 2^n
    # coset state: the sweep peaked at 1.38 MB here when it built them.
    spec = search_applicable_code(16, 1, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        report = completeness_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row[2] for row in report.rows] == [1.0] * 17**2
    assert peak < (16 << 16) / 2


def test_completeness_sweep_builds_one_verifier_frame(monkeypatch, worked_spec):
    from subspace_money.oracles import VerifierFrame

    build = VerifierFrame.of
    calls = []

    def counted(cls, spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(VerifierFrame, "of", classmethod(counted))
    report = completeness_sweep(worked_spec)
    assert len(report.rows) == 49
    assert calls == [worked_spec]


# ---------------------------------------------------------------------------
# attacks


def test_passthrough_attack_matches_analytic(registry):
    report = run_attack(registry, "passthrough-mixed", trials=2000, seed=5)
    row = dict(zip(report.columns, report.rows[0]))
    assert row["analytic_rate"] == pytest.approx(49 / 64)
    assert row["mean_probability"] == pytest.approx(49 / 64, abs=1e-9)
    assert row["wilson_low"] <= row["analytic_rate"] <= row["wilson_high"]


def test_measure_and_copy_attack_matches_analytic(registry):
    report = run_attack(registry, "measure-and-copy", trials=2000, seed=6)
    row = dict(zip(report.columns, report.rows[0]))
    assert row["analytic_rate"] == pytest.approx((7 / 8) ** 2)
    assert row["mean_probability"] == pytest.approx((7 / 8) ** 2, abs=1e-9)
    assert row["wilson_low"] <= row["analytic_rate"] <= row["wilson_high"]


def test_random_state_attack_rate_is_near_expectation(registry):
    report = run_attack(registry, "random-state", trials=3000, seed=7)
    row = dict(zip(report.columns, report.rows[0]))
    expectation = (49 / 64) ** 2
    assert row["analytic_rate"] == pytest.approx(expectation)
    # The mean exact probability concentrates around the expectation.
    assert row["mean_probability"] == pytest.approx(expectation, rel=0.05)


def test_attack_reports_are_reproducible(registry):
    a = run_attack(registry, "passthrough-mixed", trials=500, seed=9)
    fresh_registry = OracleRegistry(6, 1, master_seed=404)
    b = run_attack(fresh_registry, "passthrough-mixed", trials=500, seed=9)
    assert a.to_csv_text() == b.to_csv_text()


def test_attack_charges_oracles(registry):
    report = run_attack(registry, "passthrough-mixed", trials=100, seed=11)
    row = dict(zip(report.columns, report.rows[0]))
    assert row["queries_primal"] == 200  # two registers per trial
    assert row["queries_dual"] == 200
    assert row["combined_equivalent"] == 7 * 400


def test_unknown_strategy_rejected(registry):
    with pytest.raises(ValueError):
        run_attack(registry, "teleport", trials=10, seed=0)


def test_strategies_see_only_the_session_surface(registry):
    # Strategies must work against a stub exposing nothing but n and the
    # verifier frame's four scoring kernels: no code, no frame arrays.
    from subspace_money.experiments import _STRATEGIES

    note = mint_direct(registry, random_bitvec(6, 1))
    frame = registry.session(note.serial).verifier_frame(passes=0)

    class OpaqueFrame:
        __slots__ = ()
        n = frame.n
        apply = staticmethod(frame.apply)
        mixed_probability = staticmethod(frame.mixed_probability)
        basis_probabilities = staticmethod(frame.basis_probabilities)
        block_probabilities = staticmethod(frame.block_probabilities)

    def blocks(fn, scorer):
        # Copied as they come, since a strategy may refill a block's arrays.
        return [
            (np.broadcast_to(probs, uniforms.shape).copy(), uniforms.copy())
            for probs, uniforms in fn(note, scorer, np.random.default_rng(0), 11)
        ]

    for kind, fn in _STRATEGIES.items():
        got = blocks(fn, OpaqueFrame())
        assert sum(len(uniforms) for _, uniforms in got) == 11
        want = blocks(fn, frame)
        assert len(got) == len(want)
        for (probs, uniforms), (want_probs, want_uniforms) in zip(got, want):
            assert probs.tobytes() == want_probs.tobytes()
            assert uniforms.tobytes() == want_uniforms.tobytes()
            assert np.all((0.0 <= probs) & (probs <= 1.0 + 1e-12))


def reference_attack(registry, kind, trials, seed):
    """The per-trial loop: one strategy call and one double_verify per trial.

    A passthrough trial is scored from the tolerated projector instead: the
    note's <psi|P|psi> times the maximally mixed register's tr(P) / 2^n,
    drawn and charged as double_verify draws and charges.
    """
    rng = np.random.default_rng(seed)
    note = mint_direct(registry, random_bitvec(registry.n, rng))
    session = registry.session(note.serial)
    n = registry.n
    proj = tolerated_projector(registry.record_for_serial(note.serial).spec)
    amps = note.state.amplitudes
    passthrough = min(np.vdot(amps, proj @ amps).real * np.trace(proj).real / (1 << n), 1.0)

    def haar():
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return DenseState(n, amps / np.linalg.norm(amps))

    def ver2(joint):
        if joint is None:
            session.verifier_frame(passes=2)
            return passthrough, rng.random() < passthrough
        return double_verify(registry, note.serial, joint, rng=rng, session=session)

    successes, prob_sum = 0, 0.0
    for _ in range(trials):
        if kind == "passthrough-mixed":
            joint = None
        elif kind == "measure-and-copy":
            probs = note.state.probabilities()
            copy = basis_state(n, int(rng.choice(len(probs), p=probs)))
            joint = (copy, copy)
        else:
            joint = (haar(), haar())
        prob, sampled = ver2(joint)
        successes += int(sampled)
        prob_sum += prob
    return successes, prob_sum / trials, session


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([6, 8]),
    kind=st.sampled_from(ATTACK_KINDS),
    seed=st.integers(0, 2**32 - 1),
    trials=st.sampled_from([1, 7, 1001]),
)
def test_blocked_attack_matches_per_trial_reference(n, kind, seed, trials):
    master_seed = seed % 997
    report = run_attack(OracleRegistry(n, 1, master_seed=master_seed), kind, trials, seed)
    row = dict(zip(report.columns, report.rows[0]))
    successes, mean, session = reference_attack(
        OracleRegistry(n, 1, master_seed=master_seed), kind, trials, seed
    )
    assert row["successes"] == successes
    assert row["mean_probability"] == pytest.approx(mean, abs=1e-12)
    assert row["queries_primal"] == session.counters["primal"] == 2 * trials
    assert row["queries_dual"] == session.counters["dual"] == 2 * trials
    assert row["combined_equivalent"] == session.combined_equivalent


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_attack_report_does_not_depend_on_the_block_size(monkeypatch, kind):
    # From one random-state trial per block at 256 entries to 48 trials at
    # 12288; 1001 trials leave the larger blocks a partial last one.  The
    # closed-form strategies build no block, so they must not move either.
    def report():
        return run_attack(OracleRegistry(6, 1, master_seed=61), kind, 1001, 17).to_csv_text()

    want = report()
    for entries in (256, 1024, 2048, 12288):
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
        assert report() == want


def _attack_peak(registry, kind, trials=1000):
    gc.collect()
    tracemalloc.start()
    try:
        run_attack(registry, kind, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_state_attack_memory_is_bounded(registry):
    run_attack(registry, "random-state", trials=1, seed=0)  # code search and masks
    # Bounds 2% above the peaks before the closed forms: random-state's one
    # refilled block and its kernel took 99,960 B, measure-and-copy 72,214 B
    # and passthrough-mixed, with its 2^n x 2^n density matrix, 111,813 B.
    # With no register built, passthrough-mixed now stays under
    # measure-and-copy's bound too.
    assert _attack_peak(registry, "random-state") <= 102_000
    assert _attack_peak(registry, "measure-and-copy") <= 73_700
    assert _attack_peak(registry, "passthrough-mixed") <= 73_700


@pytest.mark.parametrize("kind", ["passthrough-mixed", "measure-and-copy"])
def test_closed_form_attacks_hold_the_note_and_its_cdf(kind):
    # At n = 14 the note is 256 KiB and measure-and-copy's CDF 128 KiB; beside
    # them only trial-sized arrays.  A 2^n x 2^n register would be 4 GiB.
    registry = OracleRegistry(14, 1, master_seed=14)
    run_attack(registry, kind, trials=1, seed=0)
    assert _attack_peak(registry, kind) <= 2 * (16 << 14)


@pytest.mark.parametrize("kind", ["passthrough-mixed", "measure-and-copy"])
def test_closed_form_attack_peaks_do_not_grow_with_the_trials(kind):
    # Trials are drawn and scored a block at a time, and 1000 trials are one
    # block, so 20,000 hold what 1000 do.  Drawn all at once, measure-and-copy
    # at n = 14 peaked at 0.47 MB for 1000 trials and 1.44 MB for 20,000.
    registry = OracleRegistry(14, 1, master_seed=14)
    run_attack(registry, kind, trials=1, seed=1)  # the traced runs' record and frame
    assert _attack_peak(registry, kind, trials=20_000) <= _attack_peak(registry, kind) + 4096


def test_wilson_interval_sanity():
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12) and 0.0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert 0.95 < low < 1.0 and high == pytest.approx(1.0, abs=1e-12)
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_wilson_coverage_meta():
    # The empirical rate's interval should contain the true rate in at least
    # 95% of repeated small experiments.  At 625 trials the exact coverage
    # for this rate is 95.3%; the fixed seed makes the outcome stable.
    rng = np.random.default_rng(11)
    true_rate = 49 / 64
    hits = 0
    reps = 100
    for _ in range(reps):
        successes = int(rng.binomial(625, true_rate))
        low, high = wilson_interval(successes, 625)
        hits += int(low <= true_rate <= high)
    assert hits >= 95


# ---------------------------------------------------------------------------
# bound tables


def test_gv_table_shape_and_values():
    report = gv_table(range(2, 41), [1, 2, 3])
    rows = {(r[0], r[1]): r[2] for r in report.rows}
    assert rows[(6, 1)] == pytest.approx(-0.8365916681089791, abs=1e-9)
    assert rows[(2, 1)] == 1.0
    assert rows[(4, 1)] == -1.0
    for q in (1, 2, 3):
        # Decreasing from the n=2q peak down to the n=4q trough, then
        # monotone increasing once 2q/n < 1/2.
        descending = [rows[(n, q)] for n in range(2 * q, 4 * q + 1) if (n, q) in rows]
        assert descending == sorted(descending, reverse=True)
        ascending = [rows[(n, q)] for n in range(4 * q, 41) if (n, q) in rows]
        assert ascending == sorted(ascending)
        signs = [rows[(n, q)] < 0 for n in range(2 * q, 41) if (n, q) in rows]
        assert signs.count(True) > 0 and signs[0] is False


def test_soundness_table_matches_formula():
    report = soundness_table(range(4, 41), [0, 1, 2])
    for n, q, pairs, value, log2v in report.rows:
        assert value == pytest.approx(pairs**2 * 2.0 ** (-n / 2), rel=1e-12)
        assert log2v == pytest.approx(math.log2(value), abs=1e-9)
    q0 = [r for r in report.rows if r[1] == 0]
    assert all(r[3] == pytest.approx(2.0 ** (-r[0] / 2), rel=1e-12) for r in q0)


def test_smallest_sound_n():
    n1 = smallest_sound_n(1)
    assert n1 is not None
    assert soundness_tradeoff(n1, 1) < 1.0
    assert soundness_tradeoff(n1 - 2, 1) >= 1.0


def soundness_tradeoff(n, q):
    from subspace_money.codes import soundness_tradeoff as f

    return f(n, q)


# ---------------------------------------------------------------------------
# amplification calculator


def test_amplification_cost_examples():
    delta = 1 / math.e
    assert amplification_cost(1.0, delta) == pytest.approx(1.0 / (1.0 + delta**2))
    # Direct evaluation: log(1e5) / (0.5 * (0.5 + 1e-10)), which is four
    # times log(1e5) up to the negligible delta^2 term.
    val = amplification_cost(0.25, 1e-5)
    assert val == pytest.approx(math.log(1e5) / (0.5 * (0.5 + 1e-10)), rel=1e-12)
    assert val == pytest.approx(4 * math.log(1e5), rel=1e-6)


def test_amplification_cost_monotone_in_epsilon():
    vals = [amplification_cost(eps, 0.01) for eps in (0.1, 0.3, 0.5, 0.9, 1.0)]
    assert vals == sorted(vals, reverse=True)


def test_amplification_cost_domain():
    with pytest.raises(ValueError):
        amplification_cost(0.0, 0.5)
    with pytest.raises(ValueError):
        amplification_cost(0.5, 1.0)


# ---------------------------------------------------------------------------
# report format


def test_report_csv_format(registry):
    report = run_attack(registry, "passthrough-mixed", trials=10, seed=1)
    text = report.to_csv_text()
    lines = text.split("\n")
    assert lines[0].startswith("strategy,n,q,trials,")
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert report.default_filename() == "attack-passthrough-mixed-6-1-1.csv"


def test_report_save(tmp_path):
    report = gv_table(range(2, 10), [1])
    path = report.save(tmp_path)
    assert path.name == report.default_filename()
    assert path.read_text() == report.to_csv_text()
    explicit = tmp_path / "custom.csv"
    assert report.save(explicit) == explicit


# The block kernel's bits: random-state reports at n = 6 and n = 14, and the
# probability of one random one-trial block at n = 14, each as float.hex.
_RANDOM_STATE_BITS = """
import numpy as np
from subspace_money.experiments import run_attack
from subspace_money.gf2 import BitVec
from subspace_money.scheme import OracleRegistry
for n, trials in ((6, 1000), (14, 40)):
    report = run_attack(OracleRegistry(n, 1, master_seed=n), "random-state", trials, n)
    row = dict(zip(report.columns, report.rows[0]))
    print(row["mean_probability"].hex(), row["successes"])
frame = OracleRegistry(14, 1, master_seed=3).generate(BitVec.zeros(14)).frame
block = np.random.default_rng(14).standard_normal((1, 2, 2, 1 << 14))
print(float(frame.block_probabilities(block).prod(axis=-1)[0]).hex())
"""


def test_block_kernel_bits_do_not_depend_on_the_blas_thread_count():
    # The random-state blocks reduce through np.vecdot; a BLAS that split those
    # sums across threads would change the reports' bits with the thread count.
    runs = stdout_under_one_and_two_blas_threads(_RANDOM_STATE_BITS)
    assert runs[0] == runs[1]
    assert len(runs[0].splitlines()) == 3
