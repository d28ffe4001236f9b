"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output section) and enforces the stated runtime ceiling.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_money.codes import (
    CodeSpec,
    build_syndrome_table,
    certify,
    count_error_pairs,
    enumerate_errors,
    error_count,
    gv_margin,
    search_applicable_code,
    soundness_log2,
    soundness_tradeoff,
)
from subspace_money.errors import UndecodableError
from subspace_money.experiments import analytic_attack_rate, completeness_sweep, run_attack
from subspace_money.gf2 import (
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    random_bitvec,
)
from subspace_money.scheme import (
    Banknote,
    MintRecord,
    OracleRegistry,
    conjugate_coding_state,
    correct,
    corrupt,
    diagnose,
    mint_conjugate,
    mint_direct,
    verify,
)
from subspace_money.states import (
    DenseState,
    apply_basis_permutation,
    coset_state,
    max_deviation,
    subspace_state,
)

from conftest import WORKED_CODEWORDS, WORKED_GENERATORS, WORKED_PARITY_ROWS, certified_codes
from reference import (
    apply_verifier,
    conjugate_coset_parameters,
    map_subspace,
    random_basis_map,
    random_isometry,
    subset_predicate,
    syndrome_predicate,
    tolerated_projector,
    verification_matrix,
)


@contextlib.contextmanager
def criterion(num: int, description: str, runtime_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} [{description}]: PASS ({elapsed:.2f}s)")
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"runtime {elapsed:.2f}s exceeds {runtime_limit}s"


def test_criterion_01_golden_code_reproduction():
    with criterion(1, "golden worked-code reproduction", runtime_limit=1.0):
        code = SubspaceBasis.from_strings(WORKED_GENERATORS)
        assert code.min_distance() == 3
        assert code.dual().min_distance() == 3

        h_c = Gf2Matrix.from_strings(WORKED_PARITY_ROWS)
        g_c = Gf2Matrix.from_strings(WORKED_GENERATORS).transpose()
        assert (h_c @ g_c).is_zero()

        state = subspace_state(code)
        assert {str(b) for b in state.support()} == set(WORKED_CODEWORDS)
        amp = 1.0 / math.sqrt(8.0)
        for w in WORKED_CODEWORDS:
            assert abs(state.amplitude(BitVec.from_string(w)) - amp) <= 1e-12


def test_criterion_02_perfect_completeness():
    with criterion(2, "perfect completeness on random certified codes", runtime_limit=60.0):
        rng = np.random.default_rng(1001)
        for n, q in ((6, 1), (8, 1), (10, 1)):
            for _ in range(10):
                spec = search_applicable_code(n, q, seed=rng)
                assert certify(spec).passed
                report = completeness_sweep(spec)
                assert len(report.rows) == count_error_pairs(n, q)
                for row in report.rows:
                    assert abs(row[2] - 1.0) <= 1e-9


def test_criterion_03_projector_identity(worked_spec):
    with criterion(
        3, "verification pipeline equals the tolerated-span projector", runtime_limit=10.0
    ):
        v = verification_matrix(worked_spec)
        target = tolerated_projector(worked_spec)
        assert np.abs(v - target).max() < 1e-10
        assert np.abs(v @ v - v).max() < 1e-10
        assert np.abs(v - v.conj().T).max() < 1e-10
        rank = int((np.linalg.eigvalsh(v) >= 0.5).sum())
        assert rank == 49


def test_criterion_04_subset_subspace_equivalence():
    with criterion(4, "subset and syndrome predicates agree exhaustively", runtime_limit=30.0):
        rng = np.random.default_rng(1004)
        for n in (6, 8, 10, 12):
            spec = search_applicable_code(n, 1, seed=rng)
            for side in ("primal", "dual"):
                subset_mask = subset_predicate(spec, side).support_mask()
                syndrome_mask = syndrome_predicate(spec, side).support_mask()
                assert np.array_equal(subset_mask, syndrome_mask)


def test_criterion_05_conjugate_coding_identity():
    with criterion(5, "conjugate coding states match coset states", runtime_limit=60.0):
        rng = np.random.default_rng(1005)
        for n in (4, 6, 8):
            for _ in range(50):
                basis_map = random_basis_map(n, rng)
                positions = sorted(int(p) for p in rng.choice(n, size=n // 2, replace=False))
                theta = BitVec.from_support(n, positions)
                x = random_bitvec(n, rng)

                produced = apply_basis_permutation(conjugate_coding_state(x, theta), basis_map)
                subspace = SubspaceBasis(
                    n, [basis_map.column(i) for i in theta.support()]
                )
                t, t_prime = conjugate_coset_parameters(basis_map, theta, x)
                expected = coset_state(subspace, t, t_prime)
                assert max_deviation(produced, expected) < 1e-12

        # The x = 0 route coincides with direct minting exactly.
        for n, q, seed in ((4, 0, 51), (6, 1, 52), (8, 1, 53)):
            reg = OracleRegistry(n, q, master_seed=seed, route="conjugate")
            r = random_bitvec(n, seed)
            assert max_deviation(mint_direct(reg, r).state, mint_conjugate(reg, r).state) < 1e-12


def test_criterion_06_error_pair_count():
    with criterion(6, "tolerated error-pair count formula", runtime_limit=30.0):
        for n in range(1, 17):
            for q in range(4):
                assert count_error_pairs(n, q) == len(enumerate_errors(n, q)) ** 2
        assert count_error_pairs(6, 1) == 49


def test_criterion_07_gv_margin():
    with criterion(7, "existence margin value and crossing shape", runtime_limit=10.0):
        assert abs(gv_margin(6, 1) - (-0.8365916681089791)) <= 1e-9
        for q in (1, 2, 3):
            # The negative stretch sits between roughly 2.25q and 18.2q, so a
            # 20q scan sees both zero crossings.
            margins = {n: gv_margin(n, q) for n in range(2 * q, 20 * q + 1)}
            assert margins[2 * q] == 1.0
            assert margins[4 * q] == -1.0
            # Monotone decrease from the peak down to the trough at n = 4q.
            down = [margins[n] for n in range(2 * q, 4 * q + 1)]
            assert all(a > b for a, b in zip(down, down[1:]))
            # Monotone increase beyond the trough (2q/n < 1/2).
            up = [margins[n] for n in range(4 * q, 20 * q + 1)]
            assert all(a < b for a, b in zip(up, up[1:]))
            # Exactly one sign change on the way down, one on the way up.
            signs = [margins[n] < 0 for n in sorted(margins)]
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips == 2 and not signs[0]


def test_criterion_08_soundness_tradeoff_table():
    with criterion(8, "soundness bound table in the log domain", runtime_limit=10.0):
        for q in range(5):
            for n in range(4, 41, 2):
                pairs = count_error_pairs(n, q)
                expected_log2 = 2 * math.log2(pairs) - n / 2
                assert soundness_log2(n, q) == pytest.approx(expected_log2, abs=1e-9)
                assert soundness_tradeoff(n, q) == pytest.approx(
                    pairs**2 * 2.0 ** (-n / 2), rel=1e-12
                )
        assert soundness_tradeoff(6, 1) == pytest.approx(49**2 / 8, rel=1e-12)


def test_criterion_09_attack_baselines():
    with criterion(9, "attack baselines match analytic rates", runtime_limit=120.0):
        for kind, seed in (("passthrough-mixed", 2001), ("measure-and-copy", 2002)):
            registry = OracleRegistry(6, 1, master_seed=seed)
            report = run_attack(registry, kind, trials=10_000, seed=seed)
            row = dict(zip(report.columns, report.rows[0]))
            assert row["analytic_rate"] == pytest.approx(49 / 64, abs=1e-12)
            assert row["mean_probability"] == pytest.approx(49 / 64, abs=1e-9)
            assert row["wilson_low"] <= 49 / 64 <= row["wilson_high"]


def test_criterion_10_correction_round_trip(worked_spec):
    with criterion(10, "correction identifies and inverts tolerated errors", runtime_limit=120.0):
        rng = np.random.default_rng(1010)
        setups = []
        reg6 = OracleRegistry(6, 1, master_seed=3001)
        rec6 = reg6.generate(BitVec.zeros(6))
        reg6.records[rec6.r] = MintRecord(rec6.r, rec6.serial, worked_spec, "direct")
        setups.append((reg6, rec6.r, 6))
        reg8 = OracleRegistry(8, 1, master_seed=3002)
        rec8 = reg8.generate(BitVec.zeros(8))
        setups.append((reg8, rec8.r, 8))

        for reg, r, n in setups:
            fresh = mint_direct(reg, r)
            errors = enumerate_errors(n, 1)
            for _ in range(100):
                e = errors[int(rng.integers(len(errors)))]
                ep = errors[int(rng.integers(len(errors)))]
                fixed = correct(reg, corrupt(fresh, e, ep))
                assert max_deviation(fixed.state, fresh.state) <= 1e-12

        # Every undecodable bit-flip pattern fails loudly.
        spec6 = reg6.records[rec6.r].spec
        table = build_syndrome_table(spec6.parity_primal, 1)
        fresh6 = mint_direct(reg6, rec6.r)
        undecodable = [
            BitVec.from_support(6, positions)
            for positions in itertools.combinations(range(6), 2)
            if table.decode(spec6.parity_primal.mul_vec(BitVec.from_support(6, positions))) is None
        ]
        assert undecodable
        for e in undecodable:
            with pytest.raises(UndecodableError):
                correct(reg6, corrupt(fresh6, e, BitVec.zeros(6)))


def test_criterion_11_query_accounting():
    with criterion(11, "combined-oracle query conversion", runtime_limit=10.0):
        rng = np.random.default_rng(1011)
        registry = OracleRegistry(6, 1, master_seed=4001)
        factor = error_count(6, 1)
        assert factor == 7
        for _ in range(20):
            note = mint_direct(registry, random_bitvec(6, rng))
            session = registry.session(note.serial)
            primal_queries = int(rng.integers(1, 12))
            dual_queries = int(rng.integers(0, 12))
            for _ in range(primal_queries):
                session.member("primal", random_bitvec(6, rng))
            for _ in range(dual_queries):
                session.member("dual", random_bitvec(6, rng))
            assert session.combined_equivalent == factor * (primal_queries + dual_queries)
            assert session.counters["primal"] == primal_queries
            assert session.counters["dual"] == dual_queries


def test_criterion_12_isometry_covariance(worked_spec):
    with criterion(12, "isometry covariance of verification", runtime_limit=60.0):
        rng = np.random.default_rng(1012)
        base_primal = subset_predicate(worked_spec, "primal")
        base_dual = subset_predicate(worked_spec, "dual")
        errors = enumerate_errors(6, 1)
        for _ in range(20):
            f = random_isometry(6, rng)
            mapped_spec = CodeSpec.build(map_subspace(f, worked_spec.code), q=1)
            assert certify(mapped_spec).passed

            mapped_primal = subset_predicate(mapped_spec, "primal")
            mapped_dual = subset_predicate(mapped_spec, "dual")

            e = errors[int(rng.integers(len(errors)))]
            ep = errors[int(rng.integers(len(errors)))]
            state = coset_state(worked_spec.code, e, ep)
            mapped_state = apply_basis_permutation(state, f)

            p_base, _ = apply_verifier(state, base_primal, base_dual)
            p_mapped, _ = apply_verifier(mapped_state, mapped_primal, mapped_dual)
            assert abs(p_base - p_mapped) <= 1e-10

            # Also on states outside the tolerated span.
            amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            psi_amps = amps / np.linalg.norm(amps)
            psi = DenseState(6, psi_amps)
            p_base, _ = apply_verifier(psi, base_primal, base_dual)
            p_mapped, _ = apply_verifier(
                apply_basis_permutation(psi, f), mapped_primal, mapped_dual
            )
            assert abs(p_base - p_mapped) <= 1e-10


# ---------------------------------------------------------------------------
# Criteria 03, 10 and 12 again, over random certified codes (even n in 4..10).

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes())
def test_criterion_03_projector_identity_on_certified_codes(spec):
    v = verification_matrix(spec)
    assert np.abs(v - tolerated_projector(spec)).max() < 1e-10
    assert round(np.trace(v)) == error_count(spec.n, spec.q) ** 2


def _bernstein_tolerance(trials: int, variance: float) -> float:
    """Bernstein bound: a correct mean of trials values in [0, 1] misses by more w.p. < 1e-6."""
    if variance == 0.0:
        return 1e-9
    log_term = math.log(2 / 1e-6)
    lin = 2 * log_term / 3
    return (lin + math.sqrt(lin * lin + 8 * trials * log_term * variance)) / (2 * trials)


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), seed=SEEDS)
def test_criterion_09_attack_baselines_on_certified_codes(spec, seed):
    n, q = spec.n, spec.q
    registry = OracleRegistry(n, q, master_seed=0)
    # run_attack mints the note for the first n-bit draw of its seed's stream.
    registry.generate(random_bitvec(n, seed), spec)

    def mean_probability(kind: str, trials: int) -> float:
        report = run_attack(registry, kind, trials=trials, seed=seed)
        return dict(zip(report.columns, report.rows[0]))["mean_probability"]

    for kind in ("passthrough-mixed", "measure-and-copy"):
        assert abs(mean_probability(kind, 200) - analytic_attack_rate(kind, n, q)) <= 1e-9
    # A Haar-random register's overlap with the rank-|E_q|^2 projector is
    # Beta(r, 2^n - r); a trial's probability is the product of two of them.
    rank, dim = error_count(n, q) ** 2, 1 << n
    mean1 = rank / dim
    second1 = mean1 * (rank + 1) / (dim + 1)
    tolerance = _bernstein_tolerance(400, second1**2 - mean1**4)
    rate = analytic_attack_rate("random-state", n, q)
    assert abs(mean_probability("random-state", 400) - rate) <= tolerance
    assert [record.spec for record in registry.records.values()] == [spec]


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), route=st.sampled_from(["direct", "conjugate"]), master_seed=SEEDS)
def test_criterion_10_correction_round_trip_on_certified_codes(spec, route, master_seed):
    registry = OracleRegistry(spec.n, spec.q, master_seed, route=route)
    r = BitVec.zeros(spec.n)
    registry.generate(r, spec)
    fresh = (mint_direct if route == "direct" else mint_conjugate)(registry, r)
    tolerance = 0.0 if route == "direct" else 1e-12
    errors = enumerate_errors(spec.n, spec.q)
    for e, ep in itertools.product(errors, repeat=2):
        fixed = correct(registry, corrupt(fresh, e, ep))
        assert max_deviation(fixed.state, fresh.state) <= tolerance


def _registry_with(spec: CodeSpec) -> tuple[OracleRegistry, Banknote]:
    registry = OracleRegistry(spec.n, spec.q, 0)
    registry.generate(BitVec.zeros(spec.n), spec)
    return registry, mint_direct(registry, BitVec.zeros(spec.n))


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), data=st.data())
def test_criterion_11_query_accounting_on_certified_codes(spec, data):
    registry, fresh = _registry_with(spec)
    session = registry.session(fresh.serial)
    rng = np.random.default_rng(data.draw(SEEDS, label="seed"))
    primal_queries = data.draw(st.integers(0, 12), label="primal queries")
    dual_queries = data.draw(st.integers(0, 12), label="dual queries")
    for side, count in (("primal", primal_queries), ("dual", dual_queries)):
        predicate = syndrome_predicate(spec, side)
        for _ in range(count):
            x = random_bitvec(spec.n, rng)
            assert session.member(side, x) == (predicate.parity.mul_vec(x) in predicate.accepted)
    counters = {"primal": primal_queries, "dual": dual_queries, "coset": 0}
    assert session.counters == counters
    factor = error_count(spec.n, spec.q)
    assert session.combined_equivalent == factor * (primal_queries + dual_queries)

    # A note X^e Z^e' costs one coset query per error tested in lexicographic
    # order, and a session-less call, on a registry that has built no frame
    # yet, gives the same diagnosis and the same probability bit for bit.
    errors = enumerate_errors(spec.n, spec.q)
    i, j = (data.draw(st.integers(0, len(errors) - 1), label=name) for name in ("e", "e'"))
    note = corrupt(fresh, errors[i], errors[j])
    session = registry.session(note.serial)
    assert diagnose(registry, note, session=session) == (errors[i], errors[j])
    assert session.counters == {"primal": 0, "dual": 0, "coset": i + j + 2}
    prob = verify(registry, note, rng=0, session=session).accept_probability
    alone, _ = _registry_with(spec)
    assert diagnose(alone, note) == (errors[i], errors[j])
    assert verify(alone, note, rng=0).accept_probability.hex() == prob.hex()


def _accept_probability(spec: CodeSpec, state: DenseState) -> float:
    registry = OracleRegistry(spec.n, spec.q, 0)
    record = registry.generate(BitVec.zeros(spec.n), spec)
    return verify(registry, Banknote(record.serial, state), rng=0).accept_probability


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), isometry_seed=SEEDS, state_seed=SEEDS)
def test_criterion_12_isometry_covariance_on_certified_codes(spec, isometry_seed, state_seed):
    f = random_isometry(spec.n, isometry_seed)
    mapped_spec = CodeSpec.build(map_subspace(f, spec.code), spec.q)
    assert certify(mapped_spec).passed
    rng = np.random.default_rng(state_seed)
    errors = enumerate_errors(spec.n, spec.q)
    e, ep = (errors[int(rng.integers(len(errors)))] for _ in range(2))
    amps = rng.standard_normal(1 << spec.n) + 1j * rng.standard_normal(1 << spec.n)
    for state in (coset_state(spec.code, e, ep), DenseState(spec.n, amps / np.linalg.norm(amps))):
        p_mapped = _accept_probability(mapped_spec, apply_basis_permutation(state, f))
        assert abs(_accept_probability(spec, state) - p_mapped) <= 1e-10
