"""Tests for code search, certification, error sets, syndrome tables and bounds."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_money.codes import (
    CodeSpec,
    _block_syndromes_distinct,
    _dumps_json,
    _error_positions,
    _error_syndromes,
    build_syndrome_table,
    certify,
    count_error_pairs,
    enumerate_errors,
    error_count,
    gv_margin,
    load_code,
    save_code,
    search_applicable_code,
    soundness_log2,
    soundness_tradeoff,
    stabilizer_generators,
)
from subspace_money import errors
from subspace_money.errors import BudgetExceededError, CodeSearchError, SyndromeCollisionError
from subspace_money.gf2 import (
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    _bit_block,
    _unpack,
    random_bitvec,
)

from conftest import WORKED_PARITY_ROWS
from reference import (
    errors_by_combinations,
    full_space,
    random_subspace,
    search_by_distances,
    syndrome_table_entries,
)


# ---------------------------------------------------------------------------
# search / certify


def test_search_q0_accepts_first_subspace():
    spec = search_applicable_code(6, 0, seed=1)
    assert certify(spec).passed
    assert spec.code.dim == 3


def test_search_finds_single_error_code_at_n6():
    spec = search_applicable_code(6, 1, seed=5)
    assert spec.d_primal >= 3 and spec.d_dual >= 3
    assert certify(spec).passed


def test_search_deterministic_in_seed():
    a = search_applicable_code(8, 1, seed=77)
    b = search_applicable_code(8, 1, seed=77)
    assert a.code == b.code and a.dual_code == b.dual_code


def test_search_infeasible_parameters_raise():
    # d >= 5 with dimension 3 inside F_2^6 violates the Singleton bound
    # (d <= n - k + 1 = 4), so rejection can never terminate.
    with pytest.raises(CodeSearchError):
        search_applicable_code(6, 2, seed=3, max_attempts=3000)


@pytest.mark.parametrize(
    "n, q, bound", [(6, 2, "Singleton bound"), (10, 2, "sphere-packing bound"),
                    (12, 2, "sphere-packing bound")]
)
def test_search_impossible_parameters_fail_before_sampling(monkeypatch, n, q, bound):
    import subspace_money.codes as codes

    # Every candidate is drawn from the generator the search builds from its seed.
    def refuse(*args, **kwargs):
        raise AssertionError("searched although no applicable code exists")

    monkeypatch.setattr(codes, "as_generator", refuse)
    with pytest.raises(CodeSearchError, match=bound):
        search_applicable_code(n, q, seed=3)


def test_search_validates_input(monkeypatch):
    with pytest.raises(ValueError):
        search_applicable_code(7, 1, seed=0)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 << 10)  # 2^10 uint64 words
    with pytest.raises(BudgetExceededError):
        search_applicable_code(40, 1, seed=0)


# (n, q) pairs that pass the Singleton and sphere-packing pre-checks.
SEARCHABLE = [
    (n, q)
    for n in range(4, 17, 2)
    for q in (0, 1, 2)
    if 2 * q + 1 <= n // 2 + 1 and error_count(n, q) <= 1 << (n // 2)
]


def _outcome(search, n, q, rng, attempts):
    try:
        return _dumps_json(search(n, q, rng, max_attempts=attempts).to_json_dict())
    except CodeSearchError:
        return None


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(SEARCHABLE),
    seed=st.integers(0, 2**32 - 1),
    attempts=st.integers(1, 150),
    warmup=st.integers(0, 3),
)
def test_search_matches_exhaustive_distance_reference(case, seed, attempts, warmup):
    # Same draws, same accepted code, same file; a shared generator, already
    # drawn from, ends in the same state.  Up to 150 attempts span several
    # batches of candidates at small n.
    n, q = case
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    fast.random(warmup)
    slow.random(warmup)
    got = _outcome(search_applicable_code, n, q, fast, attempts)
    want = _outcome(search_by_distances, n, q, slow, attempts)
    assert got == want
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


@pytest.mark.parametrize("n, q, batch", [(6, 1, 28), (8, 1, 16)])
def test_search_matches_reference_past_the_first_batch_and_at_exhaustion(n, q, batch):
    # max_attempts off every batch boundary (batch = 512 // (n/2 * n)
    # candidates), for seeds that find a code past the first batch and seeds
    # that run out of attempts.
    outcomes = {"later batch": 0, "exhausted": 0}
    for seed in range(12):
        for attempts in (batch + 3, 2 * batch + 5, 150):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _outcome(search_applicable_code, n, q, fast, attempts)
            want = _outcome(search_by_distances, n, q, slow, attempts)
            assert got == want
            assert fast.bit_generator.state == slow.bit_generator.state
            if got is None:
                outcomes["exhausted"] += 1
            elif slow.bit_generator.state not in _states_within(seed, n, batch):
                outcomes["later batch"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _states_within(seed, n, count):
    """Generator states after each of the first count candidate draws from a fresh seed."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        rng.integers(0, 2, size=(n // 2, n))
        states.append(rng.bit_generator.state)
    return states


def test_search_does_not_count_rank_deficient_draws():
    # At n = 4 two random rows are dependent with probability 46/256, and
    # q = 0 accepts every full-rank draw: one attempt must always suffice.
    deficient = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        deficient += SubspaceBasis(4, [random_bitvec(4, rng), random_bitvec(4, rng)]).dim < 2
        spec = search_applicable_code(4, 0, seed, max_attempts=1)
        assert spec.to_json_dict() == search_by_distances(4, 0, seed, 1).to_json_dict()
    assert deficient > 5


def test_certify_worked_code(worked_spec):
    report = certify(worked_spec)
    assert report.passed
    assert report.d_primal == 3 and report.d_dual == 3
    assert "certified" in report.summary()


def test_certify_full_space_fails():
    bad = CodeSpec.build(full_space(6), q=1)
    report = certify(bad)
    assert not report.passed
    assert report.d_primal == 1
    failed = {c.name for c in report.checks if not c.passed}
    assert "distance_primal" in failed and "code_dimension" in failed


def test_certify_worked_code_wrong_q(worked_code):
    report = certify(CodeSpec.build(worked_code, q=2))
    assert not report.passed  # 3 < 5
    assert {c.name for c in report.checks if not c.passed} == {
        "distance_primal",
        "distance_dual",
    }


@pytest.mark.parametrize("n", [28, 30])
@pytest.mark.parametrize("seed", range(8))
def test_search_and_certify_stop_at_the_proved_floor_with_the_full_walks_distances(n, seed):
    # Walks of 2^(n/2) words span several blocks, where the floor 2q+1 stops them.
    spec = search_applicable_code(n, 2, seed, max_attempts=200)
    want = search_by_distances(n, 2, seed, max_attempts=200)
    assert _dumps_json(spec.to_json_dict()) == _dumps_json(want.to_json_dict())
    report = certify(spec)
    assert report.passed and (report.d_primal, report.d_dual) == (want.d_primal, want.d_dual)


@pytest.mark.parametrize(
    "n, k, q",
    [(22, 11, 2), (24, 12, 3), (26, 13, 3), (20, 12, 2), (24, 11, 2), (30, 15, 4)],
)
def test_certify_reports_the_full_walks_on_codes_below_their_floor(n, k, q):
    # More than 10 rows on at least one side, so the floor proof is attempted
    # and fails; the walks then run to the end and report the exact distances.
    rng = np.random.default_rng(n * 100 + k)
    for _ in range(5):
        spec = CodeSpec.build(random_subspace(n, k, rng), q)
        d_p, d_d = spec.code.min_distance(), spec.dual_code.min_distance()
        need = 2 * q + 1
        assert min(d_p, d_d) < need
        report = certify(spec)
        assert (report.d_primal, report.d_dual) == (d_p, d_d)
        failed = {c.name for c in report.checks if not c.passed} - {"code_dimension"}
        sides = (("distance_primal", d_p), ("distance_dual", d_d))
        assert failed == {name for name, d in sides if d < need}


def test_certify_with_a_negative_q_makes_no_floor_proof():
    # q = -1 cannot be built, yet a file can hold it; every distance check
    # passes, and the syndrome test, which needs q >= 0, is never reached.
    code = random_subspace(24, 12, 5)
    dual = code.dual()
    d_p, d_d = code.min_distance(), dual.min_distance()
    spec = CodeSpec(24, -1, code, dual, d_p, d_d, dual.basis, code.basis)
    report = certify(spec)
    assert report.passed and (report.d_primal, report.d_dual) == (d_p, d_d)
    details = {c.name: c.detail for c in report.checks}
    assert details["distance_primal"] == f"d={d_p}, need >= -1 for q=-1"
    assert details["distance_dual"] == f"d={d_d}, need >= -1 for q=-1"


def test_certify_makes_no_floor_proof_over_more_errors_than_syndromes(monkeypatch):
    # 12,951 errors of weight <= 4 on 24 coordinates, 4096 syndromes: two must
    # collide, so no proof is made, and none may outgrow the 2^12-word walks.
    code = random_subspace(24, 12, 5)
    d_p, d_d = code.min_distance(), code.dual().min_distance()
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 << 12)
    _error_positions.cache_clear()
    spec = CodeSpec.build(code, 4)
    report = certify(spec)
    assert (report.d_primal, report.d_dual) == (spec.d_primal, spec.d_dual) == (d_p, d_d)
    assert not report.passed


def test_certify_makes_no_floor_proof_whose_error_table_outgrows_the_walk(monkeypatch):
    # 2,325 errors of weight <= 3 on 24 coordinates fit 4096 syndromes, but
    # their 3 x 2,325 support table is larger than the 2^12-word walks.
    code = random_subspace(24, 12, 5)
    d_p, d_d = code.min_distance(), code.dual().min_distance()
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 << 12)
    _error_positions.cache_clear()
    report = certify(CodeSpec.build(code, 3))
    assert (report.d_primal, report.d_dual) == (d_p, d_d)


def test_certified_codes_have_no_light_codewords():
    spec = search_applicable_code(8, 1, seed=9)
    for side in (spec.code, spec.dual_code):
        for w in side.vectors():
            assert w.value == 0 or w.weight >= 3


# ---------------------------------------------------------------------------
# error sets


def test_enumerate_errors_counts():
    assert [str(e) for e in enumerate_errors(6, 0)] == ["000000"]
    e61 = enumerate_errors(6, 1)
    assert len(e61) == 7
    assert [str(e) for e in e61] == [
        "000000",
        "000001",
        "000010",
        "000100",
        "001000",
        "010000",
        "100000",
    ]
    assert len(enumerate_errors(4, 2)) == 11


def test_enumerate_errors_sorted_and_unique():
    es = enumerate_errors(7, 3)
    vals = [e.value for e in es]
    assert vals == sorted(set(vals))
    assert all(e.weight <= 3 for e in es)
    assert len(es) == error_count(7, 3)


def _largest_q(n: int, most: int) -> int:
    """The largest q <= n + 2 with at most `most` errors of weight <= q on n coordinates."""
    return max(q for q in range(n + 3) if error_count(n, q) <= most)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 70), st.just(140)), data=st.data())
def test_error_table_is_the_reference_enumeration(n, data):
    # Both the support table and its BitVec view, against one from_support per
    # combination sorted by value; q runs past n, where every error is tolerated.
    q = data.draw(st.integers(0, _largest_q(n, 3000)), label="q")
    want = errors_by_combinations(n, q)
    positions = _error_positions(n, q)
    assert positions.shape == (min(q, n), len(want)) and not positions.flags.writeable
    supports = [[p for p in column if p < n] for column in positions.T.tolist()]
    assert supports == [list(e.support()) for e in want]
    assert all(p == n for column in positions.T.tolist() for p in column[len(column) :])
    assert enumerate_errors(n, q) == tuple(want)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(2, 70), st.just(140)), data=st.data())
def test_error_syndromes_are_per_error_products_for_one_matrix_and_a_stack(n, data):
    # Both sides of a random code, H = the dual's rows (checks for C) and the
    # code's rows (checks for the dual), one matrix at a time and as a stack.
    q = data.draw(st.integers(0, _largest_q(n, 600)), label="q")
    dim = data.draw(st.integers(1, n - 1), label="dim")
    code = random_subspace(n, dim, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    tolerated = errors_by_combinations(n, q)
    sides = [code.dual().basis, code.basis]
    for parity in sides:
        got = _unpack(_error_syndromes(_bit_block(parity.row_values, n), q))
        assert got == [parity.mul_vec(e).value for e in tolerated]
    rows = data.draw(st.integers(1, min(n, 63)), label="rows")
    blocks = [random_subspace(n, rows, s).basis.row_values for s in (1, 2, 3)]
    stack = np.stack([_bit_block(block, n) for block in blocks])
    got = _error_syndromes(stack, q)
    assert got.shape == (len(tolerated), 3)
    for i, block in enumerate(blocks):
        parity = Gf2Matrix(rows, n, block)
        assert got[:, i].tolist() == [parity.mul_vec(e).value for e in tolerated]


def test_a_cold_error_table_at_30_4_stays_small():
    # 31,931 errors: one support table of 4 x 31,931 int64 and the sort's
    # index; no BitVec or Python int per error.
    _error_positions.cache_clear()
    tracemalloc.start()
    try:
        _error_positions(30, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_enumerate_errors_budget(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 * 100)  # 100 int64 words
    with pytest.raises(BudgetExceededError):
        enumerate_errors(30, 5)


def test_count_error_pairs():
    assert count_error_pairs(6, 1) == 49
    assert count_error_pairs(9, 0) == 1
    assert count_error_pairs(14, 3) == 470**2
    for n in range(1, 17):
        for q in range(4):
            assert count_error_pairs(n, q) == len(enumerate_errors(n, q)) ** 2


# ---------------------------------------------------------------------------
# syndrome tables


def test_syndrome_table_worked_code():
    # Built from the published parity rows: the good syndromes are the zero
    # vector plus the six columns of that matrix, and 111 is not among them.
    h = Gf2Matrix.from_strings(WORKED_PARITY_ROWS)
    table = build_syndrome_table(h, q=1)
    assert len(table) == 7
    expected = {BitVec.from_string("000")} | {h.column(j) for j in range(6)}
    assert set(table.entries) == expected
    assert BitVec.from_string("111") not in table.entries


def test_syndrome_table_decodes_each_error(worked_spec):
    table = build_syndrome_table(worked_spec.parity_primal, q=1)
    for e in enumerate_errors(6, 1):
        assert table.decode(worked_spec.parity_primal.mul_vec(e)) == e


def test_syndrome_table_q0_single_entry(worked_spec):
    table = build_syndrome_table(worked_spec.parity_primal, q=0)
    assert len(table) == 1
    assert table.decode(BitVec.zeros(3)) == BitVec.zeros(6)


def test_syndrome_table_collision_detected():
    # The full space has d=1, so two weight-<=1 errors share a syndrome for
    # any parity matrix of a distance-2 code; take the repetition-style rows.
    parity = Gf2Matrix.from_strings(["1100"])
    with pytest.raises(SyndromeCollisionError):
        build_syndrome_table(parity, q=1)
    # With no rows there is no syndrome to key a table by.
    with pytest.raises(ValueError, match="matrix has no rows"):
        build_syndrome_table(Gf2Matrix.zeros(0, 4), q=1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_error_syndromes_distinct_exactly_when_distance_allows(n, data):
    k = data.draw(st.integers(1, n - 1), label="k")
    q = data.draw(st.integers(0, 2), label="q")
    code = random_subspace(n, k, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dual = code.dual()
    errors = enumerate_errors(n, q)
    # ker(dual basis) is the code, ker(code basis) the dual.
    for kernel, parity in ((code, dual.basis), (dual, code.basis)):
        syndromes = _unpack(_error_syndromes(_bit_block(parity.row_values, n), q))
        assert syndromes == [parity.mul_vec(e).value for e in errors]
        distinct = _block_syndromes_distinct(_bit_block(parity.row_values, n), q)
        assert distinct == (kernel.min_distance() >= 2 * q + 1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 10), data=st.data())
def test_syndrome_table_matches_per_error_reference(n, data):
    # Any parity matrix, colliding or not: the same entries in the same
    # order, or the same error naming the same first colliding pair.
    m = data.draw(st.integers(1, n), label="rows")
    q = data.draw(st.integers(0, 2), label="q")
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    parity = Gf2Matrix(m, n, rows)
    try:
        want = list(syndrome_table_entries(parity, q).items())
    except SyndromeCollisionError as err:
        with pytest.raises(SyndromeCollisionError) as got:
            build_syndrome_table(parity, q)
        assert str(got.value) == str(err)
    else:
        assert list(build_syndrome_table(parity, q).entries.items()) == want


def test_syndrome_table_wider_than_one_limb():
    # 70 parity rows: the syndromes are packed as two uint64 limbs each.
    code = random_subspace(140, 70, 8)
    table = build_syndrome_table(code.basis, q=1)
    assert list(table.entries.items()) == list(syndrome_table_entries(code.basis, 1).items())


def test_syndrome_table_collision_names_first_pair():
    # Columns 10, 10, 01, 01: errors 0001 and 0010 come right after 0000.
    parity = Gf2Matrix.from_strings(["1100", "0011"])
    with pytest.raises(SyndromeCollisionError, match="errors 0001 and 0010 share syndrome 01;"):
        build_syndrome_table(parity, q=1)


# ---------------------------------------------------------------------------
# stabilizer generators


def test_stabilizer_generators_worked_code(worked_spec):
    gens = stabilizer_generators(worked_spec)
    assert gens.x_type_rows.rows == 3
    assert gens.z_type_rows.rows == 3
    assert gens.generator_count == 6
    strings = gens.pauli_strings()
    assert all(set(s) <= {"X", "I"} for s in strings[:3])
    assert all(set(s) <= {"Z", "I"} for s in strings[3:])


def test_stabilizer_generators_smallest_case():
    spec = CodeSpec.build(SubspaceBasis.from_strings(["11"]), q=0)
    gens = stabilizer_generators(spec)
    assert gens.x_type_rows.rows == 1 and gens.z_type_rows.rows == 1


def test_generator_count_equals_n_for_applicable_specs():
    for n, seed in ((6, 0), (8, 1), (10, 2)):
        spec = search_applicable_code(n, 1, seed=seed)
        assert stabilizer_generators(spec).generator_count == n


# ---------------------------------------------------------------------------
# bound formulas


def test_gv_margin_values():
    assert gv_margin(6, 0) == 1.0
    h_third = (1 / 3) * math.log2(3) + (2 / 3) * math.log2(3 / 2)
    assert gv_margin(6, 1) == pytest.approx(1 - 2 * h_third, abs=1e-12)
    assert gv_margin(6, 1) == pytest.approx(-0.8365916681089791, abs=1e-9)
    assert gv_margin(4, 1) == -1.0  # n = 4q exactly
    assert gv_margin(2, 1) == 1.0  # 2q/n = 1 endpoint
    with pytest.raises(ValueError):
        gv_margin(4, 3)


def test_soundness_tradeoff_values():
    assert soundness_tradeoff(6, 0) == pytest.approx(2.0**-3, rel=1e-15)
    assert soundness_tradeoff(6, 1) == pytest.approx(49**2 / 8, rel=1e-12)
    assert soundness_tradeoff(6, 1, eps=0.5) == pytest.approx(49**2 / 2, rel=1e-12)
    # Non-decreasing in q at fixed n.
    for n in (4, 8, 12):
        vals = [soundness_tradeoff(n, q) for q in range(5)]
        assert vals == sorted(vals)
    with pytest.raises(ValueError):
        soundness_tradeoff(5, 1)
    with pytest.raises(ValueError):
        soundness_tradeoff(6, 1, eps=0.0)


def test_soundness_log_domain_consistency():
    for n in range(4, 42, 2):
        for q in range(5):
            exact = count_error_pairs(n, q) ** 2 * 2.0 ** (-n / 2)
            assert soundness_tradeoff(n, q) == pytest.approx(exact, rel=1e-12)
            assert soundness_log2(n, q) == pytest.approx(math.log2(exact), abs=1e-9)


def test_griesmer_bound_rules_out_no_code_the_other_two_allow():
    # Griesmer: an [n, k, d] binary code needs n >= sum_{i<k} ceil(d / 2^i).
    # Every (n, q) where it fails for k = n/2, d = 2q+1 is refused by the
    # Singleton or sphere-packing bound before the first attempt.
    refused = 0
    for n in range(2, 201, 2):
        for q in range(40):
            k, d = n // 2, 2 * q + 1
            if n >= sum(-(-d // (1 << i)) for i in range(k)):
                continue
            refused += 1
            with pytest.raises(CodeSearchError, match="Singleton|sphere-packing"):
                search_applicable_code(n, q, seed=0, max_attempts=0)
    assert refused > 0


def test_gv_negative_margin_means_search_succeeds():
    rng = np.random.default_rng(31)
    for n in (6, 8, 10):
        assert gv_margin(n, 1) < 0
        spec = search_applicable_code(n, 1, seed=rng)
        assert certify(spec).passed


# ---------------------------------------------------------------------------
# serialization


def test_code_json_round_trip(tmp_path, worked_spec):
    path = tmp_path / "code.json"
    save_code(worked_spec, path)
    loaded = load_code(path)
    assert loaded == worked_spec
    # Byte-identical re-serialization.
    assert _dumps_json(loaded.to_json_dict()) == path.read_text()
    data = json.loads(path.read_text())
    assert data["format"] == "codespec-v1"
    assert data["d_primal"] == 3


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["n", "q", "d_primal", "d_dual"])
def test_code_json_refuses_a_bool_where_an_int_is_asked_for(tmp_path, worked_spec, key, value):
    # A JSON true is no int, though Python's bool subclasses int.
    path = tmp_path / "code.json"
    path.write_text(json.dumps({**worked_spec.to_json_dict(), key: value}))
    with pytest.raises(ValueError, match=f"^field '{key}' is missing or malformed$"):
        load_code(path)


# Every value a JSON file of the package could hold, and more: nested
# containers, tuples, empty ones, strings that need escapes, big and negative
# ints, and the non-finite floats that json writes as NaN and Infinity.
_JSON_STRINGS = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€😀a0 ') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_STRINGS,
    lambda values: (
        st.lists(values, max_size=3)
        | st.lists(values, max_size=3).map(tuple)
        | st.dictionaries(_JSON_STRINGS, values, max_size=3)
    ),
    max_leaves=12,
)


@given(data=st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=3))
def test_dumps_json_writes_the_bytes_of_the_stdlib_indenter(data):
    assert _dumps_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_code_json_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope"}))
    with pytest.raises(ValueError):
        load_code(path)
