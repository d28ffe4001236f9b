"""Tests for membership predicates, phase oracles, coset frames and query counts."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_money import oracles
from subspace_money.codes import (
    CodeSpec,
    certify,
    enumerate_errors,
    error_count,
    search_applicable_code,
)
from subspace_money.errors import SyndromeCollisionError
from subspace_money.gf2 import BitVec, Gf2Matrix
from subspace_money.oracles import SIDES, VerifierFrame, _syndromes
from subspace_money.scheme import (
    Banknote,
    MintRecord,
    OracleRegistry,
    correct,
    corrupt,
    diagnose,
    mint_dump,
    verify,
)
from subspace_money.states import (
    DenseState,
    apply_pauli,
    coset_state,
    parse_dump,
    subspace_state,
)

from conftest import certified_codes
from reference import (
    CombinedOracle,
    _frequency,
    all_rows_kept_coefficients,
    basis_state,
    member,
    predicate_frame,
    predicate_pair,
    random_subspace,
    subset_predicate,
    syndrome_mask,
    syndrome_predicate,
    tolerated_projector,
    uniform_state,
)


def bv(s):
    return BitVec.from_string(s)


def _tagged(tag: BitVec, x: BitVec) -> BitVec:
    """The combined oracle's query: the tag's bits, then x's."""
    return BitVec(tag.n + x.n, (tag.value << x.n) | x.value)


# ---------------------------------------------------------------------------
# membership predicates


def test_member_subset_worked_examples(worked_spec):
    pred = subset_predicate(worked_spec, "primal")
    assert pred(bv("000000"))
    assert pred(bv("110000"))  # one flip away from 111000
    assert not pred(bv("000111"))  # undecodable syndrome


def test_member_syndrome_worked_examples(worked_spec):
    pred = syndrome_predicate(worked_spec, "primal")
    for w in worked_spec.code.vectors():
        assert pred(w)  # all-zero syndrome
    assert not pred(bv("000111"))


def test_member_kind_guards(worked_spec):
    sub = subset_predicate(worked_spec, "primal")
    with pytest.raises(ValueError):
        sub(bv("0000"))


def test_subset_syndrome_agreement_exhaustive(worked_spec):
    for side in ("primal", "dual"):
        sub = subset_predicate(worked_spec, side)
        syn = syndrome_predicate(worked_spec, side)
        for v in range(64):
            x = BitVec(6, v)
            assert sub(x) == syn(x)


def test_subset_size_is_cosets_times_code(worked_spec):
    pred = subset_predicate(worked_spec, "primal")
    assert int(pred.support_mask().sum()) == 7 * 8
    dual_pred = subset_predicate(worked_spec, "dual")
    assert int(dual_pred.support_mask().sum()) == 7 * 8


def test_coset_predicates_partition_the_subset(worked_spec):
    subset = subset_predicate(worked_spec, "primal")
    union = np.zeros(64, dtype=int)
    for e in enumerate_errors(6, 1):
        union += subset.coset(e).support_mask()
    # Disjoint cosets: every point covered at most once, 56 points covered.
    assert union.max() == 1
    assert union.sum() == 56
    subset_mask = subset.support_mask()
    assert np.array_equal(union.astype(bool), subset_mask)


# ---------------------------------------------------------------------------
# coset weights


def subset_probability(spec, state):
    """Probability of the primal subset, summed from the frame's per-coset row weights."""
    return float(VerifierFrame.of(spec).weights(state)[0].sum())


def test_coset_weights_match_direct_masking(worked_spec):
    pred = subset_predicate(worked_spec, "primal")
    frame = VerifierFrame.of(worked_spec)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state = DenseState(6, amps / np.linalg.norm(amps))
    probs = state.probabilities()
    weights, _ = frame.weights(state)
    assert weights.shape == (7,)
    for e, row in zip(enumerate_errors(6, 1), frame.error_cosets[0]):
        direct = probs[pred.coset(e).support_mask()].sum()
        assert weights[row] == pytest.approx(direct, abs=1e-15)
    prob_in = float(probs[pred.support_mask()].sum())
    assert subset_probability(worked_spec, state) == pytest.approx(prob_in, abs=1e-15)


def test_coset_weights_of_code_and_outside_states(worked_spec):
    inside_state = subspace_state(worked_spec.code)
    assert subset_probability(worked_spec, inside_state) == pytest.approx(1.0, abs=1e-12)

    outside_state = basis_state(6, bv("000111"))
    assert subset_probability(worked_spec, outside_state) == 0.0


def test_project_uniform_superposition(worked_spec):
    prob = subset_probability(worked_spec, uniform_state(6))
    assert prob == pytest.approx(56 / 64, abs=1e-12)


# ---------------------------------------------------------------------------
# combined oracle


def test_combined_oracle_tag_width(worked_spec):
    oracle = CombinedOracle(worked_spec)
    assert oracle.k == 4  # 1 + ceil(log2 7)
    assert oracle.n == 10
    assert len(oracle.tag_map) == 14


def test_combined_oracle_layout_matches_low_bit_side_selection(worked_spec):
    oracle = CombinedOracle(worked_spec)
    zero = BitVec.zeros(6)
    assert oracle.tag_for("primal", zero).value == 0
    assert oracle.tag_for("dual", zero).value == 1
    e1 = enumerate_errors(6, 1)[1]
    assert oracle.tag_for("primal", e1).value == 2
    assert oracle.tag_for("dual", e1).value == 3


def test_member_combined_basic(worked_spec):
    oracle = CombinedOracle(worked_spec)
    tag = oracle.tag_for("primal", BitVec.zeros(6))
    for w in worked_spec.code.vectors():
        assert oracle.member(_tagged(tag, w))
    # Padding tags never match.
    for v in (14, 15):
        assert not oracle.member(_tagged(BitVec(4, v), bv("000000")))
    with pytest.raises(ValueError):
        oracle.member(bv("000000"))


def test_member_combined_unfolds_to_subset(worked_spec):
    oracle = CombinedOracle(worked_spec)
    pred = subset_predicate(worked_spec, "primal")
    errors = enumerate_errors(6, 1)
    for v in range(64):
        x = BitVec(6, v)
        via_tags = any(
            oracle.member(_tagged(oracle.tag_for("primal", e), x)) for e in errors
        )
        assert via_tags == pred(x)


def test_combined_oracle_total_matching_count(worked_spec):
    oracle = CombinedOracle(worked_spec)
    total = sum(
        1
        for tag in range(1 << oracle.k)
        for v in range(64)
        if oracle.member(_tagged(BitVec(oracle.k, tag), BitVec(6, v)))
    )
    assert total == 7 * 8 * 2


# ---------------------------------------------------------------------------
# query counts


def _worked_session(spec):
    """A fresh session on the worked code, installed as r = 0 of a (6, 1) registry."""
    registry = OracleRegistry(6, 1, master_seed=0)
    record = MintRecord(BitVec.zeros(6), BitVec.zeros(18), spec, "direct")
    registry.install_record(record)
    return registry.session(record.serial)


def test_session_counters_charge_each_oracle(worked_spec):
    # A session counts three oracles; a primal or dual query is |E_1| = 7 combined ones.
    assert error_count(6, 1) == 7
    session = _worked_session(worked_spec)
    assert session.combined_equivalent == 0
    session.charge("primal")
    assert session.combined_equivalent == 7
    session.charge("dual")
    assert session.combined_equivalent == 14
    session.charge("coset", 2)
    assert session.combined_equivalent == 16
    assert session.counters == {"primal": 1, "dual": 1, "coset": 2}
    # There is no combined oracle to charge; refusals charge nothing.
    for name in ("nope", "combined"):
        with pytest.raises(ValueError, match=f"unknown oracle name '{name}'"):
            session.charge(name)
    with pytest.raises(ValueError, match="count must be >= 0"):
        session.charge("primal", -1)
    assert session.counters == {"primal": 1, "dual": 1, "coset": 2}


def test_session_counters_are_a_snapshot(worked_spec):
    # counters is a snapshot: later charges do not reach it, and editing it charges nothing.
    session = _worked_session(worked_spec)
    before = session.counters
    session.charge("primal")
    before["dual"] = 5
    assert before == {"primal": 0, "dual": 5, "coset": 0}
    assert session.counters == {"primal": 1, "dual": 0, "coset": 0}
    assert session.combined_equivalent == 7


# ---------------------------------------------------------------------------
# cross-validation on random codes


def test_subset_syndrome_agreement_random_codes():
    rng = np.random.default_rng(11)
    for n in (6, 8, 10):
        spec = search_applicable_code(n, 1, seed=rng)
        for side in ("primal", "dual"):
            sub = subset_predicate(spec, side).support_mask()
            syn = syndrome_predicate(spec, side).support_mask()
            assert np.array_equal(sub, syn)


def test_randomized_agreement_large_n():
    # Above the exhaustive range, sample 10^5 random inputs instead.
    spec = search_applicable_code(14, 1, seed=19)
    sub = subset_predicate(spec, "primal")
    syn = syndrome_predicate(spec, "primal")
    rng = np.random.default_rng(23)
    xs = [BitVec(14, int(v)) for v in rng.integers(0, 1 << 14, size=100_000)]
    assert all(sub(x) == syn(x) for x in xs)


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([6, 8, 10, 12]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_syndrome_array_masks_match_per_string_reference(n, seed, data):
    spec = search_applicable_code(n, 1, seed=seed)
    oracle = CombinedOracle(spec)
    xs = [BitVec(n, v) for v in range(1 << n)]
    for side in SIDES:
        subset = subset_predicate(spec, side)
        for pred in (subset, syndrome_predicate(spec, side)):
            assert np.array_equal(pred.support_mask(), [pred(x) for x in xs])
            assert np.array_equal(pred.support_mask(), syndrome_mask(pred))
        code = spec.code if side == "primal" else spec.dual_code
        union = np.zeros(1 << n, dtype=int)
        for e in oracle.errors:
            mask = subset.coset(e).support_mask()
            assert np.array_equal(mask, [member(code, x ^ e) for x in xs])
            tag = oracle.tag_for(side, e)
            assert np.array_equal(mask, [oracle.member(_tagged(tag, x)) for x in xs])
            union += mask
        # The coset masks partition the subset mask.
        assert union.max() == 1
        assert np.array_equal(union.astype(bool), subset.support_mask())

    # Codes of any dimension and tolerance, applicable or not, on both routes
    # and every coset predicate, against the lookup of H x over all strings.
    m = data.draw(st.integers(2, n), label="length")
    k = data.draw(st.integers(1, m - 1), label="k")
    q = data.draw(st.sampled_from([0, 1, 2]), label="q")
    spec = CodeSpec.build(random_subspace(m, k, seed), q)
    for side in SIDES:
        preds = [syndrome_predicate(spec, side)]
        try:
            preds.append(subset_predicate(spec, side))
        except SyndromeCollisionError:
            pass  # two tolerated errors share a syndrome on this side
        preds += [preds[0].coset(e) for e in enumerate_errors(m, q)]
        for pred in preds:
            assert np.array_equal(pred.support_mask(), syndrome_mask(pred)), pred.kind


def test_verifier_frame_needs_the_canonical_parity_rows(worked_spec):
    # Rows spanning the right space in another form would misplace the coset
    # leaders or repeat codewords, so certification refuses them and the
    # frame checks them.
    r0, r1, r2 = worked_spec.parity_primal.row_values
    unreduced = dataclasses.replace(worked_spec, parity_primal=Gf2Matrix(3, 6, [r0 ^ r1, r1, r2]))
    rows = worked_spec.parity_dual.row_values
    redundant = dataclasses.replace(worked_spec, parity_dual=Gf2Matrix(4, 6, rows + (rows[0],)))
    # The code's rows in another basis would put a note file's lines in the wrong columns.
    c0, c1, c2 = rows
    mixed = dataclasses.replace(worked_spec, parity_dual=Gf2Matrix(3, 6, [c0 ^ c1, c1, c2]))
    cases = ((unreduced, "parity_primal"), (redundant, "parity_dual"), (mixed, "parity_dual"))
    for spec, side in cases:
        assert [c.name for c in certify(spec).checks if not c.passed] == [side]
        with pytest.raises(ValueError, match="not RREF bases"):
            VerifierFrame.of(spec)
    frame = VerifierFrame.of(worked_spec)
    assert frame.index.shape == (7, 8) and sorted(frame.keep) == list(frame.keep)


def _assert_same_frame(got, want):
    assert got.n == want.n
    for name in ("leaders", "keep", "rows", "error_cosets", "index"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), data=st.data())
def test_frame_of_matches_predicate_frames(spec, data):
    # Certified codes against the frames of both predicate routes.
    frame = VerifierFrame.of(spec)
    for approach in ("subset", "syndrome"):
        _assert_same_frame(frame, predicate_frame(*predicate_pair(spec, approach)))
    # Under the code rows in reverse order, H x is the Walsh frequency of x's dual syndrome.
    k, parity = spec.parity_dual.rows, spec.parity_dual
    strings = [BitVec(spec.n, x) for x in range(1 << spec.n)]
    frequencies = _syndromes(parity.row_values[::-1], np.arange(1 << spec.n)).tolist()
    assert frequencies == [_frequency(parity.mul_vec(x).value, k) for x in strings]
    for side, predicate in zip(SIDES, predicate_pair(spec, "syndrome")):
        assert [frame.member(side, x) for x in strings] == [predicate(x) for x in strings]

    # Codes of any dimension and tolerance, applicable or not, against the
    # syndrome route, the one that builds for every code.
    n = data.draw(st.integers(2, 8), label="length")
    dim = data.draw(st.integers(1, n - 1), label="k")
    q = data.draw(st.sampled_from([0, 1, 2]), label="q")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    spec = CodeSpec.build(random_subspace(n, dim, seed), q)
    _assert_same_frame(VerifierFrame.of(spec), predicate_frame(*predicate_pair(spec, "syndrome")))


@functools.cache
def _pinned_22_2() -> CodeSpec:
    """The [22, 11] code with d = 5/5 that CI pins: 254 accepted cosets of 2^11 strings."""
    return search_applicable_code(22, 2, 0)


@settings(max_examples=12, deadline=None)
@given(spec=st.one_of(st.builds(_pinned_22_2), certified_codes()), data=st.data())
def test_note_lines_leave_the_index_unbuilt_and_the_index_lists_leader_cosets(spec, data):
    # A note file's lines are scored, diagnosed and corrected from the leaders alone.
    reg = OracleRegistry(spec.n, spec.q, master_seed=spec.n)
    r = BitVec.zeros(spec.n)
    record = reg.generate(r, spec)
    lines = parse_dump(mint_dump(reg, r)[1])
    errors = enumerate_errors(spec.n, spec.q)
    e, ep = (errors[data.draw(st.integers(0, len(errors) - 1), label=s)] for s in ("e", "e'"))
    bad = corrupt(Banknote(record.serial, lines), e, ep)
    assert verify(reg, bad, rng=0).accept_probability == 1.0
    assert diagnose(reg, bad) == (e, ep)
    fixed = correct(reg, bad)
    for got, want in zip(fixed.state, lines):
        assert np.array_equal(got, want)
    frame = record.frame
    assert "index" not in vars(frame)
    # Built on first read, index lists leader ^ c(u), c(u) summing the code rows picked by u.
    code_rows = spec.parity_dual.row_values
    span = [functools.reduce(int.__xor__, (c for j, c in enumerate(code_rows) if u >> j & 1), 0)
            for u in range(1 << len(code_rows))]
    want = frame.leaders[:, None] ^ np.array(span, dtype=np.int64)
    assert (frame.index.dtype, frame.index.tobytes()) == (want.dtype, want.tobytes())
    assert np.array_equal(frame.index[:, 0], frame.leaders) and not frame.index.flags.writeable


def test_coset_probability_is_ver_of_the_coset_state_bitwise(worked_spec):
    # The frame row built in closed form holds the bits a gather of the 2^n state reads.
    frame = VerifierFrame.of(worked_spec)
    errors = enumerate_errors(6, 1)
    for e in errors:
        for ep in errors:
            prob, _ = frame.apply(coset_state(worked_spec.code, e, ep))
            got = frame.coset_probability(e, ep)
            assert np.float64(got).tobytes() == np.float64(prob).tobytes()
    outside = next(BitVec(6, x) for x in range(64) if not frame.member("primal", BitVec(6, x)))
    for e, ep in ((outside, errors[0]), (BitVec.zeros(4), errors[0]), (errors[0], BitVec.zeros(4))):
        with pytest.raises(ValueError, match="is not a tolerated error on n=6 qubits"):
            frame.coset_probability(e, ep)


def test_coset_probability_runs_on_one_frame_row():
    # At n = 16 the (|S_p|, 2^k) complex block is 17 rows of 4 KiB; the kernel
    # holds the row, its transform and their scratch, a few rows in all.
    frame = VerifierFrame.of(search_applicable_code(16, 1, seed=0))
    e, e_prime = BitVec(16, 1 << 3), BitVec(16, 1 << 9)
    assert frame.coset_probability(e, e_prime) == 1.0
    tracemalloc.start()
    try:
        frame.coset_probability(e, e_prime)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.index.shape == (17, 256)
    assert peak < 8 * 16 * frame.index.shape[1]


@settings(max_examples=30, deadline=None)
@given(spec=certified_codes(), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_are_the_kernels_bitwise(spec, seed):
    # tr(P) / 2^n and <v|P|v> are the trace and the diagonal of the tolerated
    # projector, and <v|P|v> is bit for bit the block kernel on one-hot real
    # registers, inside and outside the cosets.
    frame = VerifierFrame.of(spec)
    proj = tolerated_projector(spec)
    assert frame.mixed_probability() == pytest.approx(np.trace(proj).real / len(proj), abs=1e-12)
    assert frame.pair_probability((None, None)) == frame.mixed_probability() ** 2
    rng = np.random.default_rng(seed)
    dim = 1 << spec.n
    outside = np.setdiff1d(np.arange(dim), frame.index)
    assert outside.size
    strings = np.concatenate(
        [rng.choice(frame.index.reshape(-1), 5), rng.choice(outside, 5), rng.integers(0, dim, 6)]
    )
    one_hot = np.zeros((strings.size, 1, dim))
    one_hot[np.arange(strings.size), 0, strings] = 1.0
    want = frame.block_probabilities(one_hot)
    got = frame.basis_probabilities(strings)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert np.count_nonzero(want[:5]) == 5 and not np.any(want[5:10])
    assert np.abs(want - np.diagonal(proj).real[strings]).max() < 1e-12
    for bad in ([-1], [dim]):
        with pytest.raises(ValueError, match=f"basis strings must lie in \\[0, {dim}\\)"):
            frame.basis_probabilities(np.array(bad))


def _pauli_error(rng, n, q, over):
    """A uniform error pattern of weight at most q, or of weight above q if over."""
    weight = int(rng.integers(q + 1, n + 1) if over else rng.integers(0, q + 1))
    return BitVec.from_support(n, rng.choice(n, weight, replace=False).tolist())


@settings(max_examples=60, deadline=None)
@given(
    spec=certified_codes(),
    seed=st.integers(0, 2**32 - 1),
    over=st.tuples(st.booleans(), st.booleans()),
)
def test_register_probability_is_vers_probability_bitwise(spec, seed, over):
    # Ver2 scores each register with Ver's kernel, so a note scores the same
    # bits in Ver2 as in Ver, whether its X and Z errors are tolerated or
    # over-weight.  Transforming the cosets unnormalised scored a fresh note
    # 1 - 2^-53 where k = n/2 is odd.
    frame = VerifierFrame.of(spec)
    rng = np.random.default_rng(seed)
    e, ep = (_pauli_error(rng, spec.n, spec.q, side_over) for side_over in over)
    note = apply_pauli(subspace_state(spec.code), e, ep)
    want = frame.apply(note)[0]
    products = {(note, note): want * want, (note, None): want * frame.mixed_probability()}
    for pair, product in products.items():
        assert np.float64(frame.pair_probability(pair)).tobytes() == np.float64(product).tobytes()
    if not any(over):
        assert want == 1.0


def _note_outputs(frame, state):
    """The bytes of Ver's probability, its post-state, Ver2's and both weights arrays."""
    prob, build = frame.apply(state)
    post = b"" if build is None else build().amplitudes.tobytes()
    weights = (w.tobytes() for w in frame.weights(state))
    pair = np.float64(frame.pair_probability((state, state))).tobytes()
    return np.float64(prob).tobytes(), post, pair, *weights


@settings(max_examples=60, deadline=None)
@given(
    spec=certified_codes(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["tolerated", "over", "superposition"]),
)
def test_gather_chunk_size_changes_no_bit(spec, seed, kind):
    # The occupied cosets are gathered a chunk of rows at a time: one row, two
    # rows and every row at once stack the same rows in the same order, so a
    # row dropped at a chunk boundary or stacked out of order shows here.
    frame = VerifierFrame.of(spec)
    rng = np.random.default_rng(seed)
    if kind == "superposition":
        errors = enumerate_errors(spec.n, spec.q)
        amps = sum(
            complex(*rng.normal(size=2))
            * coset_state(spec.code, *(errors[i] for i in rng.integers(len(errors), size=2)))
            .amplitudes
            for _ in range(rng.integers(2, 5))
        )
        state = DenseState(spec.n, amps / np.linalg.norm(amps))
    else:
        over = (kind == "over", bool(rng.integers(2)))
        e, ep = (_pauli_error(rng, spec.n, spec.q, side_over) for side_over in over)
        state = apply_pauli(subspace_state(spec.code), e, ep)
    rows, size = frame.index.shape
    runs = []
    for chunk in (size, 2 * size, rows * size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_GATHER_CHUNK", chunk)
            runs.append(_note_outputs(frame, state))
    assert runs[0] == runs[1] == runs[2]


@settings(max_examples=30, deadline=None)
@given(
    spec=certified_codes(),
    registers=st.sampled_from([1, 7, 16, 33]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kept_coefficients_match_fwht_of_the_gathered_cosets(spec, registers, seed):
    # Bit for bit: the same butterflies, and each vector's coefficients in the same order.
    frame = VerifierFrame.of(spec)
    rng = np.random.default_rng(seed)
    dim = 1 << spec.n
    pairs = rng.standard_normal((dim, registers)) + 1j * rng.standard_normal((dim, registers))
    blocks = [
        rng.standard_normal((registers, dim)),
        rng.standard_normal((registers, 1, dim)),  # one entry per string: a non-C gather
        rng.standard_normal((registers, 2, 2, dim)),  # a random-state attack block
        np.moveaxis(pairs, 0, -1),  # non-contiguous, as double_verify's second register
    ]
    for amps in blocks:
        got, want = frame._kept_coefficients(amps), all_rows_kept_coefficients(amps, frame)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert got.flags.c_contiguous
