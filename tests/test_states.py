"""Tests for the exact state layer."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subspace_money.codes import search_applicable_code
from subspace_money import errors
from subspace_money.errors import BudgetExceededError
from subspace_money.gf2 import (
    BasisMap,
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    random_bitvec,
)
from subspace_money.states import (
    DenseState,
    _dump_lines,
    apply_basis_permutation,
    apply_pauli,
    coset_state,
    dump_state,
    fwht,
    max_deviation,
    parse_dump,
    pauli_lines,
    scatter_dump,
    subspace_state,
)

from conftest import WORKED_CODEWORDS
from reference import (
    ATOL_EXACT,
    apply_pauli_by_gather,
    basis_state,
    dump_lines_by_format,
    dump_state_by_fstrings,
    hadamard_all,
    intersection_dim,
    parse_dump_by_lines,
    random_basis_map,
    tolerated_coset_states,
    uniform_state,
)


def bv(s):
    return BitVec.from_string(s)


# ---------------------------------------------------------------------------
# subspace and coset states


def test_subspace_state_bell_like():
    st = subspace_state(SubspaceBasis.from_strings(["11"]))
    assert st.amplitude(0) == pytest.approx(1 / math.sqrt(2))
    assert st.amplitude(3) == pytest.approx(1 / math.sqrt(2))
    assert st.amplitude(1) == 0 and st.amplitude(2) == 0


def test_subspace_state_worked_codewords(worked_code):
    st = subspace_state(worked_code)
    support = {str(b) for b in st.support()}
    assert support == set(WORKED_CODEWORDS)
    for w in WORKED_CODEWORDS:
        assert st.amplitude(bv(w)) == pytest.approx(1 / math.sqrt(8), abs=1e-15)


def test_subspace_state_zero_space():
    st = subspace_state(SubspaceBasis(3))
    assert st.amplitude(0) == 1
    assert len(st.support()) == 1


def test_subspace_state_budget(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 << 6)  # a 6-qubit state
    with pytest.raises(BudgetExceededError):
        subspace_state(SubspaceBasis(8))


def test_coset_state_trivial_label(worked_spec):
    zero = BitVec.zeros(6)
    trivial = coset_state(worked_spec.code, zero, zero)
    assert max_deviation(trivial, subspace_state(worked_spec.code)) == 0


def test_coset_state_x_shift(worked_spec):
    st = coset_state(worked_spec.code, bv("100000"), BitVec.zeros(6))
    support = {str(b) for b in st.support()}
    assert support == {str(bv(w) ^ bv("100000")) for w in WORKED_CODEWORDS}
    assert all(a.real > 0 for a in st.amplitudes[st.probabilities() > 0])


def test_coset_state_z_phases(worked_spec):
    ep = bv("000001")
    st = coset_state(worked_spec.code, BitVec.zeros(6), ep)
    for w in WORKED_CODEWORDS:
        v = bv(w)
        expected = (-1) ** v.dot(ep) / math.sqrt(8)
        assert st.amplitude(v) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# Pauli action


def test_apply_pauli_identity(worked_code):
    st = subspace_state(worked_code)
    out = apply_pauli(st, BitVec.zeros(6), BitVec.zeros(6))
    assert max_deviation(st, out) == 0


def test_apply_pauli_involution_up_to_global_sign():
    # X^e Z^e' X^e Z^e' = (-1)^(e.e') times the identity: commuting the inner
    # Z block past the X block costs one sign, and the squares cancel.
    rng = np.random.default_rng(4)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    st = DenseState(4, amps / np.linalg.norm(amps))

    e, ep = bv("1010"), bv("0101")  # e.e' = 0: exact involution
    twice = apply_pauli(apply_pauli(st, e, ep), e, ep)
    assert max_deviation(st, twice) < ATOL_EXACT

    e, ep = bv("1010"), bv("0110")  # e.e' = 1: involution up to a global -1
    twice = apply_pauli(apply_pauli(st, e, ep), e, ep)
    negated = DenseState(4, -st.amplitudes)
    assert max_deviation(negated, twice) < ATOL_EXACT


def test_apply_pauli_matches_coset_construction(worked_spec):
    rng = np.random.default_rng(10)
    base = subspace_state(worked_spec.code)
    for _ in range(20):
        e, ep = random_bitvec(6, rng), random_bitvec(6, rng)
        via_pauli = apply_pauli(base, e, ep)
        via_coset = coset_state(worked_spec.code, e, ep)
        assert max_deviation(via_pauli, via_coset) < ATOL_EXACT


# Parts that make a complex product by +1 or -1 change the sign of a zero.
SIGNED_PARTS = [0.0, -0.0, 0.5, -0.5, 0.25, -1e-300]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_apply_pauli_matches_gather_reference_bitwise(n, data):
    parts = st.lists(st.sampled_from(SIGNED_PARTS), min_size=1 << n, max_size=1 << n)
    amps = np.empty(1 << n, dtype=np.complex128)
    amps.real, amps.imag = data.draw(parts, label="real"), data.draw(parts, label="imag")
    st_in = DenseState._own(n, amps)
    e = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e"))
    ep = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e'"))
    got = apply_pauli(st_in, e, ep).amplitudes
    assert got.tobytes() == apply_pauli_by_gather(st_in, e, ep).amplitudes.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_negated_pauli_dumps_as_the_negated_result(n, data):
    # The -1 rides in apply_pauli's +-1 factors: equal to negating its
    # result, and every nonzero part has the same bits, so the dumps agree.
    parts = st.lists(st.sampled_from(SIGNED_PARTS), min_size=1 << n, max_size=1 << n)
    amps = np.empty(1 << n, dtype=np.complex128)
    amps.real, amps.imag = data.draw(parts, label="real"), data.draw(parts, label="imag")
    st_in = DenseState._own(n, amps)
    e = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e"))
    ep = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e'"))
    got = apply_pauli(st_in, e, ep, sign=-1)
    negated = DenseState._own(n, -apply_pauli(st_in, e, ep).amplitudes)
    assert np.array_equal(got.amplitudes, negated.amplitudes)
    assert dump_state(got) == dump_state(negated)


def _dense_pauli_dump(text, e, ep, sign):
    return dump_state(apply_pauli(scatter_dump(*parse_dump(text)), e, ep, sign=sign))


def _lines_pauli_dump(text, e, ep, sign):
    """The dump of pauli_lines on the text's parsed lines, with no 2^n vector."""
    n, indices, values = pauli_lines(*parse_dump(text), e, ep, sign)
    assert np.all(np.diff(indices) > 0)
    return _dump_lines(n, indices, values)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_pauli_dump_equals_the_dense_reference_bytewise(n, data):
    # A hand-edited dump: lines in any order, zero amplitudes of either sign
    # listed, -0 parts written as -0.0.  Scaling to unit norm keeps each sign.
    support = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 40), unique=True),
        label="support",
    )
    parts = st.lists(st.sampled_from(SIGNED_PARTS), min_size=len(support), max_size=len(support))
    values = np.empty(len(support), dtype=np.complex128)
    values.real, values.imag = data.draw(parts, label="real"), data.draw(parts, label="imag")
    assume(np.abs(values).max() >= 0.25)
    values /= np.linalg.norm(values)
    text = "".join(
        f"{i:0{n}b} {v.real!r} {v.imag!r}\n" for i, v in zip(support, values.tolist())
    )
    e = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e"))
    ep = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="e'"))
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    assert _lines_pauli_dump(text, e, ep, sign) == _dense_pauli_dump(text, e, ep, sign)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "text",
    [
        # Shuffled lines, a -0 part and a zero amplitude written both ways.
        "110 0.5 -0.0\n000 -0.5 0\n011 0 0\n101 0.5 0\n010 -0.0 -0.0\n001 0 -0.5\n",
        # Purely imaginary and tiny parts beside blank lines.
        "\n111 -0.0 0.6\n\n100 0.8 -1e-300\n",
    ],
)
def test_pauli_dump_of_a_hand_edited_dump_with_odd_commutation(text, sign):
    e, ep = bv("101"), bv("100")  # e.e' = 1: apply_pauli's extra -1 must cancel
    got = _lines_pauli_dump(text, e, ep, sign)
    assert got == _dense_pauli_dump(text, e, ep, sign)
    assert "-0" not in got.split()


@pytest.mark.parametrize("sign", [0, 2, -2, 1j])
def test_apply_pauli_refuses_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign is \\+1 or -1"):
        apply_pauli(uniform_state(2), bv("10"), bv("01"), sign=sign)
    with pytest.raises(ValueError, match="sign is \\+1 or -1"):
        pauli_lines(*parse_dump(dump_state(uniform_state(2))), bv("10"), bv("01"), sign=sign)


def _pauli_allocation_cases():
    cases = [
        pytest.param(16, e, ep, 1, id=f"{e}-{ep}")
        for e, ep in [(0, 0), (0x8001, 0x0FF0), ((1 << 16) - 1, (1 << 16) - 1)]
    ]
    # The lifecycle's corruptions at n = 14: each tolerated bit flip with the
    # phase flip at the mirrored position, then all ones, also negated.
    errors = [0] + [1 << j for j in range(14)]
    for e, ep in zip(errors, reversed(errors)):
        cases.append(pytest.param(14, e, ep, 1, id=f"n14-{e}-{ep}"))
    full = (1 << 14) - 1
    cases.append(pytest.param(14, full, full, 1, id=f"n14-{full}-{full}"))
    cases.append(pytest.param(14, full, full, -1, id=f"n14-{full}-{full}-negated"))
    cases.append(pytest.param(14, 1 << 6, 1 << 7, -1, id="n14-64-128-negated"))
    return cases


@pytest.mark.parametrize("n, e, ep, sign", _pauli_allocation_cases())
def test_apply_pauli_allocates_only_the_result(n, e, ep, sign):
    note = uniform_state(n)
    tracemalloc.start()
    try:
        apply_pauli(note, BitVec(n, e), BitVec(n, ep), sign=sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * note.amplitudes.nbytes


def test_internal_states_are_read_only_and_unshared():
    assert not subspace_state(SubspaceBasis.from_strings(["110"])).amplitudes.flags.writeable
    amps = np.zeros(8, dtype=np.complex128)
    amps[5] = 1.0
    public = DenseState(3, amps)
    amps[5] = 0.0
    assert public.amplitude(5) == 1.0  # the public constructor copies
    assert not public.amplitudes.flags.writeable


def test_dense_state_repr_counts_the_support_without_listing_it(monkeypatch):
    amps = np.zeros(8, dtype=np.complex128)
    amps[[1, 4, 6]] = [0.6, 0.0 + 0.64j, -0.48]
    state = DenseState(3, amps)

    def refuse(self):
        raise AssertionError("repr listed the support")

    monkeypatch.setattr(DenseState, "support", refuse)
    assert repr(state) == "DenseState(n=3, support=3)"


def test_parse_dump_rejects_a_non_unit_dump():
    with pytest.raises(ValueError, match="unit vector"):
        scatter_dump(*parse_dump("00 1 0\n11 1 0\n"))


def test_apply_pauli_preserves_norm():
    rng = np.random.default_rng(12)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    st = DenseState(5, amps / np.linalg.norm(amps))
    out = apply_pauli(st, bv("10110"), bv("01011"))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < ATOL_EXACT


# ---------------------------------------------------------------------------
# Hadamard transform


def test_hadamard_zero_state_gives_uniform():
    st = hadamard_all(basis_state(3, 0))
    assert np.allclose(st.amplitudes, 1 / math.sqrt(8))


def test_hadamard_phase_kernel():
    # H|x> has amplitude (-1)^(x.z)/sqrt(2^n) at z.
    x = bv("101")
    st = hadamard_all(basis_state(3, x))
    for z in range(8):
        expected = (-1) ** BitVec(3, z).dot(x) / math.sqrt(8)
        assert st.amplitude(z) == pytest.approx(expected, abs=1e-15)


def test_hadamard_involution():
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    st = DenseState(6, amps / np.linalg.norm(amps))
    assert max_deviation(st, hadamard_all(hadamard_all(st))) < ATOL_EXACT


def test_hadamard_maps_code_to_dual(worked_code):
    mapped = hadamard_all(subspace_state(worked_code))
    assert max_deviation(mapped, subspace_state(worked_code.dual())) < ATOL_EXACT


def test_hadamard_swaps_coset_roles_with_global_sign(worked_spec):
    rng = np.random.default_rng(6)
    dual = worked_spec.dual_code
    for _ in range(10):
        e, ep = random_bitvec(6, rng), random_bitvec(6, rng)
        lhs = hadamard_all(coset_state(worked_spec.code, e, ep))
        sign = -1 if e.dot(ep) else 1
        rhs = DenseState._own(6, sign * coset_state(dual, ep, e).amplitudes)
        assert max_deviation(lhs, rhs) < ATOL_EXACT


def test_fwht_matches_sylvester_matrix():
    # Reference: the explicit +-1 matrix H[i, j] = (-1)^(popcount(i & j)).
    rng = np.random.default_rng(44)
    for n in range(11):
        idx = np.arange(1 << n)
        sylvester = 1 - 2 * (np.bitwise_count(idx[:, None] & idx) & 1).astype(np.float64)
        real = rng.standard_normal((3, 1 << n))
        for a in (real, real + 1j * rng.standard_normal((3, 1 << n))):
            for x in (a[0], a):  # 1-D, and a batch along the last axis
                out = fwht(x)
                assert out.dtype == x.dtype
                assert out.shape == x.shape
                assert np.allclose(out, x @ sylvester, atol=1e-9)
                assert np.allclose(fwht(out), (1 << n) * x, atol=1e-9)


def _butterfly_reference(x):
    """The textbook radix-2 loop, lowest index bit first, along the last axis of a copy of x."""
    ref = x.copy()
    size = x.shape[-1]
    h = 1
    while h < size:
        low = np.flatnonzero((np.arange(size) & h) == 0)
        a, b = ref[..., low], ref[..., low | h]
        ref[..., low], ref[..., low | h] = a + b, a - b
        h *= 2
    return ref


def test_fwht_adds_in_butterfly_order():
    # The verifier's exact ones depend on this order: equal bit for bit to
    # the textbook radix-2 loop on every row.  The output keeps the layout of
    # a C-ordered (2^n, ...) array seen with the transformed axis last, so
    # reductions over it add in one order, and the input is only read.
    rng = np.random.default_rng(45)
    for n in range(13):
        size = 1 << n
        for shape in ((size,), (1, size), (21, size), (2, 3, size)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            wide = rng.standard_normal((*shape[:-1], 2 * size))
            views = [x, x.real.copy(), wide[..., ::2], wide[..., 1::2][..., ::-1]]
            if len(shape) > 1:
                views.append(np.asfortranarray(x))
                views.append(x.swapaxes(0, -1).copy().swapaxes(0, -1))
            for view in views:
                before = view.copy()
                out = fwht(view)
                want = _butterfly_reference(view)
                assert (out.dtype, out.shape) == (want.dtype, want.shape)
                assert out.tobytes() == want.tobytes()
                assert view.tobytes() == before.tobytes()
                lead = np.empty((size, *shape[:-1]), dtype=view.dtype)
                assert out.strides == lead.transpose(*range(1, len(shape)), 0).strides
    with pytest.raises(ValueError, match="power-of-two length, not 6"):
        fwht(np.zeros((2, 6)))


def test_fwht_of_one_row_holds_two_rows_beside_its_input():
    # Two ping-pong rows and nothing else: no copy of the input, no scratch,
    # no operand buffers.  A transposed copy, a half-size scratch and numpy's
    # buffers of the short low stages came to 3.1 times the output.
    x = np.random.default_rng(46).standard_normal(1 << 10) * (1 + 1j)
    fwht(x)
    tracemalloc.start()
    try:
        out = fwht(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.nbytes


# ---------------------------------------------------------------------------
# basis permutation unitary


def test_apply_basis_permutation_moves_kets():
    b = random_basis_map(5, 21)
    for val in (0, 7, 19, 31):
        x = BitVec(5, val)
        st = apply_basis_permutation(basis_state(5, x), b)
        assert st.amplitude(b.matrix.mul_vec(x)) == 1.0


def test_apply_basis_permutation_is_unitary():
    rng = np.random.default_rng(22)
    b = random_basis_map(6, rng)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    st = DenseState(6, amps / np.linalg.norm(amps))
    out = apply_basis_permutation(st, b)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < ATOL_EXACT
    assert sorted(np.abs(out.amplitudes)) == pytest.approx(sorted(np.abs(st.amplitudes)))


# ---------------------------------------------------------------------------
# inner products and fidelities with a span


def test_inner_half_for_overlapping_codes(worked_spec):
    # Two applicable codes whose intersection has dimension n/2 - 1 overlap
    # in exactly half of their codewords.
    rng = np.random.default_rng(14)
    c = worked_spec.code
    while True:
        other = search_applicable_code(6, 1, seed=rng)
        if other.code != c and intersection_dim(c, other.code) == 2:
            break
    val = np.vdot(subspace_state(c).amplitudes, subspace_state(other.code).amplitudes)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_tolerated_coset_states_orthonormal(worked_spec):
    states = tolerated_coset_states(worked_spec)
    assert len(states) == 49
    mat = np.stack([s.amplitudes for s in states])
    gram = mat.conj() @ mat.T
    assert np.abs(gram - np.eye(49)).max() < 1e-10


# ---------------------------------------------------------------------------
# dumps


def test_state_dump_round_trip(worked_code):
    st = subspace_state(worked_code)
    text = dump_state(st)
    assert text.splitlines()[0].startswith("000000 ")
    back = scatter_dump(*parse_dump(text))
    assert max_deviation(st, back) == 0
    # Deterministic: dumping again is byte-identical.
    assert dump_state(back) == text


def test_state_dump_complex_phases():
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 0.6
    amps[2] = 0.8j
    st = DenseState(2, amps)
    text = dump_state(st)
    assert "01 0.59999999999999998 0" in text
    back = scatter_dump(*parse_dump(text))
    assert max_deviation(st, back) == 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_state_dump_round_trip_random_sparse(n, data):
    support = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=64, unique=True)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Each part is a normal draw or a zero signed like one, so some entries are
    # purely real or purely imaginary, with -0 parts, and some are -0 - 0j; the
    # first never vanishes.
    parts = rng.standard_normal((2, len(support))) * rng.integers(0, 2, (2, len(support)))
    parts[0, 0] = 1.0
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps.real[support], amps.imag[support] = parts
    state = DenseState(n, amps / np.linalg.norm(amps))
    text = dump_state(state)
    assert text == dump_state_by_fstrings(state)
    assert len(text.splitlines()) == np.count_nonzero(amps)
    back = scatter_dump(*parse_dump(text))
    assert np.array_equal(back.amplitudes, state.amplitudes)
    assert dump_state(back) == text


@pytest.mark.parametrize("text", ["00 nan 0\n", "00 1 0\n01 inf 0\n", "0 0 nan\n"])
def test_parse_dump_rejects_non_finite_amplitudes(text):
    with pytest.raises(ValueError, match="finite"):
        scatter_dump(*parse_dump(text))


def test_dense_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="finite"):
        DenseState(1, [float("nan"), 1.0])


def test_parse_dump_rejects_repeated_bit_strings():
    with pytest.raises(ValueError, match="repeated"):
        scatter_dump(*parse_dump("00 0.6 0\n00 1 0\n"))


@pytest.mark.parametrize("text", ["00 1 0\n1 0 0\n", "-1 1 0\n", "0_1 1 0\n"])
def test_parse_dump_rejects_malformed_bit_strings(text):
    with pytest.raises(ValueError, match="binary digits"):
        scatter_dump(*parse_dump(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("00 1\n", "line 1 of the state dump has 2 field(s); expected '<bits> <re> <im>'"),
        ("00 1 0\n\n01 0 0 0\n", "line 3 of the state dump has 4 field(s)"),
        ("  \n10\n", "line 2 of the state dump has 1 field(s)"),
        # The first bad line is refused, for the first thing wrong with it.
        ("00 1 0\n0x 0 0\n01 0\n", "'0x' is not 2 binary digits"),
        ("00 1 0\n0x 0\n", "line 2 of the state dump has 2 field(s)"),
    ],
)
def test_parse_dump_names_a_line_without_three_fields(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        scatter_dump(*parse_dump(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("00 1 0\n01 x 0\n", "line 2 of the state dump has an amplitude that is not a number: 'x' '0'"),
        ("00 1 0j\n", "line 1 of the state dump has an amplitude that is not a number"),
        # The bit string is checked before the parts, and a line before any repeat.
        ("00 1 0\n0x y 0\n", "'0x' is not 2 binary digits"),
        ("00 0.6 0\n00 0.8 0\n01 - 0\n", "line 3 of the state dump has an amplitude"),
    ],
)
def test_parse_dump_names_a_line_whose_amplitude_is_not_a_number(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        scatter_dump(*parse_dump(text))


# What a malformed dump may hold in place of a character: separators that
# str.split() and str.splitlines() treat alike or apart, runs of them, and
# characters that no bit string or number holds, or that float() reads.
DUMP_NOISE = [
    "", " ", "  ", "\t", "\r", "\r\n", "\n", "\n\n", "\v", "\x1c", "\x1f", "\xa0", "\u2028",
    "x", "-", "+", ".", "e", "_", "2", "0", "1", "nan", "inf", "\u0661", "\x00",
]


def _codec_outcome(parse, text):
    try:
        n, indices, values = parse(text)
    except (ValueError, BudgetExceededError) as exc:
        return type(exc), str(exc)
    return n, indices.dtype, indices.tobytes(), values.dtype, values.tobytes()


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_parse_dump_matches_the_line_by_line_reference(n, data):
    # Valid dumps, with signed and zero parts and zero lines, and the same dumps
    # edited at random: the result's bytes, or the error and its text, are the
    # reference's.
    support = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=10, unique=True))
    a = 1.0 / math.sqrt(len(support))
    part = st.sampled_from([a, -a, 0.0, -0.0, 0.5, 1e-300])
    lines = [
        "%s %s %s" % (format(i, f"0{n}b"), *("%.17g" % x for x in data.draw(st.tuples(part, part))))
        for i in support
    ]
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", "", "\n\n", " \n"]))
    for _ in range(data.draw(st.integers(0, 3))):
        # Anywhere, or in some line's bit string or the separator after it.
        line = data.draw(st.integers(0, len(lines) - 1))
        near = text.find("\n".join(lines[line:])) + data.draw(st.integers(0, n + 1))
        at = data.draw(st.one_of(st.integers(0, len(text)), st.just(max(near, 0))))
        cut = data.draw(st.integers(0, 2))
        text = text[:at] + data.draw(st.sampled_from(DUMP_NOISE)) + text[at + cut :]
    assert _codec_outcome(parse_dump, text) == _codec_outcome(parse_dump_by_lines, text)


@pytest.mark.parametrize(
    "text", ["0 \x1f1 0\n", "01 0.6 \x1f0.8\n", "00000000 \x1f1 1\n", "1 1\x1f 0\n", "0 1 0\x1f0\n"]
)
def test_parse_dump_splits_fields_where_str_split_does(text):
    # str.split() also splits at 0x1f, which neither splitlines() nor float()
    # takes for whitespace: such a dump was neither parsed nor named a bad line.
    assert _codec_outcome(parse_dump, text) == _codec_outcome(parse_dump_by_lines, text)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 16), data=st.data())
def test_dump_lines_matches_the_per_line_format(n, data):
    # Signed and zero parts, zero values (not written), repeated and distinct
    # values, and real arrays, as mint_dump passes.
    support = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=40, unique=True))
    part = st.one_of(
        st.sampled_from([0.125, -0.125, 0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    indices = np.array(sorted(support), dtype=np.int64)
    values = np.array([complex(*data.draw(st.tuples(part, part))) for _ in support], dtype=np.complex128)
    if data.draw(st.booleans()):
        values = values.real.copy()
    assert _dump_lines(n, indices, values) == dump_lines_by_format(n, indices, values)


# ---------------------------------------------------------------------------
# value semantics

# Two makers per type: the gf2 values are built two different ways that give
# the same value, the states twice from the same amplitudes.
VALUE_MAKERS = {
    "BitVec": (lambda: BitVec(3, 1), lambda: bv("001")),
    "Gf2Matrix": (lambda: Gf2Matrix(2, 3, [5, 3]), lambda: Gf2Matrix.from_strings(["101", "011"])),
    "SubspaceBasis": (
        lambda: SubspaceBasis.from_strings(["110", "011"]),
        lambda: SubspaceBasis.from_strings(["101", "011"]),
    ),
    "BasisMap": (
        lambda: BasisMap(Gf2Matrix.from_strings(["010", "001", "100"])),
        lambda: BasisMap.from_columns([bv("001"), bv("100"), bv("010")]),
    ),
    "DenseState": (lambda: uniform_state(2), lambda: DenseState(2, [0.5] * 4)),
}


@pytest.mark.parametrize("makers", VALUE_MAKERS.values(), ids=list(VALUE_MAKERS))
def test_values_are_frozen_and_states_compare_by_identity(makers):
    a, b = (make() for make in makers)
    for field in dataclasses.fields(a):
        with pytest.raises(AttributeError):
            setattr(a, field.name, getattr(b, field.name))
    # A name that is no field: before Python 3.12, a frozen slots dataclass
    # raises TypeError here instead of AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    assert not hasattr(a, "__dict__") and not hasattr(b, "__dict__")
    if isinstance(a, DenseState):
        assert a == a and a != b
    else:
        assert a == b and hash(a) == hash(b)
        assert a != 1  # the int of a BitVec's bits is not the BitVec
