"""Tests for the bit-packed GF(2) layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_money import errors
from subspace_money.errors import BudgetExceededError
from subspace_money.gf2 import (
    BasisMap,
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    _echelon,
    random_bitvec,
    rref,
)

from reference import (
    full_space,
    identity_matrix,
    map_subspace,
    member,
    random_basis_map,
    random_isometry,
    random_subspace,
    rref_by_columns,
)


def all_vectors(n):
    return [BitVec(n, v) for v in range(1 << n)]


def brute_span(rows):
    """All XOR combinations of the given BitVecs, as a set."""
    n = rows[0].n
    out = set()
    for mask in range(1 << len(rows)):
        acc = BitVec.zeros(n)
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                acc = acc ^ r
        out.add(acc)
    return out


# ---------------------------------------------------------------------------
# BitVec


def test_bitvec_string_round_trip():
    v = BitVec.from_string("100011")
    assert str(v) == "100011"
    assert v.n == 6
    assert v.value == 0b100011
    assert v.weight == 3
    assert v.support() == (0, 4, 5)


def test_bitvec_bit_indexing_is_left_to_right():
    v = BitVec.from_string("1000")
    assert v.bit(0) == 1
    assert v.bit(3) == 0
    assert [v.bit(i) for i in range(4)] == [1, 0, 0, 0]


def test_bitvec_xor_and_dot():
    a = BitVec.from_string("1100")
    b = BitVec.from_string("0110")
    assert str(a ^ b) == "1010"
    assert a.dot(b) == 1
    assert a.dot(a) == 0  # weight 2 is even
    with pytest.raises(ValueError):
        a.dot(BitVec.from_string("111"))


def test_bitvec_validation():
    with pytest.raises(ValueError):
        BitVec(3, 8)
    with pytest.raises(ValueError):
        BitVec.from_string("10a")
    with pytest.raises(ValueError):
        BitVec(0)


# ---------------------------------------------------------------------------
# Gf2Matrix and rref


def test_rref_identity():
    ident = identity_matrix(3)
    reduced, rank = rref(ident)
    assert reduced == ident
    assert rank == 3


def test_rref_dependent_rows():
    m = Gf2Matrix.from_strings(["110", "011", "101"])
    reduced, rank = rref(m)
    assert rank == 2
    assert reduced.to_strings() == ["101", "011"]
    # Same row space as the input, checked against a brute-force span.
    assert brute_span(list(m)) == brute_span(list(reduced))


def test_rref_zero_matrix():
    reduced, rank = rref(Gf2Matrix.zeros(2, 4))
    assert rank == 0
    assert reduced.rows == 0


def test_matrix_product_and_transpose():
    a = Gf2Matrix.from_strings(["11", "01"])
    b = Gf2Matrix.from_strings(["10", "11"])
    assert (a @ b).to_strings() == ["01", "11"]
    assert a.transpose().to_strings() == ["10", "11"]
    assert a.column(0) == BitVec.from_string("10")


def test_matrix_inverse():
    m = Gf2Matrix.from_strings(["110", "010", "001"])
    inv = m.inverse()
    assert (m @ inv) == identity_matrix(3)
    with pytest.raises(ValueError):
        Gf2Matrix.from_strings(["11", "11"]).inverse()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_inverse_exactly_when_full_rank(n, seed):
    rows = [int(v) for v in np.random.default_rng(seed).integers(0, 1 << n, size=n)]
    m = Gf2Matrix(n, n, rows)
    if len(_echelon(rows)) < n:
        with pytest.raises(ValueError, match="not invertible"):
            m.inverse()
        return
    inv = m.inverse()
    assert m @ inv == identity_matrix(n)
    assert inv @ m == identity_matrix(n)


# ---------------------------------------------------------------------------
# SubspaceBasis


def test_member_examples():
    s = SubspaceBasis.from_strings(["110", "011"])
    assert member(s, BitVec.from_string("101"))  # 110 + 011
    assert member(s, BitVec.zeros(3))
    assert not member(s, BitVec.from_string("100"))
    # Cross-check against the explicit 4-element span.
    span = brute_span([BitVec.from_string("110"), BitVec.from_string("011")])
    for v in all_vectors(3):
        assert member(s, v) == (v in span)


def test_subspace_canonical_equality():
    a = SubspaceBasis.from_strings(["110", "011"])
    b = SubspaceBasis.from_strings(["101", "110"])  # different generators, same span
    assert a == b
    assert hash(a) == hash(b)


def test_dual_small():
    s = SubspaceBasis.from_strings(["110", "011"])
    d = s.dual()
    assert d == SubspaceBasis.from_strings(["111"])
    assert s.dual().dual() == s


def test_dual_full_and_zero():
    full = full_space(4)
    assert full.dual() == SubspaceBasis(4)
    assert SubspaceBasis(4).dual() == full


def test_dual_of_worked_code_is_parity_row_space(worked_code):
    h_rows = ["011100", "110010", "101001"]
    assert worked_code.dual() == SubspaceBasis.from_strings(h_rows)


def test_dual_dimension_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(0, n + 1))
        s = random_subspace(n, dim, rng)
        d = s.dual()
        assert s.dim + d.dim == n
        for v in s.vectors():
            for w in d.vectors():
                assert v.dot(w) == 0
        assert d.dual() == s


def test_min_distance_examples(worked_code, monkeypatch):
    assert worked_code.min_distance() == 3
    assert full_space(5).min_distance() == 1
    assert SubspaceBasis.from_strings(["111000", "000111"]).min_distance() == 3
    with pytest.raises(ValueError):
        SubspaceBasis(4).min_distance()
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 * 4)  # 4 uint64 words
    with pytest.raises(BudgetExceededError):
        full_space(6).min_distance()


def test_min_distance_against_pairwise_oracle():
    # d(C) = min over distinct pairs of their Hamming distance.
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        dim = int(rng.integers(1, min(n, 6) + 1))
        s = random_subspace(n, dim, rng)
        words = list(s.vectors())
        naive = min(
            (a ^ b).weight for i, a in enumerate(words) for b in words[i + 1 :]
        )
        assert s.min_distance() == naive


def test_vectors_enumerates_whole_span(worked_code):
    words = {str(v) for v in worked_code.vectors()}
    assert len(words) == 8
    assert "000000" in words and "111000" in words


def gray_walk_span(s):
    """Every span element as an int, by a Python Gray-code walk (the reference)."""
    rows = s.basis.row_values
    out, cur = [0], 0
    for i in range(1, 1 << s.dim):
        cur ^= rows[(i & -i).bit_length() - 1]
        out.append(cur)
    return out


@settings(max_examples=12, deadline=None)
@given(
    k=st.sampled_from([1, 9, 10, 11, 13, 16]),
    n=st.sampled_from([24, 31, 64, 66, 70]),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_walks_match_gray_walk_reference(k, n, seed):
    # Dimensions on both sides of min_distance's 2^10-word block, and widths
    # on both sides of one uint64.
    s = random_subspace(n, k, seed)
    ref = gray_walk_span(s)
    assert s.min_distance() == min(v.bit_count() for v in ref[1:])
    values = [v.value for v in s.vectors()]
    assert len(values) == len(set(values)) == 1 << k
    assert set(values) == set(ref)
    if n <= 64:
        table = s.vector_values()
        assert table.dtype == np.min_scalar_type((1 << n) - 1)
        assert table.tolist() == values


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), rows=st.integers(0, 14), seed=st.integers(0, 2**32 - 1))
def test_rref_is_canonical_and_the_dual_involutive(n, rows, seed):
    # The verifier's coset leaders sit on RREF pivot columns, so the form
    # must be reduced, canonical for the row space, and dual-consistent.
    rng = np.random.default_rng(seed)
    vecs = [int(v) for v in rng.integers(0, 1 << n, size=rows)]
    s = SubspaceBasis(n, vecs)
    canon = s.basis.row_values
    leads = [r.bit_length() for r in canon]
    assert all(r for r in canon) and leads == sorted(set(leads), reverse=True)
    for lead in leads:
        assert [(r >> (lead - 1)) & 1 for r in canon].count(1) == 1
    assert rref(s.basis) == (s.basis, s.dim)
    # Any other spanning set of the same space, here the rows shuffled plus
    # random sums of them, gives the same rows.
    picks = rng.integers(0, 2, size=(3, rows))
    packed = np.array(vecs, dtype=np.int64)
    sums = [int(np.bitwise_xor.reduce(packed[p == 1], initial=0)) for p in picks]
    other = SubspaceBasis(n, [vecs[i] for i in rng.permutation(rows)] + sums)
    assert other == s and other.basis.row_values == canon
    dual = s.dual()
    assert s.dim + dual.dim == n
    assert dual.dual() == s
    assert all((a & b).bit_count() % 2 == 0 for a in canon for b in dual.basis.row_values)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), data=st.data())
def test_rref_and_transpose_match_column_references(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12), label="rows")
    m = Gf2Matrix(len(rows), n, rows)
    assert rref(m) == rref_by_columns(m)
    if rows:
        columns = [[m.entry(i, j) for i in range(m.rows)] for j in range(n)]
        assert m.transpose() == Gf2Matrix(n, m.rows, [BitVec.from_bits(c).value for c in columns])


@pytest.mark.parametrize("n", [40, 70])
def test_min_distance_finds_a_word_only_in_the_last_block(n):
    # Rows e_j + t_j: a word's weight is |S| + wt(sum of the tails over S).
    # Rows 10 and 11 share a tail and every other tail is distinct and of
    # weight >= 2, so their sum, weight 2, is the only word lighter than 3.
    rng = np.random.default_rng(n)
    tails = [int(t) for t in rng.integers(0, 1 << (n - 12), size=11)]
    tails.append(tails[10])
    assert min(t.bit_count() for t in tails) >= 2 and len(set(tails)) == 11
    rows = [(1 << (n - 1 - j)) | t for j, t in enumerate(tails)]
    s = SubspaceBasis(n, rows)
    assert s.basis.row_values == tuple(rows)
    assert s.min_distance() == 2
    assert s.min_distance(floor=2) == 2  # the walk stops in the last block, not before


@settings(max_examples=40, deadline=None)
@given(k=st.integers(11, 16), data=st.data())
def test_min_distance_from_any_proved_floor_is_the_full_walk(k, data):
    # 11-16 rows span 2 to 64 blocks, so a walk that stops early is seen to.
    n = data.draw(st.integers(k, 30), label="n")
    s = random_subspace(n, k, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = s.min_distance()
    for floor in range(1, d + 1):
        assert s.min_distance(floor) == d
    # Above d the walk may stop early, on a word no heavier than its floor.
    assert d <= s.min_distance(d + 1) <= d + 1


def test_span_budget_checked_before_tabulating(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 << 11)  # 2^11 uint64 words
    with pytest.raises(BudgetExceededError):
        full_space(12).min_distance()
    with pytest.raises(BudgetExceededError):
        full_space(12).vector_values()


# ---------------------------------------------------------------------------
# BasisMap


def test_dual_basis_identity():
    # The dual basis of a basis map, rows u^i with u^i . u_j = delta_ij, is its inverse matrix.
    assert BasisMap(identity_matrix(3)).matrix.inverse() == identity_matrix(3)


def test_dual_basis_worked_example():
    b = BasisMap.from_columns(
        [BitVec.from_string("110"), BitVec.from_string("010"), BitVec.from_string("001")]
    )
    assert b.matrix.inverse().to_strings() == ["100", "110", "001"]


def test_dual_basis_random_inverse_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = random_basis_map(6, rng)
        r = b.matrix.inverse()
        assert (r @ b.matrix) == identity_matrix(6)


def test_apply_basis_map_examples():
    b = BasisMap.from_columns(
        [BitVec.from_string("110"), BitVec.from_string("010"), BitVec.from_string("001")]
    )
    assert b.matrix.mul_vec(BitVec.zeros(3)) == BitVec.zeros(3)
    assert b.matrix.mul_vec(BitVec.from_string("100")) == BitVec.from_string("110")
    assert b.matrix.mul_vec(BitVec.from_string("110")) == BitVec.from_string("100")


def test_apply_basis_map_is_bijection():
    rng = np.random.default_rng(5)
    for n in (3, 6, 9, 12):
        b = random_basis_map(n, rng)
        images = {b.matrix.mul_vec(v).value for v in all_vectors(n)}
        assert len(images) == 1 << n


def test_basis_map_rejects_singular():
    with pytest.raises(ValueError):
        BasisMap(Gf2Matrix.from_strings(["11", "11"]))


# ---------------------------------------------------------------------------
# Random subspaces and isometries


def test_random_subspace_extremes():
    assert random_subspace(4, 0, 1) == SubspaceBasis(4)
    assert random_subspace(4, 4, 1) == full_space(4)


def test_random_subspace_reproducible():
    a = random_subspace(6, 3, 42)
    b = random_subspace(6, 3, 42)
    c = random_subspace(6, 3, 43)
    assert a == b
    assert a.dim == 3
    assert a != c  # overwhelmingly likely and fixed by the seeds


def enumerate_two_dim_subspaces_of_f24():
    seen = set()
    for v1 in range(1, 16):
        for v2 in range(1, 16):
            if v1 == v2:
                continue
            s = SubspaceBasis(4, [v1, v2])
            if s.dim == 2:
                seen.add(s)
    return seen


def test_random_subspace_uniformity_chi_square():
    # There are exactly 35 two-dimensional subspaces of F_2^4.
    universe = enumerate_two_dim_subspaces_of_f24()
    assert len(universe) == 35
    rng = np.random.default_rng(2024)
    samples = 7000
    counts = {s: 0 for s in universe}
    for _ in range(samples):
        counts[random_subspace(4, 2, rng)] += 1
    expected = samples / 35
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 99.9% quantile of chi-square with 34 dof is about 65.2; the fixed seed
    # makes this fully deterministic anyway.
    assert chi2 < 65.2


def test_random_isometry_is_weight_preserving_permutation():
    f = random_isometry(6, 9)
    assert all(column.weight == 1 for column in f.columns())
    for v in all_vectors(6):
        assert f.matrix.mul_vec(v).weight == v.weight


def test_isometry_preserves_distance_of_worked_code(worked_code):
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_isometry(6, rng)
        mapped = map_subspace(f, worked_code)
        assert mapped.min_distance() == worked_code.min_distance()
        assert mapped.dual().min_distance() == worked_code.dual().min_distance()


def test_random_bitvec_deterministic():
    assert random_bitvec(8, 123) == random_bitvec(8, 123)
    assert random_bitvec(8, 123).n == 8


def per_row_draws(n, count, rng):
    """count n-bit values drawn one n-bit row at a time (the reference)."""
    return [int("".join(str(b) for b in rng.integers(0, 2, size=n)), 2) for _ in range(count)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_random_draws_match_per_row_reference(n, seed):
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    dim = seed % (n + 1)
    while True:
        want = SubspaceBasis(n, per_row_draws(n, dim, ref))
        if want.dim == dim:
            break
    assert random_subspace(n, dim, got) == want
    assert random_bitvec(n, got).value == per_row_draws(n, 1, ref)[0]
    while True:
        try:
            want_map = BasisMap(Gf2Matrix(n, n, per_row_draws(n, n, ref)))
            break
        except ValueError:
            continue
    assert random_basis_map(n, got) == want_map
    assert got.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
