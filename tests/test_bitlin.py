"""Packed-int GF(2) linear algebra against brute-force oracles."""

from hypothesis import given
from hypothesis import strategies as st

from rdcss import bitlin

from oracles import complete_basis_scan, greedy_basis, rank_of, solve, xor_span

masks = st.integers(min_value=0, max_value=(1 << 8) - 1)
mask_lists = st.lists(masks, min_size=0, max_size=8)


@given(mask_lists)
def test_rank_matches_span_size(rows):
    assert bitlin.rank(rows) == rank_of(rows)


@given(mask_lists)
def test_is_independent_iff_full_rank(rows):
    expected = 0 not in rows and rank_of(rows) == len(rows)
    assert bitlin.is_independent(rows) == expected


@given(mask_lists)
def test_greedy_basis_spans_input(rows):
    basis = greedy_basis(rows)
    assert bitlin.is_independent(basis) or not basis
    assert xor_span(basis) == xor_span(rows)
    # The basis is a subsequence of the input.
    it = iter(rows)
    assert all(any(b == r for r in it) for b in basis)


@given(mask_lists)
def test_echelon_is_greedy_basis_of_sorted_span(rows):
    basis = bitlin.echelon(rows)
    assert basis == greedy_basis(sorted(xor_span(rows)))
    # Fully reduced: no row holds another row's leading bit.
    tops = [b.bit_length() - 1 for b in basis]
    assert tops == sorted(tops)
    assert all((b >> t) & 1 == (b == c) for b in basis for c, t in zip(basis, tops))


@given(st.data())
def test_complete_basis_extends_to_full_rank(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    rows = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=n)
    )
    if not bitlin.is_independent(rows):
        return
    full = bitlin.complete_basis(rows, n)
    assert full[: len(rows)] == rows
    assert len(full) == n
    assert bitlin.rank(full) == n
    # The unit-vector completion is the one a scan of 1, 2, 3, ... finds.
    assert full == complete_basis_scan(rows, n)


def test_complete_basis_tests_unit_vectors_only(within_one_second):
    # A scan of 1, 2, 3, ... would test 2^23 integers before reaching 1 << 22.
    full = within_one_second(bitlin.complete_basis, [1 << 23], 24)
    assert full == [1 << 23, *(1 << j for j in range(23))]


def test_complete_basis_prefers_small_masks():
    assert bitlin.complete_basis([], 3) == [1, 2, 4]
    # 3 = A+B blocks the lexicographic candidate 2 but not 1.
    assert bitlin.complete_basis([3], 3) == [3, 1, 4]


def test_complete_basis_rejects_dependent_input():
    try:
        bitlin.complete_basis([3, 1, 2], 4)
    except ValueError as exc:
        assert "not independent" in str(exc)
    else:
        raise AssertionError("expected ValueError")


@given(st.data())
def test_apply_rows_is_linear(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    rows = data.draw(
        st.lists(masks, min_size=n, max_size=n)
    )
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    y = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    fx = bitlin.apply_rows(rows, x)
    fy = bitlin.apply_rows(rows, y)
    assert bitlin.apply_rows(rows, x ^ y) == fx ^ fy
    # Single basis vectors map straight to rows.
    for j in range(n):
        assert bitlin.apply_rows(rows, 1 << j) == rows[j]


@given(st.data())
def test_matmul_associates_with_apply(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    bounded = st.integers(min_value=0, max_value=(1 << n) - 1)
    a = data.draw(st.lists(bounded, min_size=n, max_size=n))
    b = data.draw(st.lists(bounded, min_size=n, max_size=n))
    x = data.draw(bounded)
    ab = bitlin.matmul(a, b)
    assert bitlin.apply_rows(ab, x) == bitlin.apply_rows(
        b, bitlin.apply_rows(a, x)
    )


@given(st.data())
def test_invert_round_trip(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    bounded = st.integers(min_value=0, max_value=(1 << n) - 1)
    rows = data.draw(st.lists(bounded, min_size=n, max_size=n))
    inv = bitlin.invert(rows, n)
    if inv is None:
        assert bitlin.rank(rows) < n
    else:
        identity = [1 << i for i in range(n)]
        assert bitlin.matmul(inv, rows) == identity
        assert bitlin.matmul(rows, inv) == identity


@given(st.data())
def test_solve_residual_or_proven_inconsistent(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    m = data.draw(st.integers(min_value=1, max_value=10))
    bounded = st.integers(min_value=0, max_value=(1 << n) - 1)
    rows = data.draw(st.lists(bounded, min_size=m, max_size=m))
    rhs = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    x = solve(rows, rhs)
    if x is None:
        # Inconsistent exactly when the augmented system gains rank.
        augmented = [(r << 1) | b for r, b in zip(rows, rhs)]
        assert bitlin.rank(augmented) == bitlin.rank(rows) + 1
    else:
        for r, b in zip(rows, rhs):
            assert (r & x).bit_count() % 2 == b


def test_insert_reduces_against_pivots():
    pivots = {1: 0b10, 3: 0b1100}
    # Vectors in the span reduce to zero and leave the rows as they were.
    assert not bitlin.insert(pivots, 0b10)
    assert not bitlin.insert(pivots, 0b1110)
    assert not bitlin.insert(pivots, 0)
    assert pivots == {1: 0b10, 3: 0b1100}
    # The remainder of 0b1111 is 0b0001, stored under its leading bit.
    assert bitlin.insert(pivots, 0b1111)
    assert pivots == {0: 0b0001, 1: 0b10, 3: 0b1100}
    assert not bitlin.insert(pivots, 0b1111)
