"""Spread constructions: the printed 9-column table, counts, and verification."""

from types import SimpleNamespace

import pytest

from rdcss.geometry import Effect, span
from rdcss.spreads import (
    Spread,
    cyclic_spread,
    mixed_spread,
    partial_spread,
    verify_spread,
)

from oracles import all_subspaces_brute, greedy_basis

# The reference 2-spread of PG(5, 2) over x^6 + x + 1: column j holds the
# powers w^j, w^(9+j), w^(18+j), ... so consecutive powers walk the columns.
TABLE_P6_T3 = [
    ["F", "E", "D", "C", "B", "A", "EF", "DE", "CD"],
    ["BC", "AB", "AEF", "DF", "CE", "BD", "AC", "BEF", "ADE"],
    ["CDEF", "BCDE", "ABCD", "ABCEF", "ABDF", "ACF", "BF", "AE", "DEF"],
    ["CDE", "BCD", "ABC", "ABEF", "ADF", "CF", "BE", "AD", "CEF"],
    ["BDE", "ACD", "BCEF", "ABDE", "ACDEF", "BCDF", "ABCE", "ABDEF", "ACDF"],
    ["BCF", "ABE", "ADEF", "CDF", "BCE", "ABD", "ACEF", "BDF", "ACE"],
    ["BDEF", "ACDE", "BCDEF", "ABCDE", "ABCDEF", "ABCDF", "ABCF", "ABF", "AF"],
]


def test_cyclic_spread_matches_reference_table(table2_spread):
    spread = table2_spread
    assert spread.kind == "full"
    assert len(spread.members) == 9
    assert spread.cycle_table is not None
    got = [[Effect(m, 6).word for m in col] for col in zip(*spread.cycle_table)]
    assert got == TABLE_P6_T3


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic_spread(6, 3),
        lambda: cyclic_spread(8, 4),
        lambda: partial_spread(8, 3),
        lambda: partial_spread(11, 4),
        lambda: mixed_spread(7, 4),
        lambda: mixed_spread(9, 5),
    ],
)
def test_member_basis_is_greedy_basis_of_sorted_points(build):
    # Members are built from t basis masks alone; their points come later.
    spread = build()
    assert all("point_masks" not in vars(m) for m in spread.members)
    for member in spread.members:
        # The written basis format: greedy over the points in ascending order.
        assert list(member.basis) == greedy_basis(sorted(member.point_masks))
        assert len(member.point_masks) == (1 << member.dim) - 1
    firsts = [min(m.point_masks) for m in spread.members]
    if spread.kind == "mixed":
        firsts = firsts[1:]
    if spread.kind != "full":
        assert firsts == sorted(firsts)


def test_cyclic_spread_is_a_partition(table2_spread):
    check = verify_spread(table2_spread)
    assert check.ok
    assert check.full_partition
    assert check.member_count == 9
    assert check.covered == check.point_total == 63


def test_cyclic_spread_p4_members_are_lines():
    spread = cyclic_spread(4, 2)
    lines = all_subspaces_brute(4, 2)
    assert len(spread.members) == 5
    for member in spread.members:
        assert member.point_masks in lines
    union = set().union(*(m.point_masks for m in spread.members))
    assert union == set(range(1, 16))


def test_cyclic_spread_accepts_alternate_primitive():
    # x^4 + x^3 + 1 mirrors the default x^4 + x + 1 and gives another spread.
    spread = cyclic_spread(4, 2, poly=0b11001)
    assert verify_spread(spread).full_partition


def test_cyclic_spread_errors():
    with pytest.raises(ValueError, match="does not divide"):
        cyclic_spread(5, 2)
    with pytest.raises(ValueError, match="1 <= t < p"):
        cyclic_spread(4, 4)
    with pytest.raises(ValueError, match="degree 6 does not match p=4"):
        cyclic_spread(4, 2, poly=0b1000011)
    with pytest.raises(ValueError, match="polynomial 0x1f is not primitive"):
        cyclic_spread(4, 2, poly=0b11111)


@pytest.mark.parametrize(
    "p, t, count",
    [(8, 3, 33), (5, 2, 9), (5, 3, 1), (7, 3, 17), (7, 2, 41)],
)
def test_partial_spread_counts(p, t, count):
    spread = partial_spread(p, t)
    assert spread.kind == "partial"
    assert len(spread.members) == count
    assert all(m.dim == t for m in spread.members)
    check = verify_spread(spread)
    assert check.ok
    assert check.covered == count * ((1 << t) - 1)


def test_partial_spread_errors():
    with pytest.raises(ValueError, match="full spread exists"):
        partial_spread(6, 3)
    with pytest.raises(ValueError, match="1 <= t < p"):
        partial_spread(3, 3)


@pytest.mark.parametrize(
    "p, t1, small_dim, n_small",
    [(7, 4, 3, 16), (5, 3, 2, 8), (3, 2, 1, 4)],
)
def test_mixed_spread_shapes(p, t1, small_dim, n_small):
    spread = mixed_spread(p, t1)
    assert spread.kind == "mixed"
    assert spread.members[0].dim == t1
    # The distinguished member is the span of the first t1 main effects.
    assert spread.members[0].point_masks == frozenset(range(1, 1 << t1))
    assert len(spread.members) == 1 + n_small
    assert all(m.dim == small_dim for m in spread.members[1:])
    assert verify_spread(spread).ok


def test_mixed_spread_p3_t2_is_maximal():
    # 1 line + 4 points covers all 7 points of PG(2, 2).
    check = verify_spread(mixed_spread(3, 2))
    assert check.full_partition


def test_mixed_spread_errors():
    with pytest.raises(ValueError, match="no mixed construction"):
        mixed_spread(6, 3)
    with pytest.raises(ValueError, match="whole effect space"):
        mixed_spread(4, 4)


def test_verify_spread_flags_overlap_and_closure():
    good = span([Effect(1, 4), Effect(2, 4)])
    overlapping = span([Effect(3, 4), Effect(4, 4)])  # shares AB with good
    forged = Spread(p=4, members=(good, overlapping), kind="partial")
    check = verify_spread(forged)
    assert not check.ok
    assert check.disjoint_violations == ((0, 1, "AB"),)
    assert not check.full_partition

    # A fabricated member that is not XOR-closed; a Subspace always is.
    broken = SimpleNamespace(point_masks=frozenset({1, 2, 8}))
    check = verify_spread(Spread(p=4, members=(broken,), kind="partial"))
    assert not check.ok
    assert ("A*B" in {v[1] for v in check.closure_violations})
