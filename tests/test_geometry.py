"""Effect/word handling and projective subspaces over small factor counts."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdcss import bitlin
from rdcss.geometry import Effect, intersect, mask_word, parse_effect, span

from oracles import (
    all_subspaces_brute,
    contains,
    mask_word_join,
    rank_of,
    subspace_from_points,
    xor_span,
)


def test_effect_word_letters():
    assert Effect(0b1, 6).word == "A"
    assert Effect(0b110, 6).word == "BC"
    assert Effect(0b111100, 6).word == "CDEF"
    assert Effect((1 << 6) - 1, 6).word == "ABCDEF"
    assert Effect(0b101, 6).order == 2
    assert str(Effect(0b1, 6)) == "A"


def test_mask_word_matches_letter_join():
    assert mask_word(0) == ""
    assert mask_word(0b1101) == "ACD"
    assert mask_word((1 << 24) - 1) == "ABCDEFGHIJKLMNOPQRSTUVWX"
    assert all(mask_word(m) == mask_word_join(m) for m in range(1 << 12))


@given(st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_mask_word_matches_letter_join_on_24_bits(bits):
    assert mask_word(bits) == mask_word_join(bits)


@given(st.integers(min_value=2, max_value=10), st.data())
def test_parse_effect_round_trip(p, data):
    bits = data.draw(st.integers(min_value=1, max_value=(1 << p) - 1))
    e = Effect(bits, p)
    assert parse_effect(e.word, p) == e
    assert parse_effect(e.word.lower(), p) == e


def test_parse_effect_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_effect("", 4)
    with pytest.raises(ValueError, match="unknown factor letter"):
        parse_effect("AE", 4)
    with pytest.raises(ValueError, match="unknown factor letter"):
        parse_effect("A1", 4)
    with pytest.raises(ValueError, match="repeated"):
        parse_effect("AA", 4)


def test_effect_validation():
    with pytest.raises(ValueError):
        Effect(0, 4)
    with pytest.raises(ValueError):
        Effect(1 << 4, 4)
    with pytest.raises(ValueError):
        Effect(1, 1)
    with pytest.raises(ValueError):
        Effect(1, 25)


def test_effect_ordering_is_standard_effect_order():
    words = [e.word for e in sorted(Effect(m, 3) for m in range(1, 8))]
    assert words == ["A", "B", "AB", "C", "AC", "BC", "ABC"]


@given(st.integers(min_value=2, max_value=8), st.data())
def test_rank_matches_oracle(p, data):
    masks = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << p) - 1), max_size=6)
    )
    assert bitlin.rank(masks) == rank_of(masks)


def test_span_rejects_mixed_spaces():
    with pytest.raises(ValueError, match="different factor counts"):
        span([Effect(1, 4), Effect(2, 5)])


@given(st.integers(min_value=2, max_value=8), st.data())
def test_span_points_match_oracle(p, data):
    n = data.draw(st.integers(min_value=1, max_value=min(p, 4)))
    masks = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << p) - 1),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    if rank_of(masks) < len(masks):
        with pytest.raises(ValueError, match="not independent"):
            span([Effect(m, p) for m in masks])
        return
    sub = span([Effect(m, p) for m in masks])
    assert sub.point_masks == xor_span(masks)
    assert sub.dim == n
    assert len(sub) == (1 << n) - 1
    assert all(0 < m < 1 << p for m in sub.point_masks)


def test_span_keeps_generator_order():
    sub = span([Effect(0b110, 4), Effect(0b001, 4)])
    assert sub.basis == (0b110, 0b001)
    assert contains(sub, Effect(0b111, 4))
    assert not contains(sub, Effect(0b100, 4))


def test_subspace_points_are_built_on_first_access():
    sub = span([Effect(0b110, 4), Effect(0b001, 4)])
    assert "point_masks" not in vars(sub)
    assert len(sub) == 3
    assert "point_masks" not in vars(sub)
    assert [mask_word(m) for m in sorted(sub.point_masks)] == ["A", "BC", "ABC"]
    assert sub.point_masks == {0b001, 0b110, 0b111}


def test_span_requires_generators():
    with pytest.raises(ValueError, match="at least one generator"):
        span([])


def test_subspace_from_points_round_trip():
    sub = span([Effect(1, 5), Effect(2, 5), Effect(4, 5)])
    rebuilt = subspace_from_points(tuple(Effect(m, 5) for m in sorted(sub.point_masks)))
    assert rebuilt.point_masks == sub.point_masks
    assert rebuilt.dim == 3


def test_subspace_from_points_errors():
    with pytest.raises(ValueError, match="empty"):
        subspace_from_points(())
    with pytest.raises(ValueError, match="duplicate"):
        subspace_from_points((Effect(1, 4), Effect(1, 4)))
    with pytest.raises(ValueError, match="does not fill"):
        subspace_from_points((Effect(1, 4), Effect(2, 4)))
    # Right size, wrong closure: {A, B, C} has rank 3 but 3 < 7 points.
    with pytest.raises(ValueError, match="does not fill"):
        subspace_from_points(tuple(Effect(1 << j, 4) for j in range(3)))


@given(st.data())
def test_intersect_matches_set_intersection(data):
    p = 5
    bound = st.integers(min_value=1, max_value=(1 << p) - 1)
    m1 = data.draw(st.lists(bound, min_size=1, max_size=3, unique=True))
    m2 = data.draw(st.lists(bound, min_size=1, max_size=3, unique=True))
    if rank_of(m1) < len(m1) or rank_of(m2) < len(m2):
        return
    s1 = span([Effect(m, p) for m in m1])
    s2 = span([Effect(m, p) for m in m2])
    expected = s1.point_masks & s2.point_masks
    got = intersect(s1, s2)
    if not expected:
        assert got is None
    else:
        assert got.point_masks == expected
        # Subspaces always meet in a subspace, so the size is 2^d - 1.
        assert len(expected) + 1 == 1 << got.dim


def test_intersect_rejects_mixed_spaces():
    with pytest.raises(ValueError, match="different factor counts"):
        intersect(span([Effect(1, 4)]), span([Effect(1, 5)]))


@pytest.mark.parametrize(
    "p, t, count",
    [(4, 2, 35), (4, 3, 15), (3, 2, 7), (4, 1, 15), (5, 2, 155)],
)
def test_all_subspaces_counts(p, t, count):
    subs = all_subspaces_brute(p, t)
    assert len(subs) == count
    # Every subspace round-trips through the greedy basis of its sorted points.
    for pts in subs:
        rebuilt = subspace_from_points(tuple(Effect(m, p) for m in sorted(pts)))
        assert rebuilt.dim == t
        assert rebuilt.point_masks == pts


def test_all_subspaces_matches_brute_force():
    # Any two distinct points of PG(3, 2) span one of its 35 lines.
    got = {
        span([Effect(a, 4), Effect(b, 4)]).point_masks
        for a, b in combinations(range(1, 16), 2)
    }
    assert got == all_subspaces_brute(4, 2)
