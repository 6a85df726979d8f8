"""Field arithmetic checked against coefficient-list reference code."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdcss.gf2 import (
    PRIMITIVE_EXPONENTS,
    default_primitive,
    is_primitive,
    power_masks,
)

from oracles import field_mul_mask, field_power_mask


@pytest.mark.parametrize("p", sorted(PRIMITIVE_EXPONENTS))
def test_table_polynomials_are_primitive(p):
    assert is_primitive(default_primitive(p))


def test_table_covers_degrees_2_to_24():
    assert sorted(PRIMITIVE_EXPONENTS) == list(range(2, 25))
    for p, exps in PRIMITIVE_EXPONENTS.items():
        assert max(exps) == p and 0 in exps


@pytest.mark.parametrize("p", range(2, 9))
def test_power_masks_match_reference(p):
    exps = PRIMITIVE_EXPONENTS[p]
    got = list(power_masks(default_primitive(p)))
    want = [field_power_mask(i, exps, p) for i in range((1 << p) - 1)]
    assert got == want


@pytest.mark.parametrize("p", range(2, 11))
def test_power_masks_hit_every_nonzero_point_once(p):
    seen = list(power_masks(default_primitive(p)))
    assert len(seen) == (1 << p) - 1
    assert set(seen) == set(range(1, 1 << p))


def test_element_power_anchors_p6():
    masks = list(power_masks(default_primitive(6)))
    # Multiplicative identity sits on the last coordinate: the F axis.
    assert masks[0] == 1 << 5
    assert masks[9] == (1 << 1) | (1 << 2)  # BC
    assert masks[18] == 0b111100  # CDEF
    # Exponents reduce modulo 2^6 - 1: w^62 * w = w^0.
    assert field_mul_mask(masks[62], masks[1], PRIMITIVE_EXPONENTS[6], 6) == masks[0]


@pytest.mark.parametrize("p", range(2, 9))
def test_element_power_agrees_with_power_masks(p):
    # Each step of the table is one multiplication by w in the field.
    masks = list(power_masks(default_primitive(p)))
    w = masks[1]
    for i, mask in enumerate(masks):
        want = masks[(i + 1) % len(masks)]
        assert field_mul_mask(mask, w, PRIMITIVE_EXPONENTS[p], p) == want


@given(st.integers(min_value=2, max_value=8), st.data())
def test_mul_adds_exponents(p, data):
    masks = list(power_masks(default_primitive(p)))
    order = len(masks)
    i = data.draw(st.integers(min_value=0, max_value=order - 1))
    j = data.draw(st.integers(min_value=0, max_value=order - 1))
    product = field_mul_mask(masks[i], masks[j], PRIMITIVE_EXPONENTS[p], p)
    assert product == masks[(i + j) % order]


@given(st.integers(min_value=2, max_value=8), st.data())
def test_frobenius_is_additive(p, data):
    # Squaring read off the power table (w^i -> w^2i) must be additive.
    masks = list(power_masks(default_primitive(p)))
    log = {m: i for i, m in enumerate(masks)}

    def sq(x):
        return masks[2 * log[x] % len(masks)] if x else 0

    draw_mask = st.integers(min_value=0, max_value=(1 << p) - 1)
    a, b = data.draw(draw_mask), data.draw(draw_mask)
    assert sq(a ^ b) == sq(a) ^ sq(b)


def test_is_primitive_rejects_irreducible_non_primitive():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1: irreducible, order 5 != 15.
    assert not is_primitive(0b11111)


def test_is_primitive_rejects_reducible():
    assert not is_primitive(0b101)  # (x + 1)^2
    assert not is_primitive(0b10001)  # (x + 1)^4
    assert not is_primitive(0b111111)  # divisible by x + 1


def test_is_primitive_rejects_masks_below_two():
    # 1, 0 and negative ints encode no polynomial of degree >= 1.
    for mask in (1, 0, -1, -5):
        assert not is_primitive(mask)


def test_default_primitive_is_the_table_mask():
    assert default_primitive(6) == 0x43  # x^6 + x + 1
    assert default_primitive(16) == 0x1100B  # x^16 + x^12 + x^3 + x + 1
    assert all(default_primitive(p).bit_length() - 1 == p for p in PRIMITIVE_EXPONENTS)


def test_default_primitive_range():
    with pytest.raises(ValueError, match="2..24"):
        default_primitive(1)
    with pytest.raises(ValueError, match="2..24"):
        default_primitive(25)
