"""GF(2^p) power tables over a primitive polynomial.

Field elements are coordinate vectors on the basis w^(p-1), ..., w, 1, where w
is a root of the generating polynomial: coords[0] multiplies w^(p-1) and
coords[p-1] multiplies 1.  The packed form puts coords[j] in bit j, so the
nonzero field elements double as points of PG(p-1, 2) with factor j attached
to coordinate j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

__all__ = [
    "FieldPoly",
    "PRIMITIVE_EXPONENTS",
    "default_primitive",
    "is_primitive",
    "power_masks",
]

# One primitive polynomial per degree, as exponent tuples.  These are the
# standard maximal-LFSR choices; every entry is order-checked in the tests.
PRIMITIVE_EXPONENTS: dict[int, tuple[int, ...]] = {
    2: (2, 1, 0),
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 3, 0),
    11: (11, 2, 0),
    12: (12, 6, 4, 1, 0),
    13: (13, 4, 3, 1, 0),
    14: (14, 10, 6, 1, 0),
    15: (15, 1, 0),
    16: (16, 12, 3, 1, 0),
    17: (17, 3, 0),
    18: (18, 7, 0),
    19: (19, 5, 2, 1, 0),
    20: (20, 3, 0),
    21: (21, 2, 0),
    22: (22, 1, 0),
    23: (23, 5, 0),
    24: (24, 7, 2, 1, 0),
}


@dataclass(frozen=True)
class FieldPoly:
    """Monic polynomial over GF(2); coeffs[k] multiplies x^k."""

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("polynomial degree must be at least 1")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        if any(c not in (0, 1) for c in self.coeffs):
            raise ValueError("coefficients must be 0 or 1")
        if self.coeffs[self.degree] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def mask(self) -> int:
        """Packed form with bit k = coeffs[k]."""
        return sum(c << k for k, c in enumerate(self.coeffs))

    @classmethod
    def from_mask(cls, mask: int) -> "FieldPoly":
        if mask <= 1:
            raise ValueError("polynomial mask must encode degree >= 1")
        degree = mask.bit_length() - 1
        return cls(degree, tuple((mask >> k) & 1 for k in range(degree + 1)))

    @classmethod
    def from_exponents(cls, exponents: tuple[int, ...]) -> "FieldPoly":
        return cls.from_mask(reduce(lambda m, e: m | (1 << e), exponents, 0))

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            if self.coeffs[k]:
                terms.append("1" if k == 0 else "x" if k == 1 else f"x^{k}")
        return " + ".join(terms)


def default_primitive(p: int) -> FieldPoly:
    """The table's primitive polynomial of degree p (2 <= p <= 24)."""
    if p not in PRIMITIVE_EXPONENTS:
        raise ValueError(f"degree {p} out of table range 2..24")
    return FieldPoly.from_exponents(PRIMITIVE_EXPONENTS[p])


def _clmul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _polymod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _powmod(base: int, e: int, m: int) -> int:
    acc = 1
    base = _polymod(base, m)
    while e:
        if e & 1:
            acc = _polymod(_clmul(acc, base), m)
        base = _polymod(_clmul(base, base), m)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(poly: FieldPoly) -> bool:
    """True iff x has multiplicative order 2^p - 1 modulo poly.

    Full order forces irreducibility (a reducible quotient has fewer than
    2^p - 1 units), so this is exactly primitivity.
    """
    p = poly.degree
    order = (1 << p) - 1
    m = poly.mask
    if _powmod(0b10, order, m) != 1:
        return False
    return all(_powmod(0b10, order // q, m) != 1 for q in _prime_factors(order))


def _reversed_low(poly: FieldPoly) -> int:
    p = poly.degree
    low = poly.mask & ((1 << p) - 1)
    rev = 0
    for k in range(p):
        rev = (rev << 1) | ((low >> k) & 1)
    return rev


def power_masks(poly: FieldPoly):
    """Yield packed coords of w^0, w^1, ..., w^(2^p - 2).

    In packed coords, multiplying by w is a right shift: bit j holds the
    w^(p-1-j) coefficient, and the wrapped bit folds back in through the
    reversed low part of the polynomial.
    """
    p = poly.degree
    red = _reversed_low(poly)
    a = 1 << (p - 1)
    for _ in range((1 << p) - 1):
        yield a
        a = (a >> 1) ^ (red if a & 1 else 0)
