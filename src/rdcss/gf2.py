"""GF(2^p) power tables over a primitive polynomial.

A polynomial is a plain int bit mask: bit k is the coefficient of x^k, so
x^6 + x + 1 is 0x43 and the degree is mask.bit_length() - 1.

Field elements are coordinate vectors on the basis w^(p-1), ..., w, 1, where w
is a root of the generating polynomial: coords[0] multiplies w^(p-1) and
coords[p-1] multiplies 1.  The packed form puts coords[j] in bit j, so the
nonzero field elements double as points of PG(p-1, 2) with factor j attached
to coordinate j.
"""

from __future__ import annotations

__all__ = [
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


def default_primitive(p: int) -> int:
    """The table's primitive polynomial of degree p (2 <= p <= 24), as a mask."""
    if p not in PRIMITIVE_EXPONENTS:
        raise ValueError(f"degree {p} out of table range 2..24")
    return sum(1 << e for e in PRIMITIVE_EXPONENTS[p])


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


def is_primitive(poly: int) -> bool:
    """True iff x has multiplicative order 2^p - 1 modulo poly, p its degree.

    Full order forces irreducibility (a reducible quotient has fewer than
    2^p - 1 units), so this is exactly primitivity.  A mask below 2 encodes
    no polynomial of degree >= 1 and is not primitive.
    """
    if poly < 2:
        return False
    order = (1 << (poly.bit_length() - 1)) - 1
    if _powmod(0b10, order, poly) != 1:
        return False
    return all(_powmod(0b10, order // q, poly) != 1 for q in _prime_factors(order))


def power_masks(poly: int):
    """Yield packed coords of w^0, w^1, ..., w^(2^p - 2), p the degree of poly.

    In packed coords, multiplying by w is a right shift: bit j holds the
    w^(p-1-j) coefficient, and the wrapped bit folds back in through the low
    part of the polynomial with its p bits reversed.
    """
    p = poly.bit_length() - 1
    red = sum(1 << (p - 1 - k) for k in range(p) if (poly >> k) & 1)
    a = 1 << (p - 1)
    for _ in range((1 << p) - 1):
        yield a
        a = (a >> 1) ^ (red if a & 1 else 0)
