"""Linear algebra over GF(2) with rows packed into Python ints.

A matrix is a list of ints; bit j of row i is the entry in column j.  Vectors
use the same packing.  The row-vector convention applies throughout: applying
a matrix to a vector means XOR-ing together the rows selected by the vector's
set bits, i.e. x -> xM.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "reduce_vector",
    "rank",
    "is_independent",
    "echelon",
    "complete_basis",
    "apply_rows",
    "matmul",
    "invert",
]


def reduce_vector(v: int, pivots: dict[int, int]) -> int:
    """Reduce v against pivot rows keyed by leading-bit position."""
    while v:
        top = v.bit_length() - 1
        if top not in pivots:
            break
        v ^= pivots[top]
    return v


def _eliminate(rows: Iterable[int]) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for row in rows:
        v = reduce_vector(row, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


def rank(rows: Iterable[int]) -> int:
    """Row rank over GF(2)."""
    return len(_eliminate(rows))


def is_independent(rows: Iterable[int]) -> bool:
    """True iff the rows are linearly independent (none may be zero)."""
    pivots: dict[int, int] = {}
    for row in rows:
        v = reduce_vector(row, pivots)
        if not v:
            return False
        pivots[v.bit_length() - 1] = v
    return True


def echelon(rows: Iterable[int]) -> list[int]:
    """Fully reduced row-echelon basis of the span, in ascending leading-bit order.

    No row has another row's leading bit set.  These rows are also the greedy
    basis of the span's points taken in ascending order (the first point
    outside the span of those before it): each is the smallest point with its
    leading bit.
    """
    pivots = _eliminate(rows)
    order = sorted(pivots)
    for i, top in enumerate(order):
        for above in order[i + 1:]:
            if (pivots[above] >> top) & 1:
                pivots[above] ^= pivots[top]
    return [pivots[top] for top in order]


def complete_basis(vectors: Iterable[int], n: int) -> list[int]:
    """Extend independent vectors to a full basis of GF(2)^n.

    The given vectors come first in their original order; the extension takes
    the unit vectors 1 << j, j ascending, that are outside the span so far.
    That is the lexicographically smallest completion, because the smallest
    mask outside a span is always a power of two: if m = (1 << j) + r with
    0 < r < 1 << j were the smallest, 1 << j and r would both lie in the span,
    and so would their XOR m.
    """
    basis = list(vectors)
    pivots: dict[int, int] = {}
    for v in basis:
        red = reduce_vector(v, pivots)
        if not red:
            raise ValueError("vectors to complete are not independent")
        pivots[red.bit_length() - 1] = red
    for j in range(n):
        red = reduce_vector(1 << j, pivots)
        if red:
            pivots[red.bit_length() - 1] = red
            basis.append(1 << j)
    return basis


def apply_rows(rows: list[int], x: int) -> int:
    """Row-vector product xM: XOR of the rows selected by x's set bits."""
    acc = 0
    while x:
        j = (x & -x).bit_length() - 1
        acc ^= rows[j]
        x &= x - 1
    return acc


def matmul(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """Matrix product AB in the packed-row representation."""
    return [apply_rows(b_rows, row) for row in a_rows]


def invert(rows: list[int], n: int) -> list[int] | None:
    """Inverse of an n x n matrix, or None if singular."""
    # Augment [A | I] in one int per row: A in the high n bits.
    pivots: dict[int, int] = {}
    for i, row in enumerate(rows):
        aug = (row << n) | (1 << i)
        while aug >> n:
            top = (aug >> n).bit_length() - 1
            if top not in pivots:
                break
            aug ^= pivots[top]
        if not aug >> n:
            return None
        pivots[(aug >> n).bit_length() - 1] = aug
    for t in sorted(pivots):
        for u in pivots:
            if u > t and (pivots[u] >> (n + t)) & 1:
                pivots[u] ^= pivots[t]
    mask = (1 << n) - 1
    return [pivots[t] & mask for t in range(n)]
