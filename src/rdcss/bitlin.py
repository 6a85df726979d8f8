"""Linear algebra over GF(2) with rows packed into Python ints.

A matrix is a list of ints; bit j of row i is the entry in column j.  Vectors
use the same packing.  The row-vector convention applies throughout: applying
a matrix to a vector means XOR-ing together the rows selected by the vector's
set bits, i.e. x -> xM.

Every elimination is one step, insert: reduce a vector against pivot rows
keyed by their leading bit and store what is left.  Rank, independence, the
echelon basis, basis completion and the inverse are all built on it, as are
the search's pivot extensions in collineation.
"""

from __future__ import annotations

from typing import Iterable

# insert is left out: the benchmark tracer wraps every __all__ name, and
# insert is the innermost loop of the search and the tally.
__all__ = [
    "rank",
    "is_independent",
    "echelon",
    "complete_basis",
    "apply_rows",
    "matmul",
    "invert",
]


def insert(pivots: dict[int, int], v: int) -> bool:
    """Reduce v against pivot rows keyed by leading bit; store any remainder.

    Returns True when v lies outside the rows' span: its nonzero remainder is
    then a new row.  Returns False, leaving the rows as they were, when v
    reduces to zero.
    """
    while v:
        top = v.bit_length() - 1
        if top not in pivots:
            pivots[top] = v
            return True
        v ^= pivots[top]
    return False


def rank(rows: Iterable[int]) -> int:
    """Row rank over GF(2)."""
    pivots: dict[int, int] = {}
    for row in rows:
        insert(pivots, row)
    return len(pivots)


def is_independent(rows: Iterable[int]) -> bool:
    """True iff the rows are linearly independent (none may be zero)."""
    pivots: dict[int, int] = {}
    return all(insert(pivots, row) for row in rows)


def echelon(rows: Iterable[int]) -> list[int]:
    """Fully reduced row-echelon basis of the span, in ascending leading-bit order.

    No row has another row's leading bit set.  These rows are also the greedy
    basis of the span's points taken in ascending order (the first point
    outside the span of those before it): each is the smallest point with its
    leading bit.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        insert(pivots, row)
    order = sorted(pivots)
    for i, top in enumerate(order):
        for above in order[i + 1:]:
            if (pivots[above] >> top) & 1:
                pivots[above] ^= pivots[top]
    return [pivots[top] for top in order]


def complete_basis(vectors: Iterable[int], n: int) -> list[int]:
    """Extend independent vectors to a full basis of GF(2)^n.

    The given vectors come first in their original order; the extension takes
    the unit vectors 1 << j, j ascending, that lead no pivot row of the given
    vectors.  Below such a j the pivot rows and the unit vectors already taken
    span every mask, so 1 << j is the smallest mask outside the span so far,
    and this is the lexicographically smallest completion.
    """
    basis = list(vectors)
    pivots: dict[int, int] = {}
    for v in basis:
        if not insert(pivots, v):
            raise ValueError("vectors to complete are not independent")
    return basis + [1 << j for j in range(n) if j not in pivots]


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
    """Inverse of an n x n matrix, or None if singular.

    The echelon form of [A | I], packed with A in the high n bits, is
    [I | A^-1] when A is invertible.  A singular A leaves a row whose high n
    bits are all zero.
    """
    reduced = echelon((row << n) | (1 << i) for i, row in enumerate(rows))
    if any(not row >> n for row in reduced):
        return None
    mask = (1 << n) - 1
    return [row & mask for row in reduced]
