"""Spreads of PG(p-1, 2): disjoint subspace families that batch a 2^p design.

A full (t-1)-spread partitions the 2^p - 1 effects into subspaces of size
2^t - 1 and exists exactly when t divides p.  When t does not divide p the
builder returns a maximal-size partial spread; when one stage needs more than
half the dimensions the builder returns a mixed spread around it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitlin
from .geometry import Subspace, mask_word
from .gf2 import default_primitive, is_primitive, power_masks

__all__ = [
    "Spread",
    "SpreadCheck",
    "cyclic_spread",
    "partial_spread",
    "mixed_spread",
    "verify_spread",
]


@dataclass(frozen=True)
class Spread:
    """A family of pairwise disjoint effect subspaces.

    kind is "full" (partition), "partial" (maximal disjoint family) or
    "mixed" (one large member first, then complementary-dimension members).
    Cyclic constructions also carry cycle_table: each member's point masks in
    field-power order, matching the printed layout of the construction.
    """

    p: int
    members: tuple[Subspace, ...]
    kind: str
    cycle_table: tuple[tuple[int, ...], ...] | None = None


def cyclic_spread(p: int, t: int, poly: int | None = None) -> Spread:
    """Full (t-1)-spread of PG(p-1, 2) from the powers of a field generator.

    poly is the bit mask of a primitive polynomial of degree p (bit k is the
    coefficient of x^k); None takes default_primitive(p).

    Member j collects w^(iN + j) for i = 0..2^t - 2 with N = (2^p-1)/(2^t-1);
    consecutive powers of w walk the members cyclically.  Member j is
    w^j GF(2^t) with GF(2^t) generated by beta = w^N, so its first t powers
    w^j beta^i (i < t) are a basis.
    """
    if not 1 <= t < p:
        raise ValueError("need 1 <= t < p")
    if p % t:
        raise ValueError(
            f"no full ({t - 1})-spread of PG({p - 1}, 2): {t} does not divide {p}"
        )
    if poly is None:
        poly = default_primitive(p)
    if poly.bit_length() - 1 != p:
        raise ValueError(f"polynomial degree {poly.bit_length() - 1} does not match p={p}")
    if not is_primitive(poly):
        raise ValueError(f"polynomial {poly:#x} is not primitive")
    n_members = ((1 << p) - 1) // ((1 << t) - 1)
    masks = list(power_masks(poly))
    cycle_table = tuple(tuple(masks[j::n_members]) for j in range(n_members))
    members = tuple(
        Subspace(p=p, basis=tuple(bitlin.echelon(col[:t]))) for col in cycle_table
    )
    return Spread(p=p, members=members, kind="full", cycle_table=cycle_table)


def _sections(s: int, k: int, p: int) -> list[Subspace]:
    """Sections of the cyclic (s-1)-spread of GF(2)^2s by the first k coordinates.

    One member is mapped onto the first s coordinates and dropped: inverting
    its completed basis sends that basis to the unit vectors.  Every other
    member meets the first-k-coordinates subspace (s <= k <= 2s) in dimension
    exactly k - s.  Eliminating the bits >= k from a member's echelon basis
    leaves the echelon basis of that section.
    """
    big = cyclic_spread(2 * s, s)
    rows = bitlin.invert(bitlin.complete_basis(big.members[0].basis, 2 * s), 2 * s)
    if rows is None:
        raise RuntimeError("construction invariant violated: member basis not invertible")
    out = []
    for other in big.members[1:]:
        image = bitlin.echelon(bitlin.apply_rows(rows, b) for b in other.basis)
        cut = tuple(b for b in image if not b >> k)
        if len(cut) != k - s:
            raise RuntimeError("construction invariant violated: section has wrong size")
        out.append(Subspace(p=p, basis=cut))
    return out


def _by_smallest_point(members: list[Subspace]) -> list[Subspace]:
    # An echelon basis starts with the member's smallest point.
    return sorted(members, key=lambda sub: sub.basis[0])


def partial_spread(p: int, t: int) -> Spread:
    """Maximal-size family of disjoint (t-1)-subspaces when t does not divide p.

    Write p = kt + r with 0 < r < t.  Starting from one member in dimension
    t + r, each round lifts to dimension s + t by carving a cyclic
    (s-1)-spread of a 2s-dimensional space: one spread member is aligned with
    the current space and dropped, and the rest meet the enlarged space in
    subspaces of dimension exactly t, adding 2^s members per round.  The
    final count is 2^r (2^kt - 1)/(2^t - 1) - 2^r + 1.
    """
    if not 1 <= t < p:
        raise ValueError("need 1 <= t < p")
    r = p % t
    if r == 0:
        raise ValueError(f"{t} divides {p}: a full spread exists, use cyclic_spread")
    members = [Subspace(p=p, basis=tuple(1 << j for j in range(t)))]
    for s in range(t + r, p, t):
        members += _sections(s, s + t, p)
    expected = (1 << r) * ((1 << (p - r)) - 1) // ((1 << t) - 1) - (1 << r) + 1
    if len(members) != expected:
        raise RuntimeError("construction invariant violated: member count mismatch")
    return Spread(p=p, members=tuple(_by_smallest_point(members)), kind="partial")


def mixed_spread(p: int, t1: int) -> Spread:
    """One (t1-1)-subspace plus 2^t1 disjoint subspaces of dimension p - t1.

    Needs p/2 < t1 < p.  The effect space embeds in a 2*t1-dimensional space
    carrying a full (t1-1)-spread; aligning one member with the distinguished
    subspace, every other member meets the embedded space in a subspace of
    dimension exactly p - t1.  The distinguished member comes first.
    """
    if not 1 <= t1 < p:
        raise ValueError("need 1 <= t1 < p: a stage cannot use the whole effect space")
    if 2 * t1 <= p:
        raise ValueError(
            f"t1={t1} needs no mixed construction for p={p}: use cyclic_spread or partial_spread"
        )
    distinguished = Subspace(p=p, basis=tuple(1 << j for j in range(t1)))
    tail = _by_smallest_point(_sections(t1, p, p))
    return Spread(p=p, members=(distinguished, *tail), kind="mixed")


@dataclass(frozen=True)
class SpreadCheck:
    """Verification report for a spread; violations are concrete effect words."""

    ok: bool
    member_count: int
    covered: int
    point_total: int
    disjoint_violations: tuple[tuple[int, int, str], ...]
    closure_violations: tuple[tuple[int, str], ...]
    full_partition: bool


def verify_spread(spread: Spread) -> SpreadCheck:
    """Re-check disjointness and per-member closure from the raw point sets."""
    disjoint: list[tuple[int, int, str]] = []
    closure: list[tuple[int, str]] = []
    for i, member in enumerate(spread.members):
        masks = member.point_masks
        for a in masks:
            for b in masks:
                if a < b and (a ^ b) not in masks:
                    closure.append((i, f"{mask_word(a)}*{mask_word(b)}"))
    for i, m1 in enumerate(spread.members):
        for j in range(i + 1, len(spread.members)):
            for shared in sorted(m1.point_masks & spread.members[j].point_masks):
                disjoint.append((i, j, mask_word(shared)))
    covered = len(frozenset().union(*(m.point_masks for m in spread.members)))
    total = (1 << spread.p) - 1
    ok = not disjoint and not closure
    return SpreadCheck(
        ok=ok,
        member_count=len(spread.members),
        covered=covered,
        point_total=total,
        disjoint_violations=tuple(disjoint),
        closure_violations=tuple(closure),
        full_partition=ok and covered == total,
    )
