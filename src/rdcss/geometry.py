"""Effects of a 2^p design as points of the projective geometry PG(p-1, 2).

An effect is a nonzero 0/1 vector of length p; factor j (letter A, B, ...)
sits in coordinate j, packed into bit j of an int mask.  Ascending masks give
the standard ordering A, B, AB, C, AC, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import bitlin

__all__ = [
    "LETTERS",
    "MAX_FACTORS",
    "Effect",
    "parse_effect",
    "rank",
    "span",
    "subspace_from_points",
    "intersect",
    "Subspace",
]

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWX"
MAX_FACTORS = len(LETTERS)


def _word_table(letters: str) -> tuple[str, ...]:
    """Words of all 2^k masks over k letters; entry m spells mask m."""
    table = [""]
    for ch in letters:
        table += [w + ch for w in table]
    return tuple(table)


# Words of the low and high 12 bits; together they cover all 24 letters.
_LOW_WORDS = _word_table(LETTERS[:12])
_HIGH_WORDS = _word_table(LETTERS[12:])


def mask_word(bits: int) -> str:
    """Factor word of an effect mask: bit j contributes letter j, e.g. 0b1101 -> ACD."""
    return _LOW_WORDS[bits & 0xFFF] + _HIGH_WORDS[bits >> 12]


@dataclass(frozen=True, order=True)
class Effect:
    """One factorial effect, i.e. one point of PG(p-1, 2)."""

    bits: int
    p: int

    def __post_init__(self) -> None:
        if not 2 <= self.p <= MAX_FACTORS:
            raise ValueError(f"factor count must be 2..{MAX_FACTORS}")
        if not 0 < self.bits < (1 << self.p):
            raise ValueError("effect must be nonzero and within the factor range")

    @property
    def word(self) -> str:
        return mask_word(self.bits)

    @property
    def order(self) -> int:
        """Number of factors in the effect (1 = main effect)."""
        return self.bits.bit_count()

    def __str__(self) -> str:
        return self.word


def parse_effect(word: str, p: int) -> Effect:
    """Parse a factor word such as 'BDE' into an Effect."""
    if not word:
        raise ValueError("empty factor word")
    bits = 0
    for ch in word:
        j = LETTERS.find(ch.upper())
        if j < 0 or j >= p:
            raise ValueError(f"unknown factor letter {ch!r} for p={p}")
        if bits >> j & 1:
            raise ValueError(f"repeated factor letter {ch!r} in {word!r}")
        bits |= 1 << j
    return Effect(bits, p)


def _same_space(effects: Sequence[Effect]) -> int:
    ps = {e.p for e in effects}
    if len(ps) != 1:
        raise ValueError("effects live in different factor counts")
    return ps.pop()


def rank(effects: Sequence[Effect]) -> int:
    """GF(2) rank of a list of effects."""
    if not effects:
        return 0
    _same_space(effects)
    return bitlin.rank(e.bits for e in effects)


@dataclass(frozen=True)
class Subspace:
    """A t-dimensional subspace of effects, held as t independent basis masks.

    The basis order labels the batches (see randomization.batch_indices) and
    is what design files record.  span keeps its generators in order; spread
    members and intersections carry the reduced echelon basis
    (bitlin.echelon), which equals the greedy basis of the sorted points.
    The 2^t - 1 points are built on first access: point_masks as a set,
    points as Effects in ascending order.
    """

    p: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def point_masks(self) -> frozenset[int]:
        masks = [0]
        for g in self.basis:
            masks += [x ^ g for x in masks]
        return frozenset(masks[1:])

    @cached_property
    def points(self) -> tuple[Effect, ...]:
        return tuple(Effect(m, self.p) for m in sorted(self.point_masks))

    def __len__(self) -> int:
        return (1 << self.dim) - 1


def span(generators: Sequence[Effect]) -> Subspace:
    """Subspace spanned by independent generators, kept as its basis in order."""
    if not generators:
        raise ValueError("span needs at least one generator")
    p = _same_space(generators)
    pivots: dict[int, int] = {}
    for g in generators:
        red = bitlin.reduce_vector(g.bits, pivots)
        if not red:
            raise ValueError(f"generators not independent: {g.word} is spanned by the others")
        pivots[red.bit_length() - 1] = red
    return Subspace(p=p, basis=tuple(g.bits for g in generators))


def subspace_from_points(points: Sequence[Effect]) -> Subspace:
    """Build a Subspace from its full point set, verifying closure.

    The basis is the reduced echelon basis, which is also the greedy basis of
    the points in ascending order.
    """
    if not points:
        raise ValueError("empty point set")
    p = _same_space(points)
    masks = {e.bits for e in points}
    if len(masks) != len(points):
        raise ValueError("duplicate points")
    basis = bitlin.echelon(masks)
    # The points span a rank-t subspace, so they fill it iff there are 2^t - 1.
    if len(masks) != (1 << len(basis)) - 1:
        raise ValueError(
            f"point set of size {len(masks)} does not fill a rank-{len(basis)} subspace"
        )
    return Subspace(p=p, basis=tuple(basis))


def intersect(s1: Subspace, s2: Subspace) -> Subspace | None:
    """Intersection subspace, or None when the subspaces share no effect."""
    if s1.p != s2.p:
        raise ValueError("subspaces live in different factor counts")
    common = s1.point_masks & s2.point_masks
    if not common:
        return None
    return Subspace(p=s1.p, basis=tuple(bitlin.echelon(common)))
