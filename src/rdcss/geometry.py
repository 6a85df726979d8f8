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
    "span",
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


@dataclass(frozen=True)
class Subspace:
    """A t-dimensional subspace of effects, held as t independent basis masks.

    The basis order labels the batches (see randomization.batch_indices) and
    is what design files record.  span keeps its generators in order; spread
    members and intersections carry the reduced echelon basis
    (bitlin.echelon), which equals the greedy basis of the sorted points.
    The 2^t - 1 points are built on first access, as the set point_masks.
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

    def __len__(self) -> int:
        return (1 << self.dim) - 1


def span(generators: Sequence[Effect]) -> Subspace:
    """Subspace spanned by independent generators, kept as its basis in order."""
    if not generators:
        raise ValueError("span needs at least one generator")
    ps = {g.p for g in generators}
    if len(ps) != 1:
        raise ValueError("effects live in different factor counts")
    p = ps.pop()
    pivots: dict[int, int] = {}
    for g in generators:
        if not bitlin.insert(pivots, g.bits):
            raise ValueError(f"generators not independent: {g.word} is spanned by the others")
    return Subspace(p=p, basis=tuple(g.bits for g in generators))


def intersect(s1: Subspace, s2: Subspace) -> Subspace | None:
    """Intersection subspace, or None when the subspaces share no effect."""
    if s1.p != s2.p:
        raise ValueError("subspaces live in different factor counts")
    common = s1.point_masks & s2.point_masks
    if not common:
        return None
    return Subspace(p=s1.p, basis=tuple(bitlin.echelon(common)))
