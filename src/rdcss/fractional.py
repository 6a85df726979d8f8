"""Regular two-level fractional factorials layered over staged designs.

A 2^(r-s) fraction keeps the 2^u runs of a base design on u = r - s basic
factors and sets each added factor equal to an interaction of basic factors.
Batch structure is untouched, so each randomization stage of the base design
lifts to a subspace over all r factors: the effects whose contrast is
batch-constant at that stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .geometry import LETTERS, Effect, Subspace, mask_word, parse_effect
from .randomization import Design

__all__ = [
    "Generator",
    "FractionSpec",
    "DefiningSubgroup",
    "FractionalDesign",
    "ClearReport",
    "RankedDesign",
    "defining_subgroup",
    "build_fraction",
    "stage_factor_sets",
    "clear_effects",
    "rank_designs",
    "choose_generators",
    "parse_fraction_spec",
    "fraction_spec_to_dict",
]


@dataclass(frozen=True)
class Generator:
    """One added factor: its letter, its alias word, an optional stage bond.

    The alias is an interaction of basic factors; `stage` (0-based index into
    the base design's stages) demands that the alias lie in that stage's
    subspace, which pins the added factor's level changes to that stage's
    batches.
    """

    letter: str
    alias: Effect
    stage: int | None = None


@dataclass(frozen=True)
class FractionSpec:
    """A 2^(factors - basic) fraction: which words define the added factors."""

    factors: int
    basic: int
    generators: tuple[Generator, ...]

    def __post_init__(self) -> None:
        r, u = self.factors, self.basic
        # u == r is the degenerate s=0 fraction: the base design itself.
        if not 2 <= u <= r <= len(LETTERS):
            raise ValueError(
                f"need 2 <= basic <= factors <= {len(LETTERS)}, got basic={u}, factors={r}"
            )
        if len(self.generators) != r - u:
            raise ValueError(
                f"need {r - u} generators for a 2^({r}-{r - u}) fraction, "
                f"got {len(self.generators)}"
            )
        seen: set[int] = set()
        for j, gen in enumerate(self.generators):
            if gen.letter != LETTERS[u + j]:
                raise ValueError(
                    f"generator {j + 1} must define factor {LETTERS[u + j]!r}, "
                    f"got {gen.letter!r}"
                )
            if gen.alias.p != u:
                raise ValueError(
                    f"alias for {gen.letter} must be a word over the {u} basic factors"
                )
            if gen.alias.order < 2:
                raise ValueError(
                    f"alias for {gen.letter} duplicates the basic factor "
                    f"{gen.alias.word}"
                )
            if gen.alias.bits in seen:
                raise ValueError(f"duplicate generator alias {gen.alias.word}")
            seen.add(gen.alias.bits)

    @property
    def s(self) -> int:
        return self.factors - self.basic

    @property
    def runs(self) -> int:
        return 1 << self.basic

    def defining_words(self) -> tuple[int, ...]:
        """Masks of the s generating words: alias times the added factor's letter."""
        u = self.basic
        return tuple(
            gen.alias.bits | (1 << (u + j)) for j, gen in enumerate(self.generators)
        )


@dataclass(frozen=True)
class DefiningSubgroup:
    """All 2^s - 1 nonzero products of the generating words, as ascending masks."""

    factors: int
    words: tuple[int, ...]

    @property
    def wlp(self) -> tuple[int, ...]:
        """Word length pattern: entry k-1 counts defining words of length k."""
        counts = [0] * self.factors
        for w in self.words:
            counts[w.bit_count() - 1] += 1
        return tuple(counts)

    @property
    def resolution(self) -> int | None:
        """Shortest defining word length; None for the empty s=0 subgroup."""
        return min((w.bit_count() for w in self.words), default=None)


def defining_subgroup(spec: FractionSpec) -> DefiningSubgroup:
    # Each generating word holds its own added-factor bit, so the words are
    # independent and span a subspace of 2^s - 1 nonzero words.
    sub = Subspace(p=spec.factors, basis=spec.defining_words())
    return DefiningSubgroup(factors=spec.factors, words=tuple(sorted(sub.point_masks)))


@dataclass(frozen=True)
class FractionalDesign:
    """The fraction's runs plus the base stages lifted over all r factors."""

    base: Design
    spec: FractionSpec
    stages: tuple[Subspace, ...]
    subgroup: DefiningSubgroup

    @property
    def factors(self) -> int:
        return self.spec.factors

    @property
    def runs(self) -> int:
        return self.spec.runs

    @cached_property
    def run_masks(self) -> tuple[int, ...]:
        """Level vector of each run packed as an r-bit mask, basic bits low."""
        u = self.spec.basic
        out = []
        for x in range(self.runs):
            m = x
            for j, gen in enumerate(self.spec.generators):
                if (x & gen.alias.bits).bit_count() & 1:
                    m |= 1 << (u + j)
            out.append(m)
        return tuple(out)

    @cached_property
    def run_matrix(self) -> np.ndarray:
        """2^u x r factor levels in {0,1}."""
        masks = np.array(self.run_masks, dtype=np.int64)
        cols = np.arange(self.factors)[None, :]
        return ((masks[:, None] >> cols) & 1).astype(np.uint8)


def build_fraction(base: Design, spec: FractionSpec) -> FractionalDesign:
    """Attach added factors to a staged base design.

    Stage-bound generators must alias into their stage's subspace; each base
    stage lifts to the span of its basis together with all defining words,
    a (t_i + s)-dimensional subspace over the r factors.
    """
    if base.p != spec.basic:
        raise ValueError(
            f"base design has p={base.p} but the fraction expects {spec.basic} "
            "basic factors"
        )
    for gen in spec.generators:
        if gen.stage is None:
            continue
        if not 0 <= gen.stage < len(base.stages):
            raise ValueError(
                f"generator {gen.letter} names stage {gen.stage + 1}; "
                f"the base design has {len(base.stages)}"
            )
        if gen.alias.bits not in base.stages[gen.stage].point_masks:
            raise ValueError(
                f"stage containment violated: alias {gen.alias.word} for "
                f"{gen.letter} is not in stage {gen.stage + 1}"
            )
    subgroup = defining_subgroup(spec)
    words = spec.defining_words()
    # Base bases use only basic bits and each word holds its own added bit,
    # so the lifted generators are independent.
    stages = tuple(
        Subspace(p=spec.factors, basis=(*sub.basis, *words)) for sub in base.stages
    )
    return FractionalDesign(base=base, spec=spec, stages=stages, subgroup=subgroup)


def stage_factor_sets(design: FractionalDesign) -> tuple[tuple[str, ...], ...]:
    """Letters applied at each stage: factors whose main effect sits in the
    lifted stage subspace (basic letters by membership, added letters when
    their alias lies in the base stage)."""
    out = []
    for sub in design.stages:
        letters = tuple(
            LETTERS[j]
            for j in range(design.factors)
            if (1 << j) in sub.point_masks
        )
        out.append(letters)
    return tuple(out)


@dataclass(frozen=True)
class ClearReport:
    """Mains and two-factor interactions free of low-order aliasing."""

    clear_mains: tuple[str, ...]
    clear_two_fis: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.clear_mains) + len(self.clear_two_fis)


def clear_effects(subgroup: DefiningSubgroup) -> ClearReport:
    """An effect is clear when no alias partner is a main or two-factor
    interaction."""
    r = subgroup.factors
    words = subgroup.words

    def clear(bits: int) -> bool:
        return all((bits ^ w).bit_count() > 2 for w in words)

    mains = [LETTERS[j] for j in range(r) if clear(1 << j)]
    two_fis = []
    for a, b in combinations(range(r), 2):
        bits = (1 << a) | (1 << b)
        if clear(bits):
            two_fis.append(mask_word(bits))
    return ClearReport(clear_mains=tuple(mains), clear_two_fis=tuple(two_fis))


@dataclass(frozen=True)
class RankedDesign:
    spec: FractionSpec
    subgroup: DefiningSubgroup
    resolution: int
    wlp: tuple[int, ...]
    clear: ClearReport


def rank_designs(
    candidates: tuple[FractionSpec, ...] | list[FractionSpec],
    criterion: str = "wlp-aberration",
) -> tuple[RankedDesign, ...]:
    """Order candidate fractions best-first.

    "wlp-aberration" minimizes the word length pattern lexicographically from
    the shortest length (so higher resolution wins first); "clear-count"
    maximizes the number of clear mains plus clear two-factor interactions.
    Ties break on the sorted defining-word masks for a reproducible order.
    """
    if criterion not in ("wlp-aberration", "clear-count"):
        raise ValueError(f"unknown ranking criterion {criterion!r}")
    ranked = []
    for spec in candidates:
        subgroup = defining_subgroup(spec)
        ranked.append(
            RankedDesign(
                spec=spec,
                subgroup=subgroup,
                resolution=subgroup.resolution,
                wlp=subgroup.wlp,
                clear=clear_effects(subgroup),
            )
        )

    def key(rd: RankedDesign):
        if criterion == "wlp-aberration":
            return (rd.wlp, rd.subgroup.words)
        return (-rd.clear.count, rd.wlp, rd.subgroup.words)

    return tuple(sorted(ranked, key=key))


def choose_generators(
    base: Design, factors: int, stage_bindings: tuple[int | None, ...]
) -> tuple[Generator, ...]:
    """Pick canonical aliases for the added factors.

    One binding per added factor, in letter order: a stage index restricts the
    alias to that stage's subspace, None allows any interaction of basic
    factors.  Each slot takes the smallest unused non-main word available;
    exhaustion raises.
    """
    u = base.p
    s = factors - u
    if s < 1:
        raise ValueError("fraction needs at least one added factor")
    if len(stage_bindings) != s:
        raise ValueError(f"need {s} stage bindings, got {len(stage_bindings)}")
    used: set[int] = set()
    gens = []
    for j, binding in enumerate(stage_bindings):
        letter = LETTERS[u + j]
        if binding is None:
            pool = range(1, 1 << u)
        else:
            if not 0 <= binding < len(base.stages):
                raise ValueError(
                    f"binding for {letter} names stage {binding + 1}; "
                    f"the base design has {len(base.stages)}"
                )
            pool = sorted(base.stages[binding].point_masks)
        alias = next(
            (
                m
                for m in pool
                if m.bit_count() >= 2 and m not in used
            ),
            None,
        )
        if alias is None:
            where = "the basic factors" if binding is None else f"stage {binding + 1}"
            raise ValueError(f"no alias word left in {where} for factor {letter}")
        used.add(alias)
        gens.append(Generator(letter=letter, alias=Effect(alias, u), stage=binding))
    return tuple(gens)


def parse_fraction_spec(data: str | dict) -> FractionSpec:
    """Read a fraction spec from JSON.

    Shape: {"factors": 8, "basic": 6, "generators": {"G": "ABCD",
    "H": {"alias": "ABEF", "stage": 2}}} with 1-based stage numbers.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("fraction spec must be a JSON object")
    try:
        factors = int(data["factors"])
        basic = int(data["basic"])
        raw = data["generators"]
        if not isinstance(raw, dict):
            raise ValueError("generators must map added letters to alias words")
        gens = []
        # Out-of-range counts give a short slice here and are refused by FractionSpec.
        for letter in LETTERS[basic:factors]:
            if letter not in raw:
                raise ValueError(f"fraction spec has no generator for factor {letter!r}")
            entry = raw[letter]
            stage = None
            if isinstance(entry, dict):
                word = entry["alias"]
                if entry.get("stage") is not None:
                    stage = int(entry["stage"]) - 1
            else:
                word = entry
            alias = parse_effect(str(word), basic)
            gens.append(Generator(letter=letter, alias=alias, stage=stage))
    except KeyError as exc:
        raise ValueError(f"fraction spec is missing the {exc.args[0]!r} key") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed fraction spec: {exc}") from None
    extra = set(raw) - {g.letter for g in gens}
    if extra:
        raise ValueError(f"unexpected generator letters: {sorted(extra)}")
    return FractionSpec(factors=factors, basic=basic, generators=tuple(gens))


def fraction_spec_to_dict(spec: FractionSpec) -> dict:
    gens: dict[str, object] = {}
    for gen in spec.generators:
        if gen.stage is None:
            gens[gen.letter] = gen.alias.word
        else:
            gens[gen.letter] = {"alias": gen.alias.word, "stage": gen.stage + 1}
    return {"factors": spec.factors, "basic": spec.basic, "generators": gens}
