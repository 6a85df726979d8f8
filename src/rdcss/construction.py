"""One construction for every staged design: a spread, a collineation, a fraction.

`build` picks a spread of PG(u-1, 2) for the u basic factors, searches for a
collineation that moves chosen members onto the stages' required basic
effects, and, when there are more factors than basic ones, aliases each added
factor into its stage with the generators of a regular 2^(r-u) fraction.  A
full 2^p design is the case factors == basic == p: every stage word is then a
basic effect, every stage is searched, and no fraction is layered on top.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from . import bitlin
from . import collineation as coll
from . import existence, fractional, spreads
from .geometry import Effect
from .randomization import Design

__all__ = ["Built", "BudgetExhausted", "Infeasible", "build"]


class Infeasible(Exception):
    """Raised when a request is proven unsatisfiable (exit code 3)."""


class BudgetExhausted(Exception):
    """Raised when the search budget ran out before a verdict (exit code 4)."""


@dataclasses.dataclass(frozen=True)
class Built:
    """The base design, its fraction or None, the relabeled spread, the
    collineation that relabeled it, and each stage's member index in it."""

    design: Design
    fraction: fractional.FractionalDesign | None
    spread: spreads.Spread
    collineation: coll.Collineation
    members: tuple[int, ...]


def required_rank(stage: coll.StageRequirement) -> int:
    """The dimension a stage asks for: its words' rank, or min_dim if larger."""
    rk = bitlin.rank([e.bits for e in stage.required_effects])
    return max(rk, stage.min_dim or 0)


def _refuse_overlap(p: int, dims: list[int]) -> None:
    oracle = existence.feasibility_report(p, tuple(dims))
    if oracle.verdict == "exists-with-overlap":
        raise Infeasible(
            "existence rules prove the stages cannot be disjoint: "
            + "; ".join(oracle.rules)
        )


def choose_spread(
    p: int,
    t: int | None,
    dims: list[int],
    poly: int | None,
    partial: bool = True,
) -> spreads.Spread:
    """Pick the spread family a request calls for.

    Explicit t wins; otherwise uniform stage dimensions choose a full or
    partial spread and one oversized stage routes to the mixed construction.
    partial=False refuses a t that does not divide p.  A polynomial is
    refused unless the spread is the full cyclic one it generates.
    """
    mixed = t is None and 2 * max(dims) > p and len(set(dims)) > 1
    if t is None:
        t = max(dims)
    if not mixed:
        if not 1 <= t < p:
            raise ValueError(f"spread dimension must satisfy 1 <= t < p, got t={t}, p={p}")
        if p % t == 0:
            return spreads.cyclic_spread(p, t, poly)
        if not partial:
            raise ValueError(
                f"no full ({t - 1})-spread of PG({p - 1}, 2): {t} does not divide "
                f"{p}; pass --partial for the largest guaranteed partial spread"
            )
    if poly is not None:
        raise ValueError("a custom polynomial only applies to a full cyclic spread")
    return spreads.mixed_spread(p, t) if mixed else spreads.partial_spread(p, t)


def search(
    spread: spreads.Spread,
    requirements: list[coll.StageRequirement],
    budget: int | None,
) -> tuple[coll.SearchResult, spreads.Spread]:
    """Search, then return the result and the spread its collineation relabels.

    An infeasible or budget-exhausted search raises the matching exception.
    """
    result = coll.find_collineation(spread, requirements, max_candidates=budget)
    if result.status == "infeasible":
        raise Infeasible(
            f"no collineation satisfies the stage requirements on this spread "
            f"({result.candidates_tried} candidate assignments checked); "
            "revisit the spread dimensions or relax exact stages"
        )
    if result.status == "budget-exhausted":
        raise BudgetExhausted(
            f"search budget of {result.candidates_tried} candidate assignments "
            "exhausted without a verdict; raise --budget"
        )
    return result, coll.apply_to_spread(result.collineation, spread)


def _spare_member(
    spread: spreads.Spread, used: set[int], needed_points: int, min_dim: int
) -> int:
    for j, mem in enumerate(spread.members):
        if j in used or mem.dim < min_dim:
            continue
        spare = sum(1 for b in mem.point_masks if b.bit_count() >= 2)
        if spare >= needed_points:
            return j
    raise Infeasible(
        "no spread member left with enough interaction points to alias the "
        "added factors of an added-only stage"
    )


def build(
    factors: int,
    basic: int,
    stages: Sequence[coll.StageRequirement],
    *,
    t: int | None = None,
    poly: int | None = None,
    budget: int | None = None,
) -> Built:
    """Build the design whose stages meet `stages`, given over `factors` letters.

    The first `basic` letters span the base design.  t is the dimension of
    the base spread's members (without it, the stage ranks choose the spread)
    and is required for a fraction; poly is the primitive polynomial of a
    full cyclic spread, and budget caps the search's candidate assignments.
    Raises Infeasible, BudgetExhausted or ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"search budget must be non-negative, got {budget}")
    r, u = factors, basic
    # Stage words are basic effects (searched on the base spread) or single
    # added letters (aliased into their stage by the generators).
    letter_stage: dict[int, int] = {}
    searched: dict[int, coll.StageRequirement] = {}
    for i, stage in enumerate(stages):
        basic_effects: list[Effect] = []
        for e in stage.required_effects:
            if e.bits < (1 << u):
                basic_effects.append(Effect(e.bits, u))
            elif e.order == 1:
                ell = e.bits.bit_length() - 1
                if letter_stage.get(ell) == i:
                    raise ValueError(f"added factor {e.word} is repeated within stage {i + 1}")
                if ell in letter_stage:
                    raise ValueError(f"added factor {e.word} appears in two stages")
                letter_stage[ell] = i
            else:
                raise ValueError(
                    f"stage word {e.word} mixes added factors into an interaction; "
                    "stage words are basic-factor effects or single added letters"
                )
        if basic_effects:
            searched[i] = dataclasses.replace(stage, required_effects=tuple(basic_effects))

    dims = [t if t else required_rank(s) for s in stages]
    _refuse_overlap(u, dims)
    spread = choose_spread(u, t, dims, poly)
    matrix = coll.Collineation.identity(u)
    member: dict[int, int] = {}
    if searched:
        result, spread = search(spread, list(searched.values()), budget)
        matrix = result.collineation
        member = dict(zip(searched, result.stage_members))
    used = set(member.values())
    for i, stage in enumerate(stages):
        if i not in member:  # added letters only: one interaction point each
            member[i] = _spare_member(
                spread, used, len(stage.required_effects), stage.min_dim or t
            )
            used.add(member[i])
    members = tuple(member[i] for i in range(len(stages)))

    design = Design(p=u, stages=tuple(spread.members[j] for j in members))
    fraction = None
    if r > u:
        bindings = tuple(letter_stage.get(ell) for ell in range(u, r))
        generators = fractional.choose_generators(design, r, bindings)
        spec = fractional.FractionSpec(factors=r, basic=u, generators=generators)
        fraction = fractional.build_fraction(design, spec)
    return Built(design, fraction, spread, matrix, members)
