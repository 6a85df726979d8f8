"""Collineations of PG(p-1, 2) and the requirement-driven relabeling search.

A collineation is an invertible p x p bit matrix M acting on effects by
z -> z'M (row-vector convention: XOR the rows of M selected by z's set bits).
Collineations preserve XOR, so they carry spreads to spreads; the search below
looks for one that moves chosen spread members onto experimenter-required
effect sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from . import bitlin
from .geometry import Effect, Subspace, span
from .spreads import Spread

__all__ = [
    "Collineation",
    "StageRequirement",
    "SearchResult",
    "FeasibilityCount",
    "apply",
    "apply_to_subspace",
    "apply_to_spread",
    "is_invertible",
    "find_collineation",
    "count_feasible",
]


@dataclass(frozen=True)
class Collineation:
    """p x p bit matrix; rows[i] packs row i with bit j = entry (i, j)."""

    p: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.p:
            raise ValueError("row count must equal p")
        if any(not 0 <= r < (1 << self.p) for r in self.rows):
            raise ValueError("row width exceeds p")

    @classmethod
    def identity(cls, p: int) -> "Collineation":
        return cls(p, tuple(1 << j for j in range(p)))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1


def apply(m: Collineation, e: Effect) -> Effect:
    """Image z'M of an effect under the collineation."""
    if e.p != m.p:
        raise ValueError("effect width does not match collineation size")
    return Effect(bitlin.apply_rows(list(m.rows), e.bits), m.p)


def is_invertible(m: Collineation) -> bool:
    """True iff the matrix has full GF(2) rank."""
    return bitlin.rank(m.rows) == m.p


def apply_to_subspace(m: Collineation, s: Subspace) -> Subspace:
    """Image subspace; a collineation maps a basis to a basis of the image."""
    rows = list(m.rows)
    return Subspace(p=m.p, basis=tuple(bitlin.apply_rows(rows, b) for b in s.basis))


def apply_to_spread(m: Collineation, spread: Spread) -> Spread:
    """Image spread: members map basis by basis; disjointness and sizes survive."""
    if spread.p != m.p:
        raise ValueError("spread width does not match collineation size")
    if not is_invertible(m):
        raise ValueError("collineation must be invertible")
    members = tuple(apply_to_subspace(m, member) for member in spread.members)
    cycle = None
    if spread.cycle_table is not None:
        rows = list(m.rows)
        cycle = tuple(
            tuple(bitlin.apply_rows(rows, x) for x in column)
            for column in spread.cycle_table
        )
    return Spread(p=spread.p, members=members, kind=spread.kind, cycle_table=cycle)


@dataclass(frozen=True)
class StageRequirement:
    """What one randomization stage demands of its spread member after relabeling.

    required_effects must land inside the member's image; exact=True demands
    the image equal their span (so the member's dimension must equal their
    rank).  min_dim asks for a member of at least that dimension (default:
    the rank of required_effects).
    """

    required_effects: tuple[Effect, ...]
    min_dim: int | None = None
    exact: bool = False


@dataclass(frozen=True)
class SearchResult:
    """Outcome of find_collineation; status is found / infeasible / budget-exhausted."""

    status: str
    collineation: Collineation | None
    stage_members: tuple[int, ...] | None
    candidates_tried: int


def _validated_requirements(
    spread: Spread, requirements: Sequence[StageRequirement]
) -> tuple[list[list[int]], list[int], list[int]]:
    p = spread.p
    if not requirements:
        raise ValueError("at least one stage requirement is needed")
    stage_targets: list[list[int]] = []
    ranks: list[int] = []
    min_dims: list[int] = []
    for idx, req in enumerate(requirements, start=1):
        if not req.required_effects:
            raise ValueError(f"stage {idx} has no required effects")
        if any(e.p != p for e in req.required_effects):
            raise ValueError(f"stage {idx} effects do not match p={p}")
        masks = [e.bits for e in req.required_effects]
        if not bitlin.is_independent(masks):
            raise ValueError(f"stage {idx} required effects are not independent")
        rk = len(masks)
        md = rk if req.min_dim is None else req.min_dim
        if md < rk:
            raise ValueError(f"stage {idx} min_dim {md} is below the required rank {rk}")
        if req.exact and md != rk:
            raise ValueError(f"stage {idx} is exact: min_dim must equal the rank {rk}")
        stage_targets.append(masks)
        ranks.append(rk)
        min_dims.append(md)
    total = sum(ranks)
    if total > p:
        raise ValueError(f"requirements demand {total} independent effects but p={p}")
    flat = [m for ms in stage_targets for m in ms]
    if not bitlin.is_independent(flat):
        raise ValueError("required effects are not jointly independent across stages")
    return stage_targets, ranks, min_dims


def find_collineation(
    spread: Spread,
    requirements: Sequence[StageRequirement],
    max_candidates: int | None = None,
) -> SearchResult:
    """Search for a collineation meeting every stage requirement.

    Deterministic enumeration: stage-to-member injections in member-index
    order, then per-stage source subsets in combination order over each
    member's sorted points, each subset paired sorted-source to listed-target.
    When the stage ranks do not sum to p, the assignment is completed from the
    points of unassigned members (lexicographic order, all completions
    enumerated on backtracking) against a fixed lexicographic target-basis
    completion.  Every complete candidate assignment counts against
    max_candidates; the first feasible one wins.
    """
    p = spread.p
    stage_targets, ranks, min_dims = _validated_requirements(spread, requirements)
    m = len(requirements)
    total_rank = sum(ranks)
    need = p - total_rank

    flat_targets = [mask for ms in stage_targets for mask in ms]
    completion_targets = bitlin.complete_basis(flat_targets, p)[total_rank:]
    exact_sets = [
        span(tuple(req.required_effects)).point_masks if req.exact else None
        for req in requirements
    ]

    candidates: list[list[int]] = []
    for i, req in enumerate(requirements):
        if req.exact:
            cand = [j for j, mem in enumerate(spread.members) if mem.dim == ranks[i]]
        else:
            cand = [j for j, mem in enumerate(spread.members) if mem.dim >= min_dims[i]]
        candidates.append(cand)

    member_points = [sorted(mem.point_masks) for mem in spread.members]

    def injections(stage: int, used: set[int], chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if stage == m:
            yield tuple(chosen)
            return
        for j in candidates[stage]:
            if j in used:
                continue
            used.add(j)
            chosen.append(j)
            yield from injections(stage + 1, used, chosen)
            chosen.pop()
            used.remove(j)

    def candidate_assignments(inj: tuple[int, ...]) -> Iterator[list[tuple[int, int]] | None]:
        # Yields complete p-pair candidates; a None marks a stage-source
        # choice admitting no independent completion (one failed candidate).
        pool = sorted(
            pt
            for j in range(len(spread.members))
            if j not in inj
            for pt in member_points[j]
        )

        def rec(stage: int, acc: list[tuple[int, int]]) -> Iterator[list[tuple[int, int]] | None]:
            if stage == m:
                if need == 0:
                    yield list(acc)
                    return
                chosen_src = [s for s, _ in acc]
                complete = False
                for extra in combinations(pool, need):
                    if bitlin.is_independent(chosen_src + list(extra)):
                        complete = True
                        yield list(acc) + list(zip(extra, completion_targets))
                if not complete:
                    yield None
                return
            for subset in combinations(member_points[inj[stage]], ranks[stage]):
                acc.extend(zip(subset, stage_targets[stage]))
                yield from rec(stage + 1, acc)
                del acc[-ranks[stage]:]

        yield from rec(0, [])

    def attempt(pairs: list[tuple[int, int]], inj: tuple[int, ...]) -> Collineation | None:
        # M = S^-1 T maps each source row onto its target; dependent sources
        # admit no such M, and independent targets make M invertible.
        inv = bitlin.invert([s for s, _ in pairs], p)
        if inv is None:
            return None
        rows = bitlin.matmul(inv, [t for _, t in pairs])
        for i in range(m):
            image = {bitlin.apply_rows(rows, pt) for pt in member_points[inj[i]]}
            if not all(mask in image for mask in stage_targets[i]):
                return None
            if exact_sets[i] is not None and image != exact_sets[i]:
                return None
        return Collineation(p, tuple(rows))

    tried = 0
    for inj in injections(0, set(), []):
        for cand in candidate_assignments(inj):
            if max_candidates is not None and tried >= max_candidates:
                return SearchResult("budget-exhausted", None, None, tried)
            tried += 1
            if cand is None:
                continue
            coll = attempt(cand, inj)
            if coll is not None:
                return SearchResult("found", coll, inj, tried)
    return SearchResult("infeasible", None, None, tried)


@dataclass(frozen=True)
class FeasibilityCount:
    """Tally of feasible candidate relabelings over the full enumeration."""

    feasible: int
    total: int

    @property
    def fraction(self) -> float:
        return self.feasible / self.total if self.total else 0.0


def count_feasible(
    spread: Spread, requirements: Sequence[StageRequirement]
) -> FeasibilityCount:
    """Exhaustively tally feasible candidates for stage requirements.

    Convention: unordered member m-subsets in member order (the i-th smallest
    member index serves the i-th listed stage), crossed with unordered source
    subsets per stage; a candidate is feasible iff its linear system is
    consistent with invertible solution.  With the p targets jointly
    independent that holds iff the p chosen sources are independent, which is
    what the inner loop checks; the equivalence is exercised against the
    paper's linear-system solve in the test suite.
    """
    p = spread.p
    stage_targets, ranks, _ = _validated_requirements(spread, requirements)
    if sum(ranks) != p:
        raise ValueError("feasibility counting needs stage ranks summing to p")
    m = len(requirements)
    if any(mem.dim < max(ranks) for mem in spread.members):
        raise ValueError("every spread member must accommodate every stage")
    member_points = [sorted(mem.point_masks) for mem in spread.members]
    subset_cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def subsets(member: int, k: int) -> list[tuple[int, ...]]:
        key = (member, k)
        if key not in subset_cache:
            subset_cache[key] = list(combinations(member_points[member], k))
        return subset_cache[key]

    feasible = 0
    total = 0
    for combo in combinations(range(len(spread.members)), m):
        per_stage = [subsets(combo[i], ranks[i]) for i in range(m)]
        tail = [1] * (m + 1)
        for i in range(m - 1, -1, -1):
            tail[i] = tail[i + 1] * len(per_stage[i])
        total += tail[0]

        def walk(stage: int, pivots: dict[int, int]) -> int:
            if stage == m:
                return 1
            hits = 0
            for subset in per_stage[stage]:
                extended = dict(pivots)
                ok = True
                for v in subset:
                    red = bitlin.reduce_vector(v, extended)
                    if not red:
                        ok = False
                        break
                    extended[red.bit_length() - 1] = red
                if ok:
                    hits += walk(stage + 1, extended)
            return hits

        feasible += walk(0, {})
    return FeasibilityCount(feasible=feasible, total=total)
