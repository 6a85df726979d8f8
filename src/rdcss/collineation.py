"""Collineations of PG(p-1, 2) and the requirement-driven relabeling search.

A collineation is an invertible p x p bit matrix M acting on effects by
z -> z'M (row-vector convention: XOR the rows of M selected by z's set bits).
Collineations preserve XOR, so they carry spreads to spreads; the search below
looks for one that moves chosen spread members onto experimenter-required
effect sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import bitlin
from .geometry import Effect, Subspace
from .spreads import Spread

__all__ = [
    "Collineation",
    "StageRequirement",
    "SearchResult",
    "FeasibilityCount",
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


def is_invertible(m: Collineation) -> bool:
    """True iff the matrix has full GF(2) rank."""
    return bitlin.rank(m.rows) == m.p


def apply_to_subspace(m: Collineation, s: Subspace) -> Subspace:
    """Image subspace; a collineation maps a basis to a basis of the image."""
    rows = list(m.rows)
    return Subspace(p=m.p, basis=tuple(bitlin.apply_rows(rows, b) for b in s.basis))


def apply_to_spread(m: Collineation, spread: Spread) -> Spread:
    """Image spread: members map basis by basis; disjointness and sizes survive.

    The image carries no cycle_table: the field-power layout is printed only
    for the construction itself, never for a relabeled copy.
    """
    if spread.p != m.p:
        raise ValueError("spread width does not match collineation size")
    if not is_invertible(m):
        raise ValueError("collineation must be invertible")
    members = tuple(apply_to_subspace(m, member) for member in spread.members)
    return Spread(p=spread.p, members=members, kind=spread.kind)


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


def _extend(pivots: dict[int, int], vectors: Iterable[int]) -> dict[int, int] | None:
    """Pivot rows extended by vectors, or None if a vector falls in their span."""
    extended = dict(pivots)
    for v in vectors:
        red = bitlin.reduce_vector(v, extended)
        if not red:
            return None
        extended[red.bit_length() - 1] = red
    return extended


def _meet_dim(pivots: dict[int, int], basis: Sequence[int]) -> int:
    """dim(M meet W) for M spanned by basis and W by the pivots.

    That is d + dim W - rank(W, M).  The rank comes from reducing M's basis
    onto a copy of W's pivots, which are not eliminated again: each basis
    vector that falls to zero adds one to the meet.
    """
    extended = dict(pivots)
    meet = 0
    for v in basis:
        red = bitlin.reduce_vector(v, extended)
        if red:
            extended[red.bit_length() - 1] = red
        else:
            meet += 1
    return meet


def _independent_subsets(d: int, k: int, r: int) -> int:
    """r-subsets of a d-space's points independent modulo a k-dimensional subspace.

    The j-th point avoids a (k + j)-dimensional subspace, so there are
    prod_j (2^d - 2^(k+j)) / r! of them: none when k > d - r.  With k = 0 and
    d = r this is the number of unordered bases of an r-dimensional space.
    """
    return math.prod((1 << d) - (1 << (k + j)) for j in range(r)) // math.factorial(r)


def find_collineation(
    spread: Spread,
    requirements: Sequence[StageRequirement],
    max_candidates: int | None = None,
) -> SearchResult:
    """Search for a collineation meeting every stage requirement.

    Deterministic enumeration: stage-to-member injections in member-index
    order, then per-stage source subsets in combination order over each
    member's sorted points, each subset paired sorted-source to listed-target.
    Every such leaf is one candidate.  The targets are jointly independent, so
    a leaf is feasible exactly when its sources are: M = S^-1 T then maps each
    chosen member onto a subspace holding its targets, of the same dimension.
    The sources are eliminated stage by stage; a prefix that turns dependent
    is skipped whole, and its candidates are counted as the product of the
    later stages' subset counts.  So is a last-stage block whose member M
    meets the pivots' span W in more than dim M - r dimensions (one rank):
    none of its r-subsets is independent modulo W.  When the stage ranks do
    not sum to p, a leaf is completed with the first independent choice, in
    lexicographic order, of points from unassigned members, mapped onto the
    lexicographic target-basis completion; a leaf without one is a failed
    candidate.  The first leaf with a completion wins, and every candidate up
    to it counts against max_candidates.
    """
    if max_candidates is not None and max_candidates < 0:
        raise ValueError(f"search budget must be non-negative, got {max_candidates}")
    p = spread.p
    stage_targets, ranks, min_dims = _validated_requirements(spread, requirements)
    m = len(requirements)
    need = p - sum(ranks)
    targets = bitlin.complete_basis([mask for ms in stage_targets for mask in ms], p)
    limit = math.inf if max_candidates is None else max_candidates

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

    def leaves(
        inj: tuple[int, ...], tail: list[int], stage: int, first: int,
        pivots: dict[int, int], sources: tuple[int, ...],
    ) -> Iterator[tuple[int, dict[int, int], tuple[int, ...]]]:
        # (index, pivots, sources) of each independent leaf below a prefix
        # whose first candidate has index `first`; ends at the first subtree
        # that starts beyond the budget.
        if stage == m:
            yield first, pivots, sources
            return
        member = spread.members[inj[stage]]
        if stage == m - 1 and _meet_dim(pivots, member.basis) > member.dim - ranks[stage]:
            return  # no subset of this block is independent of the pivots
        subsets = combinations(member_points[inj[stage]], ranks[stage])
        for k, subset in enumerate(subsets):
            start = first + k * tail[stage + 1]
            if start >= limit:
                return
            extended = _extend(pivots, subset)
            if extended is not None:
                yield from leaves(inj, tail, stage + 1, start, extended, sources + subset)

    tried = 0
    for inj in injections(0, set(), []):
        tail = [1] * (m + 1)
        for i in range(m - 1, -1, -1):
            tail[i] = tail[i + 1] * math.comb(len(member_points[inj[i]]), ranks[i])
        pool = sorted(
            pt
            for j in range(len(spread.members))
            if j not in inj
            for pt in member_points[j]
        )
        for index, pivots, sources in leaves(inj, tail, 0, tried, {}, ()):
            for extra in combinations(pool, need):
                if _extend(pivots, extra) is not None:
                    rows = bitlin.matmul(bitlin.invert([*sources, *extra], p), targets)
                    return SearchResult("found", Collineation(p, tuple(rows)), inj, index + 1)
        tried += tail[0]
        if tried > limit:
            return SearchResult("budget-exhausted", None, None, max_candidates)
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
    """Exactly tally feasible candidates for stage requirements.

    Convention: unordered member m-subsets in member order (the i-th smallest
    member index serves the i-th listed stage), crossed with unordered source
    subsets per stage; a candidate is feasible iff its linear system is
    consistent with invertible solution.  With the p targets jointly
    independent that holds iff the p chosen sources are independent, which
    depends only on the span U of each stage's sources.  So every stage but
    the last walks the distinct r-dimensional subspaces of its member once,
    extending the pivots by U's echelon basis and weighting U by its
    prod_i (2^r - 2^i) / r! unordered bases.  The last stage is closed in one
    rank: with W the pivots' span, d = dim M and k = dim(M meet W), there are
    prod_i (2^d - 2^(k+i)) / r! r-subsets of M independent modulo W.  The
    total is the sum over member subsets of the products of math.comb counts.
    The test suite holds both numbers equal to the subset-by-subset walk, and
    that walk to the paper's linear-system solve.
    """
    p = spread.p
    stage_targets, ranks, _ = _validated_requirements(spread, requirements)
    if sum(ranks) != p:
        raise ValueError("feasibility counting needs stage ranks summing to p")
    m = len(requirements)
    if any(mem.dim < max(ranks) for mem in spread.members):
        raise ValueError("every spread member must accommodate every stage")
    members = spread.members
    n = len(members)
    total = sum(
        math.prod(math.comb(len(members[j]), r) for j, r in zip(combo, ranks))
        for combo in combinations(range(n), m)
    )
    spans: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def subspaces(j: int, r: int) -> list[tuple[int, ...]]:
        # Echelon bases of the r-dimensional subspaces of member j.
        if (j, r) not in spans:
            subsets = combinations(members[j].point_masks, r)
            bases = {tuple(bitlin.echelon(subset)) for subset in subsets}
            spans[j, r] = [basis for basis in bases if len(basis) == r]
        return spans[j, r]

    def walk(stage: int, start: int, pivots: dict[int, int]) -> int:
        r = ranks[stage]
        if stage == m - 1:
            return sum(
                _independent_subsets(members[j].dim, _meet_dim(pivots, members[j].basis), r)
                for j in range(start, n)
            )
        hits = 0
        for j in range(start, n - (m - 1 - stage)):
            for basis in subspaces(j, r):
                extended = _extend(pivots, basis)
                if extended is not None:
                    hits += walk(stage + 1, j + 1, extended)
        return _independent_subsets(r, 0, r) * hits

    return FeasibilityCount(feasible=walk(0, 0, {}), total=total)
