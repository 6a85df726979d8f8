"""Closed-form existence verdicts for disjoint effect-subspace configurations.

``feasibility_report(p, dims)`` answers every question: one dimension is the
one-stage list ``(t,)``, and an oversized stage with companions is the list
``(t1, *companions)``.  All counts are exact integers.  Each number in a
report is labeled with the rule that produced it: the Andre divisibility
condition for full spreads, the Eisfeld-Storme partial-spread guarantee, the
Govaerts deficiency bound (the dimension bound of one member when 2t > p),
the overlap dimension bound for forced intersections, the double-space
section construction for one oversized stage, and a point count for more
stages than that construction has slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

__all__ = [
    "ExistenceReport",
    "full_spread_count",
    "pairwise_min_overlap",
    "partial_spread_guarantee",
    "partial_spread_upper_bound",
    "feasibility_report",
]


@dataclass(frozen=True)
class ExistenceReport:
    """Verdict plus the numbers behind it; rules name the theorem used per number."""

    verdict: str  # exists | exists-with-overlap | unknown-within-bounds
    p: int
    stage_dims: tuple[int, ...]
    t: int | None
    guaranteed_count: int | None
    upper_bound: int | None
    min_overlap_size: int
    k: int | None = None
    r: int | None = None
    deficiency: int | None = None
    rules: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "p": self.p,
            "stage_dims": list(self.stage_dims),
            "t": self.t,
            "guarantee": self.guaranteed_count,
            "upper_bound": self.upper_bound,
            "min_overlap": self.min_overlap_size,
            "k": self.k,
            "r": self.r,
            "deficiency": self.deficiency,
            "rules": list(self.rules),
        }


def _check_dim(p: int, t: int) -> None:
    if not 0 < t < p:
        raise ValueError(f"stage dimension must satisfy 0 < t < p, got t={t}, p={p}")


def full_spread_count(p: int, t: int) -> int:
    """Member count (2^p - 1)/(2^t - 1) of a full spread; requires t | p."""
    _check_dim(p, t)
    if p % t:
        raise ValueError(f"{t} does not divide {p}: no full spread")
    return ((1 << p) - 1) // ((1 << t) - 1)


def pairwise_min_overlap(p: int, t1: int, t2: int) -> int:
    """Smallest possible intersection size of subspaces of dims t1 and t2.

    Zero when t1 + t2 <= p; otherwise the overlap dimension bound forces
    2^(t1+t2-p) - 1 shared effects, which the witness construction attains.
    """
    _check_dim(p, t1)
    _check_dim(p, t2)
    if t1 + t2 <= p:
        return 0
    return (1 << (t1 + t2 - p)) - 1


def _split(p: int, t: int) -> tuple[int, int]:
    _check_dim(p, t)
    k, r = divmod(p, t)
    if r == 0:
        raise ValueError(
            f"{t} divides {p}: use the full spread count {(1 << p) - 1}//{(1 << t) - 1}"
        )
    return k, r


def _nominal(p: int, t: int) -> int:
    k, r = _split(p, t)
    return (1 << r) * ((1 << (k * t)) - 1) // ((1 << t) - 1)


def partial_spread_guarantee(p: int, t: int) -> int:
    """Eisfeld-Storme guarantee: 2^r (2^kt - 1)/(2^t - 1) - 2^r + 1 members."""
    k, r = _split(p, t)
    return _nominal(p, t) - (1 << r) + 1


def partial_spread_upper_bound(p: int, t: int) -> int:
    """Upper bound on the size of any partial (t-1)-spread.

    When 2t > p any two t-dimensional subspaces meet (dimension formula), so
    at most one member is disjoint; otherwise the Govaerts deficiency bound.
    """
    k, r = _split(p, t)
    if 2 * t > p:
        return 1
    if r == 1:
        s_min = 1
    elif t >= 2 * r:
        s_min = (1 << (r - 1)) - 1
    else:
        s_min = (1 << (r - 1)) - (1 << (2 * r - t - 1)) + 1
    return _nominal(p, t) - s_min


def _uniform_report(p: int, t: int, stage_dims: tuple[int, ...]) -> ExistenceReport:
    """Andre or Eisfeld-Storme/Govaerts report for stages that all have dim t."""
    m = len(stage_dims)
    if p % t == 0:
        count = full_spread_count(p, t)
        return ExistenceReport(
            verdict="exists" if m <= count else "exists-with-overlap",
            p=p,
            stage_dims=stage_dims,
            t=t,
            guaranteed_count=count,
            upper_bound=count,
            min_overlap_size=0,
            rules=(f"Andre divisibility: t | p, full spread of {count} members",),
        )
    k, r = divmod(p, t)
    guarantee = partial_spread_guarantee(p, t)
    upper = partial_spread_upper_bound(p, t)
    if m <= guarantee:
        verdict = "exists"
    elif m <= upper:
        verdict = "unknown-within-bounds"
    else:
        verdict = "exists-with-overlap"
    return ExistenceReport(
        verdict=verdict,
        p=p,
        stage_dims=stage_dims,
        t=t,
        guaranteed_count=guarantee,
        upper_bound=upper,
        min_overlap_size=0,
        k=k,
        r=r,
        deficiency=_nominal(p, t) - upper,
        rules=(
            f"Eisfeld-Storme guarantee: {guarantee} disjoint members",
            (
                f"dimension bound: two {t}-dimensional subspaces meet when 2t > p, "
                "at most 1 disjoint member"
                if 2 * t > p
                else f"Govaerts deficiency bound: at most {upper} disjoint members"
            ),
        ),
    )


def feasibility_report(p: int, stage_dims: tuple[int, ...]) -> ExistenceReport:
    """Whether stages of these dimensions fit in PG(p-1, 2) pairwise disjoint.

    The stages keep the order given.  Forced overlaps are named once per
    distinct pair of dimensions; equal dimensions go to the spread counts; one
    stage above p/2 goes to the double-space slots; otherwise the guarantee at
    the largest dimension decides.
    """
    if not stage_dims:
        raise ValueError("at least one stage dimension is needed")
    for t in stage_dims:
        _check_dim(p, t)
    m = len(stage_dims)
    dims = tuple(stage_dims)
    t_max = max(dims)

    pairs = dict.fromkeys(tuple(sorted(ab, reverse=True)) for ab in combinations(dims, 2))
    overlaps = [(a, b, pairwise_min_overlap(p, a, b)) for a, b in pairs]
    worst = max((o for _, _, o in overlaps), default=0)

    if worst > 0:
        rules = tuple(
            f"overlap dimension bound: dims {a},{b} sum past p, "
            f"at least {o} shared effects"
            for a, b, o in overlaps
            if o > 0
        )
        if len(set(dims)) > 1:
            return ExistenceReport(
                verdict="exists-with-overlap",
                p=p,
                stage_dims=dims,
                t=None,
                guaranteed_count=None,
                upper_bound=None,
                min_overlap_size=worst,
                rules=rules,
            )
        # Equal dims overlap only when t > p/2, so t does not divide p.
        report = _uniform_report(p, t_max, dims)
        return replace(
            report,
            verdict="exists-with-overlap",
            min_overlap_size=worst,
            deficiency=None,
            rules=rules + report.rules,
        )

    if len(set(dims)) == 1:
        return _uniform_report(p, t_max, dims)

    if 2 * t_max > p:
        # One stage above p/2 (two would sum past p): the double-space
        # sections give 2^t1 + 1 slots, one of dimension t1 and 2^t1 of
        # dimension p - t1, shrinkable to smaller requests.  The slot count
        # comes from one construction and bounds nothing; only a point count
        # proves that more stages must overlap.
        slots = (1 << t_max) + 1
        rules = (
            "double-space section construction: 2^t1 + 1 slots "
            f"(one of dim {t_max}, {1 << t_max} of dim {p - t_max})",
        )
        points = sum((1 << t) - 1 for t in dims)
        if m <= slots:
            verdict = "exists"
        elif points > (1 << p) - 1:
            verdict = "exists-with-overlap"
            rules += (
                f"point count: the stages hold {points} effects, "
                f"more than the {(1 << p) - 1} of PG({p - 1}, 2)",
            )
        else:
            verdict = "unknown-within-bounds"
        return ExistenceReport(
            verdict=verdict,
            p=p,
            stage_dims=dims,
            t=None,
            guaranteed_count=slots,
            upper_bound=None,
            min_overlap_size=0,
            rules=rules,
        )

    # Unequal dims, none oversized: guarantee at the largest dimension and
    # shrink distinct members for the smaller stages.
    if p % t_max == 0:
        count = full_spread_count(p, t_max)
        rule = f"Andre divisibility at t={t_max}: {count} members, smaller stages shrink members"
    else:
        count = partial_spread_guarantee(p, t_max)
        rule = (
            f"Eisfeld-Storme guarantee at t={t_max}: {count} members, "
            "smaller stages shrink members"
        )
    verdict = "exists" if m <= count else "unknown-within-bounds"
    return ExistenceReport(
        verdict=verdict,
        p=p,
        stage_dims=dims,
        t=None,
        guaranteed_count=count,
        upper_bound=None,
        min_overlap_size=0,
        rules=(rule,),
    )
