"""Closed-form existence numbers, checked against constructions where possible."""

from itertools import combinations_with_replacement

import pytest

from rdcss.construction import choose_spread
from rdcss.collineation import StageRequirement, find_collineation
from rdcss.existence import (
    feasibility_report,
    full_spread_count,
    pairwise_min_overlap,
    partial_spread_guarantee,
    partial_spread_upper_bound,
)
from rdcss.geometry import Effect, intersect
from rdcss.spreads import mixed_spread, partial_spread

from oracles import disjoint_subspaces_fit, full_spread_exists, overlap_witness


@pytest.mark.parametrize(
    "p, t, exists",
    [(6, 3, True), (6, 2, True), (5, 2, False), (8, 3, False), (9, 3, True)],
)
def test_full_spread_divisibility(p, t, exists):
    assert full_spread_exists(p, t) == exists


def test_full_spread_count_values():
    assert full_spread_count(6, 3) == 9
    assert full_spread_count(6, 2) == 21
    assert full_spread_count(4, 2) == 5
    assert full_spread_count(8, 4) == 17
    with pytest.raises(ValueError, match="does not divide"):
        full_spread_count(5, 2)
    with pytest.raises(ValueError, match="0 < t < p"):
        full_spread_count(4, 4)


@pytest.mark.parametrize(
    "p, t, guarantee",
    [(8, 3, 33), (5, 2, 9), (5, 3, 1), (7, 3, 17), (7, 2, 41)],
)
def test_partial_spread_guarantee_values(p, t, guarantee):
    assert partial_spread_guarantee(p, t) == guarantee


@pytest.mark.parametrize(
    "p, t, bound", [(8, 3, 34), (5, 3, 1), (5, 2, 9), (7, 3, 17)]
)
def test_partial_spread_upper_bound_values(p, t, bound):
    assert partial_spread_upper_bound(p, t) == bound


def test_upper_bound_is_one_when_two_members_must_meet():
    # 2t > p: any two t-dimensional subspaces share a point.
    assert partial_spread_upper_bound(7, 4) == 1
    report = feasibility_report(7, (4,))
    assert report.verdict == "exists"
    assert report.guaranteed_count == report.upper_bound == 1
    assert report.deficiency == 7
    assert report.rules[-1].startswith("dimension bound:")
    assert not any("Govaerts" in rule for rule in report.rules)


def test_guarantee_matches_constructed_partial_spreads():
    for p, t in [(5, 2), (5, 3), (7, 3), (8, 3)]:
        assert len(partial_spread(p, t).members) == partial_spread_guarantee(p, t)


def test_guarantee_never_beats_the_bound():
    for p in range(3, 21):
        for t in range(2, p):
            if p % t:
                g = partial_spread_guarantee(p, t)
                u = partial_spread_upper_bound(p, t)
                assert 0 < g <= u


def test_partial_helpers_reject_divisible_case():
    with pytest.raises(ValueError, match="divides"):
        partial_spread_guarantee(6, 3)
    with pytest.raises(ValueError, match="divides"):
        partial_spread_upper_bound(6, 2)
    with pytest.raises(ValueError, match="0 < t < p"):
        partial_spread_guarantee(5, 7)


@pytest.mark.parametrize(
    "p, t1, t2, overlap",
    [
        (6, 3, 3, 0),
        (5, 3, 3, 1),
        (5, 3, 2, 0),
        (7, 4, 4, 1),
        (7, 4, 5, 3),
        (6, 5, 5, 15),
    ],
)
def test_pairwise_min_overlap_values(p, t1, t2, overlap):
    assert pairwise_min_overlap(p, t1, t2) == overlap
    assert pairwise_min_overlap(p, t2, t1) == overlap


@pytest.mark.parametrize("p, t1, t2", [(5, 3, 3), (7, 4, 5), (6, 3, 3), (6, 4, 3)])
def test_overlap_witness_attains_the_minimum(p, t1, t2):
    s1, s2 = overlap_witness(p, t1, t2)
    assert s1.dim == t1 and s2.dim == t2
    shared = intersect(s1, s2)
    want = pairwise_min_overlap(p, t1, t2)
    assert (0 if shared is None else len(shared)) == want


def test_spread_report_full_case():
    report = feasibility_report(6, (3,))
    assert report.verdict == "exists"
    assert report.guaranteed_count == report.upper_bound == 9
    assert report.min_overlap_size == 0
    assert any("Andre" in rule for rule in report.rules)


def test_spread_report_partial_case():
    report = feasibility_report(8, (3,))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 33
    assert report.upper_bound == 34
    assert report.k == 2 and report.r == 2
    assert report.deficiency == 2
    assert any("Eisfeld-Storme" in rule for rule in report.rules)
    assert any("Govaerts" in rule for rule in report.rules)


def test_mixed_existence_slot_count():
    report = feasibility_report(7, (4, 3, 3))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 17
    assert "2^t1 + 1" in report.rules[0] or "17 slots" in report.rules[0]
    # The construction realizes the slots: one big member plus 16 small ones.
    assert len(mixed_spread(7, 4).members) == 17


def test_mixed_existence_oversized_companion_reports_overlap():
    report = feasibility_report(7, (4, 4))
    assert report.verdict == "exists-with-overlap"
    assert report.min_overlap_size == 1
    assert "overlap dimension bound" in report.rules[0]


def test_mixed_existence_boundary_half_p():
    report = feasibility_report(6, (3, 3, 3))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 9


def test_mixed_existence_small_t1_delegates():
    report = feasibility_report(9, (3, 3, 3))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 73  # (2^9 - 1) / 7


def test_mixed_existence_beyond_slots_needs_a_point_count():
    # 17 + 1 stages exceed the 17 slots, yet 48 points lie outside the 4-dim
    # stage: the slot count bounds nothing, so the question stays open.
    open_case = feasibility_report(6, (4,) + (1,) * 17)
    assert open_case.verdict == "unknown-within-bounds"
    assert open_case.guaranteed_count == 17
    assert not any("point count" in rule for rule in open_case.rules)
    # (5; 3, 2 x 9) needs 7 + 9 * 3 = 34 points, more than the 31 there are.
    overflow = feasibility_report(5, (3,) + (2,) * 9)
    assert overflow.verdict == "exists-with-overlap"
    assert "point count: the stages hold 34 effects, more than the 31" in overflow.rules[-1]


def test_mixed_existence_too_many_stages_overflows_slots():
    report = feasibility_report(5, (3,) + (2,) * 9)
    assert report.guaranteed_count == 9
    assert report.verdict == "exists-with-overlap"  # 10 stages, 9 slots


def test_feasibility_equal_dims_full():
    report = feasibility_report(6, (3, 3, 3))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 9


def test_feasibility_equal_dims_partial_bands():
    assert feasibility_report(8, tuple([3] * 33)).verdict == "exists"
    within = feasibility_report(8, tuple([3] * 34))
    assert within.verdict == "unknown-within-bounds"
    assert within.guaranteed_count == 33 and within.upper_bound == 34
    beyond = feasibility_report(8, tuple([3] * 35))
    assert beyond.verdict == "exists-with-overlap"


def test_feasibility_forced_overlap():
    report = feasibility_report(5, (3, 3))
    assert report.verdict == "exists-with-overlap"
    assert report.min_overlap_size == 1
    assert report.guaranteed_count == 1 and report.upper_bound == 1
    assert any("overlap dimension bound" in r for r in report.rules)
    # Three stages form three pairs of one dimension pair: one rule names it.
    triple = feasibility_report(5, (3, 3, 3))
    assert triple.min_overlap_size == 1
    assert sum("overlap dimension bound" in r for r in triple.rules) == 1


def test_feasibility_routes_oversized_stage_to_mixed():
    report = feasibility_report(7, (4, 3, 3))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 17
    assert report.stage_dims == (4, 3, 3)


def test_feasibility_unequal_dims_guarantee_at_largest():
    report = feasibility_report(7, (3, 2, 2))
    assert report.verdict == "exists"
    assert report.guaranteed_count == 17
    assert "smaller stages shrink members" in report.rules[0]


def test_feasibility_validation():
    with pytest.raises(ValueError, match="at least one stage"):
        feasibility_report(6, ())
    with pytest.raises(ValueError, match="0 < t < p"):
        feasibility_report(6, (6,))
    with pytest.raises(ValueError, match="0 < t < p"):
        feasibility_report(6, (0,))


def test_report_to_json_round_trip():
    report = feasibility_report(8, (3,))
    data = report.to_json()
    assert data["verdict"] == "exists"
    assert data["stage_dims"] == [3]
    assert data["guarantee"] == 33
    assert data["upper_bound"] == 34
    assert data["min_overlap"] == 0
    assert data["k"] == 2 and data["r"] == 2 and data["deficiency"] == 2
    assert isinstance(data["rules"], list) and len(data["rules"]) == 2
    mixed = feasibility_report(7, (4, 4)).to_json()
    assert mixed["stage_dims"] == [4, 4]
    assert mixed["verdict"] == "exists-with-overlap"


def _refused_layouts():
    """Layouts of 2-3 single-letter stages that the existence rules refuse.

    p in 3..7, t None (stage ranks as dimensions) or 1..p-1, and stage ranks
    in non-increasing order summing to at most p.
    """
    for p in range(3, 8):
        for t in (None, *range(1, p)):
            for m in (2, 3):
                for ranks in combinations_with_replacement(range(p, 0, -1), m):
                    if sum(ranks) > p:
                        continue
                    dims = [t or r for r in ranks]
                    if feasibility_report(p, tuple(dims)).verdict == "exists-with-overlap":
                        yield p, t, ranks, dims


def test_existence_refusals_are_never_found_by_the_search():
    # An exit-3 refusal has no override, so each one must be a proof: the
    # search on the spread that construct would build never finds a design.
    layouts = list(_refused_layouts())
    assert len(layouts) == 130
    for p, t, ranks, dims in layouts:
        letters = iter(range(p))
        requirements = [
            StageRequirement(tuple(Effect(1 << next(letters), p) for _ in range(r)))
            for r in ranks
        ]
        result = find_collineation(choose_spread(p, t, dims, None), requirements)
        assert result.status != "found", (p, t, ranks)


def test_decided_verdicts_match_a_disjoint_search():
    # Every verdict that claims to decide the question is checked against an
    # exhaustive search: p <= 4, one to six stages, dims in non-increasing order.
    decided = 0
    for p in range(2, 5):
        for m in range(1, 7):
            for dims in combinations_with_replacement(range(p - 1, 0, -1), m):
                verdict = feasibility_report(p, dims).verdict
                if verdict == "unknown-within-bounds":
                    continue
                decided += 1
                assert (verdict == "exists") == disjoint_subspaces_fit(p, dims), (p, dims)
    assert decided == 111
