"""Relabeling matrices: reference mappings, the linear system, and the search."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcss import bitlin
from rdcss.collineation import (
    Collineation,
    StageRequirement,
    apply_to_spread,
    apply_to_subspace,
    count_feasible,
    find_collineation,
    is_invertible,
)
from rdcss.geometry import Effect, parse_effect, span
from rdcss.spreads import cyclic_spread, mixed_spread, partial_spread, verify_spread

from oracles import (
    apply,
    build_system,
    collineation_from_solution,
    count_feasible_enumerated,
    find_collineation_enumerated,
    greedy_basis,
    rank_of,
    solve_gf2,
)

# Source -> target pairs realized by the reference 6 x 6 relabeling matrix.
M6_PAIRS = [
    ("EF", "ABC"),
    ("AC", "BDE"),
    ("BF", "CEF"),
    ("CDE", "A"),
    ("BCF", "B"),
    ("D", "D"),
]


def _pairs(p, words):
    return [(parse_effect(s, p), parse_effect(t, p)) for s, t in words]


def test_reference_m6_realizes_the_printed_mappings(reference_m6):
    assert is_invertible(reference_m6)
    for src, tgt in _pairs(6, M6_PAIRS):
        assert apply(reference_m6, src) == tgt


def test_reference_m6_is_the_unique_solution(reference_m6):
    # Six independent sources pin all 36 entries, so the solver must
    # reproduce the reference matrix exactly.
    pairs = _pairs(6, M6_PAIRS)
    assert rank_of([s.bits for s, _ in pairs]) == 6
    x = solve_gf2(build_system(pairs, 6))
    assert x is not None
    assert collineation_from_solution(x, 6).rows == reference_m6.rows


def test_build_system_block_structure():
    pairs = _pairs(6, M6_PAIRS)
    # Put the CDE -> A pair first to inspect its equation block.
    pairs = [pairs[3]] + pairs[:3] + pairs[4:]
    system = build_system(pairs, 6)
    assert len(system.q_rows) == 36
    for rho in range(6):
        # CDE selects unknown column rho of matrix rows C, D, E.
        want = sum(1 << (tau * 6 + rho) for tau in (2, 3, 4))
        assert system.q_rows[rho] == want
    # The first block's right-hand side is the coordinate vector of A.
    assert system.delta & 0b111111 == 1


def test_build_system_validation():
    a, b = Effect(1, 2), Effect(2, 2)
    with pytest.raises(ValueError, match="exactly 2"):
        build_system([(a, b)], 2)
    with pytest.raises(ValueError, match="source effects are not independent"):
        build_system([(a, b), (a, a)], 2)
    with pytest.raises(ValueError, match="target effects are not independent"):
        build_system([(a, b), (b, b)], 2)
    with pytest.raises(ValueError, match="does not match"):
        build_system([(Effect(1, 3), Effect(1, 3))] * 2, 2)


@given(st.data())
def test_solver_reproduces_requested_images(data):
    p = data.draw(st.integers(min_value=2, max_value=5))
    bound = st.integers(min_value=1, max_value=(1 << p) - 1)
    srcs = data.draw(st.lists(bound, min_size=p, max_size=p, unique=True))
    tgts = data.draw(st.lists(bound, min_size=p, max_size=p, unique=True))
    if rank_of(srcs) < p or rank_of(tgts) < p:
        return
    pairs = [(Effect(s, p), Effect(t, p)) for s, t in zip(srcs, tgts)]
    x = solve_gf2(build_system(pairs, p))
    assert x is not None
    coll = collineation_from_solution(x, p)
    assert is_invertible(coll)
    for s, t in pairs:
        assert apply(coll, s) == t


def test_collineation_validation_and_identity():
    with pytest.raises(ValueError, match="row count"):
        Collineation(3, (1, 2))
    with pytest.raises(ValueError, match="width"):
        Collineation(2, (1, 4))
    ident = Collineation.identity(4)
    assert ident.entry(2, 2) == 1 and ident.entry(2, 1) == 0
    for m in range(1, 16):
        e = Effect(m, 4)
        assert apply(ident, e) == e


def test_apply_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        apply(Collineation.identity(4), Effect(1, 5))


def test_apply_to_subspace_preserves_structure(reference_m8):
    assert is_invertible(reference_m8)
    sub = span([Effect(1, 8), Effect(2, 8), Effect(4, 8)])
    image = apply_to_subspace(reference_m8, sub)
    assert image.dim == 3
    assert image.point_masks == {
        apply(reference_m8, e).bits for e in sub.points
    }
    # Images stay XOR-closed.
    for a in image.point_masks:
        for b in image.point_masks:
            if a != b:
                assert a ^ b in image.point_masks


def test_apply_to_spread_preserves_partition(reference_m6, table2_spread):
    image = apply_to_spread(reference_m6, table2_spread)
    check = verify_spread(image)
    assert check.ok and check.full_partition


def test_apply_to_spread_rejects_singular_matrix(table2_spread):
    singular = Collineation(6, (1, 1, 4, 8, 16, 32))
    with pytest.raises(ValueError, match="invertible"):
        apply_to_spread(singular, table2_spread)
    with pytest.raises(ValueError, match="width"):
        apply_to_spread(Collineation.identity(4), table2_spread)


@given(st.data())
def test_random_relabelings_preserve_small_spreads(data):
    rows = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=15), min_size=4, max_size=4
        )
    )
    if rank_of(rows) < 4:
        return
    image = apply_to_spread(Collineation(4, tuple(rows)), cyclic_spread(4, 2))
    assert verify_spread(image).full_partition


def test_search_finds_blocked_splitlot_relabeling(
    table2_spread, blocked_splitlot_requirements
):
    result = find_collineation(table2_spread, blocked_splitlot_requirements)
    assert result.status == "found"
    assert result.candidates_tried == 148
    assert result.collineation is not None
    assert len(set(result.stage_members)) == 3
    exact_span = span(
        tuple(blocked_splitlot_requirements[0].required_effects)
    ).point_masks
    images = [
        {
            apply(result.collineation, e).bits
            for e in table2_spread.members[j].points
        }
        for j in result.stage_members
    ]
    assert images[0] == exact_span
    for req, image in zip(blocked_splitlot_requirements[1:], images[1:]):
        assert {e.bits for e in req.required_effects} <= image


@pytest.mark.parametrize(
    "build, stages, tried",
    [
        (lambda: cyclic_spread(6, 3), ["ABC,BDE,CEF", "A,B", "D"], 148),
        (lambda: mixed_spread(7, 4), ["A,B,C,D", "E,F", "G"], 2209),
    ],
)
def test_search_matrix_equals_linear_system_solve(monkeypatch, build, stages, tried):
    # The search computes M = S^-1 T.  Record each candidate's source rows S
    # and solve the paper's p^2-unknown system for the winning pairs.
    spread = build()
    p = spread.p
    reqs = [
        StageRequirement(tuple(parse_effect(w, p) for w in words.split(",")), exact=i == 0)
        for i, words in enumerate(stages)
    ]
    sources = []
    invert = bitlin.invert

    def recording_invert(rows, n):
        sources.append(list(rows))
        return invert(rows, n)

    monkeypatch.setattr(bitlin, "invert", recording_invert)
    result = find_collineation(spread, reqs)
    assert result.status == "found" and result.candidates_tried == tried
    # The stage ranks sum to p, so the targets are the required effects.
    targets = [e for req in reqs for e in req.required_effects]
    pairs = [(Effect(s, p), t) for s, t in zip(sources[-1], targets)]
    chosen = set().union(*(spread.members[j].point_masks for j in result.stage_members))
    assert {s.bits for s, _ in pairs} <= chosen
    x = solve_gf2(build_system(pairs, p))
    assert collineation_from_solution(x, p) == result.collineation


def test_search_is_deterministic(table2_spread, blocked_splitlot_requirements):
    first = find_collineation(table2_spread, blocked_splitlot_requirements)
    second = find_collineation(table2_spread, blocked_splitlot_requirements)
    assert first == second


def test_search_budget_exhaustion(table2_spread, blocked_splitlot_requirements):
    result = find_collineation(
        table2_spread, blocked_splitlot_requirements, max_candidates=10
    )
    assert result.status == "budget-exhausted"
    assert result.candidates_tried == 10
    assert result.collineation is None and result.stage_members is None
    zero = find_collineation(
        table2_spread, blocked_splitlot_requirements, max_candidates=0
    )
    assert zero.status == "budget-exhausted" and zero.candidates_tried == 0
    with pytest.raises(ValueError, match="non-negative, got -1"):
        find_collineation(
            table2_spread, blocked_splitlot_requirements, max_candidates=-1
        )


def test_budget_stops_at_every_count_before_the_winner(
    table2_spread, blocked_splitlot_requirements, within_one_second
):
    def sweep():
        return [
            find_collineation(table2_spread, blocked_splitlot_requirements, k)
            for k in range(300)
        ]

    results = within_one_second(sweep)
    for k, result in enumerate(results):
        if k < 148:
            assert (result.status, result.candidates_tried) == ("budget-exhausted", k)
        else:
            assert (result.status, result.candidates_tried) == ("found", 148)
            assert result == results[148]


def test_dependent_prefixes_are_skipped_whole(within_one_second):
    # The first 1948 five-point subsets of the 6-dimensional member are
    # dependent; each is one candidate, and none has its completions walked.
    reqs = [StageRequirement(tuple(parse_effect(w, 7) for w in "ABCDE"))]
    result = within_one_second(find_collineation, mixed_spread(7, 6), reqs)
    assert result.status == "found"
    assert result.candidates_tried == 1949
    assert result.stage_members == (0,)


SEARCH_SPREADS = [
    cyclic_spread(4, 2),
    cyclic_spread(6, 2),
    cyclic_spread(6, 3),
    partial_spread(5, 2),
    mixed_spread(5, 3),
    mixed_spread(6, 4),
]


def _rank_tuples(p, top):
    """Stage ranks up to the largest member: 1-2 stages, or 3 summing to p."""
    ranks = range(1, top + 1)
    pairs = [(a, b) for a in ranks for b in ranks if a + b <= p]
    triples = [(a, b, p - a - b) for a, b in pairs if 1 <= p - a - b <= top]
    return [(a,) for a in ranks] + pairs + triples


@st.composite
def search_requests(draw):
    spread = draw(st.sampled_from(SEARCH_SPREADS))
    p = spread.p
    ranks = draw(st.sampled_from(_rank_tuples(p, max(m.dim for m in spread.members))))
    order = draw(st.permutations(range(1, 1 << p)))
    targets = iter(greedy_basis(order))
    reqs = [
        StageRequirement(
            tuple(Effect(next(targets), p) for _ in range(rank)), exact=draw(st.booleans())
        )
        for rank in ranks
    ]
    budget = draw(st.none() | st.integers(min_value=0, max_value=200))
    return spread, reqs, budget


@settings(deadline=None)
@given(search_requests())
def test_search_matches_enumerated_reference(request):
    spread, reqs, budget = request
    assert find_collineation(spread, reqs, budget) == find_collineation_enumerated(
        spread, reqs, budget
    )


@given(search_requests())
def test_found_collineation_meets_every_requirement(request):
    spread, reqs, budget = request
    result = find_collineation(spread, reqs, budget)
    if result.status != "found":
        return
    assert is_invertible(result.collineation)
    assert len(set(result.stage_members)) == len(reqs)
    for req, j in zip(reqs, result.stage_members):
        image = apply_to_subspace(result.collineation, spread.members[j]).point_masks
        assert {e.bits for e in req.required_effects} <= image
        if req.exact:
            assert image == span(req.required_effects).point_masks


def test_search_infeasible_when_no_member_fits(table2_spread):
    # Every member has dimension 3, so an exact rank-2 stage has no candidates.
    reqs = [
        StageRequirement(
            (parse_effect("A", 6), parse_effect("B", 6)), exact=True
        )
    ]
    result = find_collineation(table2_spread, reqs)
    assert result.status == "infeasible"
    assert result.candidates_tried == 0


def test_requirement_validation(table2_spread):
    e = lambda w: parse_effect(w, 6)
    with pytest.raises(ValueError, match="at least one stage"):
        find_collineation(table2_spread, [])
    with pytest.raises(ValueError, match="no required effects"):
        find_collineation(table2_spread, [StageRequirement(())])
    with pytest.raises(ValueError, match="do not match"):
        find_collineation(table2_spread, [StageRequirement((Effect(1, 4),))])
    with pytest.raises(ValueError, match="not independent"):
        find_collineation(
            table2_spread,
            [StageRequirement((e("A"), e("B"), e("AB")))],
        )
    with pytest.raises(ValueError, match="below the required rank"):
        find_collineation(
            table2_spread, [StageRequirement((e("A"),), min_dim=0)]
        )
    with pytest.raises(ValueError, match="exact"):
        find_collineation(
            table2_spread, [StageRequirement((e("A"),), min_dim=2, exact=True)]
        )
    with pytest.raises(ValueError, match="demand 7"):
        find_collineation(
            table2_spread,
            [
                StageRequirement(tuple(e(w) for w in "ABCD")),
                StageRequirement((e("E"), e("F"), e("ABC"))),
            ],
        )
    with pytest.raises(ValueError, match="jointly independent"):
        find_collineation(
            table2_spread,
            [
                StageRequirement((e("A"), e("B"))),
                StageRequirement((e("AB"), e("C"))),
            ],
        )


def test_count_feasible_matches_solver_recount():
    spread = cyclic_spread(4, 2)
    reqs = [
        StageRequirement((Effect(1, 4), Effect(2, 4))),
        StageRequirement((Effect(4, 4),)),
        StageRequirement((Effect(8, 4),)),
    ]
    count = count_feasible(spread, reqs)
    member_points = [sorted(m.point_masks) for m in spread.members]
    feasible = total = 0
    targets = [Effect(1, 4), Effect(2, 4), Effect(4, 4), Effect(8, 4)]
    for i, j, k in combinations(range(5), 3):
        for sub1 in combinations(member_points[i], 2):
            for pt2 in member_points[j]:
                for pt3 in member_points[k]:
                    total += 1
                    srcs = [*sub1, pt2, pt3]
                    if rank_of(srcs) < 4:
                        continue
                    pairs = list(zip((Effect(s, 4) for s in srcs), targets))
                    x = solve_gf2(build_system(pairs, 4))
                    assert x is not None
                    if is_invertible(collineation_from_solution(x, 4)):
                        feasible += 1
    assert count.total == total == 270
    assert count.feasible == feasible
    assert 0 < count.feasible < count.total
    assert count.fraction == feasible / total


def test_count_feasible_validation():
    spread = cyclic_spread(4, 2)
    with pytest.raises(ValueError, match="summing to p"):
        count_feasible(spread, [StageRequirement((Effect(1, 4),))])
    mixed = mixed_spread(5, 3)
    reqs = [
        StageRequirement((Effect(1, 5), Effect(2, 5), Effect(4, 5))),
        StageRequirement((Effect(8, 5), Effect(16, 5))),
    ]
    with pytest.raises(ValueError, match="accommodate"):
        count_feasible(mixed, reqs)


def _compositions(p, top):
    """Ordered rank splits of p into parts of at most top."""
    if p == 0:
        return [()]
    return [(a, *rest) for a in range(1, min(p, top) + 1) for rest in _compositions(p - a, top)]


def _tally_size(spread, ranks):
    points = [len(m) for m in spread.members]
    return sum(
        math.prod(math.comb(points[j], r) for j, r in zip(combo, ranks))
        for combo in combinations(range(len(points)), len(ranks))
    )


# Every split the enumerated tally walks in well under a second: stage ranks
# summing to p, none above the smallest member.  mixed_spread(5, 3) has one
# 3-dimensional member and eight 2-dimensional ones, so ranks stop at 2.
TALLY_CASES = [
    (spread, ranks)
    for spread in [
        cyclic_spread(4, 2),
        cyclic_spread(6, 2),
        cyclic_spread(6, 3),
        partial_spread(5, 2),
        mixed_spread(5, 3),
    ]
    for ranks in _compositions(spread.p, min(m.dim for m in spread.members))
    if _tally_size(spread, ranks) <= 60000
]


def _requirements(ranks, masks, p):
    it = iter(masks)
    return [StageRequirement(tuple(Effect(next(it), p) for _ in range(r))) for r in ranks]


@settings(deadline=None)
@given(st.data())
def test_count_feasible_matches_enumerated_tally(data):
    spread, ranks = data.draw(st.sampled_from(TALLY_CASES))
    p = spread.p
    masks = greedy_basis(data.draw(st.permutations(range(1, 1 << p))))
    reqs = _requirements(ranks, masks, p)
    assert count_feasible(spread, reqs) == count_feasible_enumerated(spread, reqs)


@pytest.mark.parametrize(
    "p, t, ranks",
    [(6, 2, (2, 2, 1, 1)), (6, 3, (3, 2, 1)), (6, 3, (1, 2, 3))],
)
def test_count_feasible_matches_enumerated_tally_with_rank_one_stages(p, t, ranks):
    # Larger splits than the drawn ones: about 0.5 M candidates each.
    spread = cyclic_spread(p, t)
    reqs = _requirements(ranks, [1 << j for j in range(p)], p)
    assert count_feasible(spread, reqs) == count_feasible_enumerated(spread, reqs)
