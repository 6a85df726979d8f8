"""Acceptance gate: nine desk-checkable criteria, one printed verdict line each.

Every test wraps its checks in the `criterion` context manager, which prints
exactly one `[acceptance] criterion N: PASS/FAIL` line and enforces the
per-criterion wall-clock budget.  Run with `pytest -s tests/test_acceptance.py`
to see the verdict lines as they happen.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from rdcss.collineation import (
    StageRequirement,
    apply_to_spread,
    count_feasible,
    find_collineation,
    is_invertible,
)
from rdcss.existence import (
    feasibility_report,
    pairwise_min_overlap,
    partial_spread_guarantee,
    partial_spread_upper_bound,
)
from rdcss.fractional import (
    FractionSpec,
    build_fraction,
    choose_generators,
    stage_factor_sets,
)
from rdcss.geometry import Effect, intersect, mask_word, parse_effect, span
from rdcss.randomization import (
    Design,
    VarianceSpec,
    check_lemma1,
    effect_variance,
    simulate,
)
from rdcss.spreads import cyclic_spread, mixed_spread

from oracles import all_subspaces_brute, apply, check_gls_equals_ols
from test_collineation import M6_PAIRS
from test_spreads import TABLE_P6_T3


@contextmanager
def criterion(number: int, limit_seconds: float, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException as exc:
        print(f"[acceptance] criterion {number}: FAIL - {description} ({exc!r})")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_seconds:
        print(
            f"[acceptance] criterion {number}: FAIL - {description} "
            f"(took {elapsed:.1f}s, limit {limit_seconds:.0f}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds:.0f}s budget: "
            f"{elapsed:.1f}s"
        )
    print(
        f"[acceptance] criterion {number}: PASS - {description} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_1_reference_spread_grid():
    with criterion(1, 1.0, "cyclic (6,3) spread matches the reference grid"):
        spread = cyclic_spread(6, 3)
        got = [{mask_word(m) for m in mem.point_masks} for mem in spread.members]
        want = [set(col) for col in zip(*TABLE_P6_T3)]
        assert got == want
        assert got[0] == {"F", "BC", "CDEF", "CDE", "BDE", "BCF", "BDEF"}
        assert Effect(spread.cycle_table[8][-1], 6).word == "AF"


def test_criterion_2_reference_collineation(reference_m6):
    with criterion(
        2, 1.0, "printed 6x6 relabeling realizes its six mappings, invertibly"
    ):
        for src, tgt in M6_PAIRS:
            assert apply(reference_m6, parse_effect(src, 6)).word == tgt
        assert is_invertible(reference_m6)


def test_criterion_3_blocked_splitlot_end_to_end(
    table2_spread, blocked_splitlot_requirements
):
    with criterion(
        3, 60.0, "three-stage search, transform, and verification at p=6"
    ):
        result = find_collineation(table2_spread, blocked_splitlot_requirements)
        assert result.status == "found"
        assert result.candidates_tried == 148
        transformed = apply_to_spread(result.collineation, table2_spread)
        stages = [transformed.members[j] for j in result.stage_members]
        assert len(set(result.stage_members)) == 3
        assert [len(s) for s in stages] == [7, 7, 7]
        for a, b in combinations(stages, 2):
            assert intersect(a, b) is None
        exact = span(blocked_splitlot_requirements[0].required_effects)
        assert stages[0].point_masks == exact.point_masks
        for req, sub in zip(blocked_splitlot_requirements[1:], stages[1:]):
            for e in req.required_effects:
                assert e.bits in sub.point_masks


def test_criterion_4_feasibility_fraction(
    table2_spread, blocked_splitlot_requirements
):
    with criterion(
        4, 600.0, "exhaustive feasibility tally over all 432,180 candidates"
    ):
        tally = count_feasible(table2_spread, blocked_splitlot_requirements)
        assert tally.total == (
            math.comb(9, 3)
            * math.comb(7, 3)
            * math.comb(7, 2)
            * math.comb(7, 1)
        )
        assert tally.total == 432180
        assert tally.feasible == 197568
        assert 0.43 <= tally.fraction <= 0.48


def test_criterion_5_mixed_construction():
    with criterion(
        5, 10.0, "oversized-stage spread hosts the 4+2+1 factor split at p=7"
    ):
        spread = mixed_spread(7, 4)
        reqs = [
            StageRequirement(
                tuple(parse_effect(w, 7) for w in "ABCD"), exact=True
            ),
            StageRequirement(tuple(parse_effect(w, 7) for w in "EF")),
            StageRequirement((parse_effect("G", 7),)),
        ]
        result = find_collineation(spread, reqs)
        assert result.status == "found"
        transformed = apply_to_spread(result.collineation, spread)
        assert len(transformed.members) == 17
        assert sorted(len(m) for m in transformed.members) == [7] * 16 + [15]
        for a, b in combinations(transformed.members, 2):
            assert intersect(a, b) is None
        assert len(set(result.stage_members)) == 3
        s1, s2, s3 = (transformed.members[j] for j in result.stage_members)
        big = span(tuple(parse_effect(w, 7) for w in "ABCD"))
        assert s1.point_masks == big.point_masks
        assert {parse_effect(w, 7).bits for w in "EF"} <= s2.point_masks
        assert parse_effect("G", 7).bits in s3.point_masks


def test_criterion_6_existence_numbers():
    with criterion(6, 1.0, "closed-form existence and overlap numbers"):
        assert pairwise_min_overlap(5, 3, 3) == 1
        assert partial_spread_upper_bound(5, 3) == 1
        assert partial_spread_guarantee(8, 3) == 33
        assert partial_spread_upper_bound(8, 3) == 34
        assert partial_spread_guarantee(5, 2) == 9
        assert feasibility_report(7, (4, 3, 3)).guaranteed_count == 17


def test_criterion_7_brute_force_geometry():
    with criterion(
        7, 120.0, "line-partition check and minimum-overlap sweep at small p"
    ):
        lines = all_subspaces_brute(4, 2)
        members = [m.point_masks for m in cyclic_spread(4, 2).members]
        assert len(members) == 5
        for pts in members:
            assert pts in lines
        assert set().union(*members) == set(range(1, 16))
        for a, b in combinations(members, 2):
            assert not (a & b)

        for p in range(2, 6):
            families = {
                t: list(all_subspaces_brute(p, t))
                for t in range(1, p)
            }
            for t1 in range(1, p):
                for t2 in range(t1, p):
                    bound = pairwise_min_overlap(p, t1, t2)
                    best = min(
                        len(x & y)
                        for x in families[t1]
                        for y in families[t2]
                    )
                    assert best == bound


def test_criterion_8_statistical_layer(splitplot_design):
    with criterion(
        8,
        30.0,
        "split-plot variances, zero covariances, incidence identity, GLS=OLS",
    ):
        spec = VarianceSpec(sigma2=1.0, stage_variances=(4.0,))
        reps = 10_000
        est = simulate(splitplot_design, spec, reps=reps, seed=2026)
        assert est.shape == (reps, 32)
        theo = np.array(
            [
                effect_variance(Effect(bits, 5), splitplot_design, spec)
                for bits in range(1, 32)
            ]
        )
        a = parse_effect("A", 5).bits - 1
        cde = parse_effect("CDE", 5).bits - 1
        assert theo[a] == pytest.approx(1.03125)
        assert theo[cde] == pytest.approx(0.03125)
        emp = est[:, 1:].var(axis=0, ddof=1)
        se = theo * math.sqrt(2.0 / (reps - 1))
        assert abs(emp[a] - 1.03125) < 5 * se[a]
        assert abs(emp[cde] - 0.03125) < 5 * se[cde]
        cov = np.cov(est[:, 1:], rowvar=False, ddof=1)
        for i in range(31):
            for j in range(i + 1, 31):
                assert abs(cov[i, j]) < 5 * math.sqrt(theo[i] * theo[j] / reps)
        assert check_lemma1(splitplot_design)
        assert check_gls_equals_ols(splitplot_design, spec, tol=1e-9)


def test_criterion_9_fraction_scenario():
    with criterion(
        9, 5.0, "eight factors in four stages over a 64-run fraction"
    ):
        spread = cyclic_spread(6, 2)
        reqs = [
            StageRequirement(tuple(parse_effect(w, 6) for w in pair))
            for pair in ("AB", "CD", "EF")
        ]
        result = find_collineation(spread, reqs)
        assert result.status == "found"
        transformed = apply_to_spread(result.collineation, spread)
        used = set(result.stage_members)
        spare = next(
            j
            for j, mem in enumerate(transformed.members)
            if j not in used
            and sum(1 for b in mem.point_masks if b.bit_count() >= 2) >= 2
        )
        base = Design(
            p=6,
            stages=tuple(
                transformed.members[j] for j in (*result.stage_members, spare)
            ),
        )
        gens = choose_generators(base, 8, (3, 3))
        fraction = build_fraction(
            base, FractionSpec(factors=8, basic=6, generators=gens)
        )
        assert fraction.runs == 64
        assert len(set(fraction.run_masks)) == 64
        assert stage_factor_sets(fraction) == (
            ("A", "B"),
            ("C", "D"),
            ("E", "F"),
            ("G", "H"),
        )
        words = fraction.subgroup.words
        assert len(words) == 3
        for w1, w2 in combinations(words, 2):
            assert w1 ^ w2 in words
        for run in fraction.run_masks:
            for w in words:
                assert (run & w).bit_count() % 2 == 0
