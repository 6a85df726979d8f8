"""Batching, estimator variances, and the simulation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rdcss import bitlin
from rdcss.geometry import Effect, Subspace, mask_word, parse_effect, span
from rdcss.randomization import (
    Design,
    VarianceSpec,
    _walsh_hadamard,
    batch_indices,
    check_lemma1,
    check_orthogonal,
    effect_variance,
    halfnormal_emit,
    simulate,
    variance_groups,
)

from oracles import (
    check_gls_equals_ols,
    contains,
    incidence_matrix,
    halfnormal_rows,
    lemma1_holds,
    model_matrix,
    simulate_dense,
    variance_groups_loop,
)


def _e(word, p=5):
    return parse_effect(word, p)


def test_design_validation():
    with pytest.raises(ValueError, match="lives in p=4"):
        Design(p=5, stages=(span([Effect(1, 4)]),))
    whole = span([Effect(1 << j, 4) for j in range(4)])
    with pytest.raises(ValueError, match="0 < t < p"):
        Design(p=4, stages=(whole,))


def test_run_matrix_encodes_bits(splitplot_design):
    rm = splitplot_design.run_matrix
    assert rm.shape == (32, 5)
    assert rm[0].tolist() == [0, 0, 0, 0, 0]
    assert rm[1].tolist() == [1, 0, 0, 0, 0]  # run 1 sets factor A
    assert rm[0b10110].tolist() == [0, 1, 1, 0, 1]


def test_model_matrix_sign_oracle(splitplot_design):
    x = model_matrix(splitplot_design)
    n = splitplot_design.n
    assert x.shape == (n, n)
    assert np.all(x[:, 0] == 1)
    for r in range(0, n, 7):
        for c in range(0, n, 5):
            assert x[r, c] == (-1) ** int(bin(r & c).count("1"))


@pytest.mark.parametrize("p", range(2, 13))
def test_model_matrix_columns_orthogonal(p):
    t = max(1, p - 1)
    design = Design(p=p, stages=(span([Effect(1 << j, p) for j in range(t)]),))
    assert check_orthogonal(design)
    if p <= 8:
        x = model_matrix(design).astype(np.int64)
        assert np.array_equal(x.T @ x, design.n * np.eye(design.n, dtype=np.int64))


def _first_factors_design(p):
    t = max(1, p // 2)
    return Design(p=p, stages=(span([Effect(1 << j, p) for j in range(t)]),))


@pytest.mark.parametrize("p", range(2, 9))
def test_walsh_hadamard_matches_dense_product(p):
    rng = np.random.default_rng(p)
    x = model_matrix(_first_factors_design(p)).astype(np.int64)
    ints = rng.integers(-1000, 1000, size=(3, 1 << p))
    got = _walsh_hadamard(ints)
    assert got.dtype == np.int64
    assert np.array_equal(got, ints @ x)
    floats = rng.normal(size=1 << p)
    assert np.max(np.abs(_walsh_hadamard(floats) - x.T @ floats)) < 1e-12


def test_walsh_hadamard_leaves_its_input():
    v = np.arange(8)
    assert _walsh_hadamard(v).tolist() == [28, -4, -8, 0, -16, 0, 0, 0]
    assert v.tolist() == list(range(8))


def test_batch_indices_big_endian(splitplot_design):
    # Stage basis (A, B): label l = 2 theta_A + theta_B with theta the GF(2)
    # inner product of the run and the basis word.
    idx = batch_indices(splitplot_design, 0)
    runs = np.arange(32)
    theta_a = (runs & 1) & 1
    theta_b = (runs >> 1) & 1
    assert np.array_equal(idx, 2 * theta_a + theta_b)
    assert sorted(np.bincount(idx).tolist()) == [8, 8, 8, 8]


def test_batch_indices_constant_on_defining_contrasts(two_stage_design):
    # Runs in one batch share the parity of every effect in the stage subspace.
    for stage, sub in enumerate(two_stage_design.stages):
        idx = batch_indices(two_stage_design, stage)
        runs = np.arange(two_stage_design.n)
        for mask in sub.point_masks:
            parity = np.bitwise_count(runs & mask) & 1
            for b in range(1 << sub.dim):
                assert len(set(parity[idx == b].tolist())) == 1


def test_incidence_and_lemma1(two_stage_design):
    inc = incidence_matrix(two_stage_design, 1)
    assert inc.shape == (32, 8)
    assert np.all(inc.sum(axis=1) == 1)
    assert np.array_equal(inc.argmax(axis=1), batch_indices(two_stage_design, 1))
    assert check_lemma1(two_stage_design)


@pytest.mark.parametrize(
    "basis, holds",
    [((0b011, 0b101), True), ((0b1100, 0b0001), True), ((0b011, 0b011), False)],
)
def test_check_lemma1_agrees_with_incidence_oracle(basis, holds):
    # A repeated basis mask (built past span's check) leaves batches empty.
    p = 4
    design = Design(p=p, stages=(Subspace(p=p, basis=basis), span([Effect(8, p)])))
    assert check_lemma1(design) is holds
    assert lemma1_holds(design) is holds


def test_variance_spec_validation(splitplot_design):
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceSpec(-1.0, (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceSpec(1.0, (-2.0,))
    with pytest.raises(ValueError, match="stage variances"):
        effect_variance(
            _e("A"), splitplot_design, VarianceSpec(1.0, (1.0, 1.0))
        )


def test_effect_variance_splitplot_reference(splitplot_design):
    # One stage <A, B> in 2^5 with sigma2 = 1, batch variance 4: effects in
    # the stage see 1/32 + (8/32) * 4, everything else only 1/32.
    spec = VarianceSpec(1.0, (4.0,))
    assert effect_variance(_e("A"), splitplot_design, spec) == pytest.approx(
        1.03125
    )
    assert effect_variance(_e("B"), splitplot_design, spec) == pytest.approx(
        1.03125
    )
    assert effect_variance(_e("AB"), splitplot_design, spec) == pytest.approx(
        1.03125
    )
    assert effect_variance(_e("CDE"), splitplot_design, spec) == pytest.approx(
        0.03125
    )
    assert effect_variance(_e("ABCDE"), splitplot_design, spec) == pytest.approx(
        0.03125
    )


def test_variance_groups_two_stage_partition(two_stage_design):
    report = variance_groups(two_stage_design, VarianceSpec(1.0, (2.0, 3.0)))
    by_label = {g.label: g for g in report.groups}
    assert set(by_label) == {"rest", "s1", "s2"}
    assert len(by_label["s1"].masks) == 3
    assert len(by_label["s2"].masks) == 7
    assert len(by_label["rest"].masks) == 21
    assert all(list(g.masks) == sorted(g.masks) for g in report.groups)
    # Partition of all 31 effects.
    seen = [m for g in report.groups for m in g.masks]
    assert sorted(seen) == list(range(1, 32))
    # Stage groups lead in index order; the unbatched rest group closes.
    assert [g.label for g in report.groups] == ["s1", "s2", "rest"]
    assert by_label["s1"].variance == pytest.approx(1 / 32 + (8 / 32) * 2.0)
    assert by_label["s2"].variance == pytest.approx(1 / 32 + (4 / 32) * 3.0)
    assert by_label["rest"].variance == pytest.approx(1 / 32)
    assert by_label["s1"].flags == (
        "small group: fewer than 7 effects for a half-normal plot",
    )
    assert by_label["s2"].flags == ()
    assert report.notes == ()


def test_variance_groups_overlap_flag_and_notes():
    stage = span([_e("A"), _e("B")])
    design = Design(p=5, stages=(stage, stage))
    report = variance_groups(design, VarianceSpec(1.0, (2.0, 3.0)))
    both = [g for g in report.groups if g.stage_indices == (0, 1)]
    assert len(both) == 1
    assert any("overlap" in f for f in both[0].flags)
    assert both[0].variance == pytest.approx(1 / 32 + (8 / 32) * (2.0 + 3.0))
    assert report.notes == (
        "stages 1 and 2 use the same subspace; their variance components add",
    )


def test_variance_groups_without_spec(two_stage_design):
    report = variance_groups(two_stage_design)
    assert all(g.variance is None for g in report.groups)


def test_group_variance_is_each_effect_variance(two_stage_design):
    spec = VarianceSpec(1.0, (2.0, 3.0))
    report = variance_groups(two_stage_design, spec)
    assert sum(len(g.masks) for g in report.groups) == 31
    for group in report.groups:
        for m in group.masks:
            effect = Effect(m, two_stage_design.p)
            assert effect_variance(effect, two_stage_design, spec) == group.variance
            for i, sub in enumerate(two_stage_design.stages):
                assert contains(sub, effect) is (i in group.stage_indices)


def test_simulate_is_deterministic(splitplot_design):
    spec = VarianceSpec(1.0, (4.0,))
    a = simulate(splitplot_design, spec, reps=3, seed=7)
    b = simulate(splitplot_design, spec, reps=3, seed=7)
    assert np.array_equal(a, b)
    c = simulate(splitplot_design, spec, reps=3, seed=8)
    assert not np.array_equal(a, c)
    # Per-rep substreams: the first two reps of a longer run match.
    d = simulate(splitplot_design, spec, reps=5, seed=7)
    assert np.array_equal(d[:3], a)


def test_simulate_matches_theoretical_variances(splitplot_design):
    spec = VarianceSpec(1.0, (4.0,))
    reps = 4000
    draws = simulate(splitplot_design, spec, reps=reps, seed=11)
    assert draws.shape == (reps, 32)
    report = variance_groups(splitplot_design, spec)
    for group in report.groups:
        for m in group.masks:
            want = group.variance
            got = draws[:, m].var(ddof=1)
            # Sample variance of a normal: SE ~ want * sqrt(2 / reps).
            se = want * np.sqrt(2.0 / reps)
            assert abs(got - want) < 5 * se
    # Estimators are unbiased around zero when beta is zero.
    means = draws[:, 1:].mean(axis=0)
    sds = draws[:, 1:].std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(means) < 5 * sds)


def test_simulate_beta_injection(splitplot_design):
    spec = VarianceSpec(0.0, (0.0,))
    beta = np.zeros(32)
    beta[_e("A").bits] = 1.5
    beta[_e("CDE").bits] = -0.75
    draws = simulate(splitplot_design, spec, beta=beta, reps=1, seed=0)
    # Noise-free run returns beta exactly (orthogonality of the contrasts).
    assert np.allclose(draws[0], beta)


@pytest.mark.parametrize("p", [3, 5, 8])
def test_simulate_matches_dense_oracle(p):
    design = _first_factors_design(p)
    spec = VarianceSpec(0.7, (2.5,))
    beta = np.random.default_rng(p).normal(size=design.n)
    got = simulate(design, spec, beta=beta, reps=4, seed=9)
    want = simulate_dense(design, spec, beta=beta, reps=4, seed=9)
    assert np.max(np.abs(got - want)) < 1e-12


def test_simulate_validation(splitplot_design):
    spec = VarianceSpec(1.0, (1.0,))
    with pytest.raises(ValueError, match="reps"):
        simulate(splitplot_design, spec, reps=0)
    with pytest.raises(ValueError, match="length"):
        simulate(splitplot_design, spec, beta=np.zeros(5))
    with pytest.raises(ValueError, match="stage variances"):
        simulate(splitplot_design, VarianceSpec(1.0, ()), reps=1)


def test_gls_equals_ols(two_stage_design, splitplot_design):
    assert check_gls_equals_ols(two_stage_design, VarianceSpec(1.0, (2.0, 3.0)))
    assert check_gls_equals_ols(splitplot_design, VarianceSpec(0.5, (4.0,)))


def test_gls_guards():
    big_stage = span([Effect(1 << j, 7) for j in range(3)])
    big = Design(p=7, stages=(big_stage,))
    with pytest.raises(ValueError, match="n <= 64"):
        check_gls_equals_ols(big, VarianceSpec(1.0, (1.0,)))
    small = Design(p=3, stages=(span([Effect(1, 3)]),))
    with pytest.raises(ValueError, match="singular error covariance"):
        check_gls_equals_ols(small, VarianceSpec(0.0, (1.0,)))


def test_halfnormal_quantiles_match_scipy(two_stage_design):
    spec = VarianceSpec(1.0, (2.0, 3.0))
    report = variance_groups(two_stage_design, spec)
    rng = np.random.default_rng(3)
    estimates = rng.normal(size=32)
    tables = halfnormal_emit(estimates, report)
    assert [t.group for t in tables] == ["s1", "s2", "rest"]
    assert [len(t.masks) for t in tables] == [3, 7, 21]
    for table, group in zip(tables, report.groups):
        g = len(table.masks)
        assert sorted(table.masks.tolist()) == list(group.masks)
        # Sorted ascending by |estimate| with scipy-checked quantiles.
        assert np.array_equal(table.abs_estimates, np.abs(estimates[table.masks]))
        assert np.all(np.diff(table.abs_estimates) >= 0)
        k = np.arange(1, g + 1)
        assert np.allclose(table.quantiles, norm.ppf((k - 0.5 + g) / (2 * g)), atol=1e-12)
    # Estimate values survive the |.| map.
    s1 = tables[0]
    a = s1.masks.tolist().index(_e("A").bits)
    assert s1.abs_estimates[a] == pytest.approx(abs(estimates[1]))


def test_halfnormal_ties_break_on_mask(splitplot_design):
    report = variance_groups(splitplot_design, VarianceSpec(1.0, (1.0,)))
    estimates = np.array([float(bits % 5 - 2) for bits in range(32)])
    tables = halfnormal_emit(estimates, report)
    assert sum(len(t.masks) for t in tables) == 31
    assert all(np.all(t.abs_estimates >= 0) for t in tables)
    # Equal |estimate| ties, sign ties included, list in ascending mask order.
    words = {t.group: [mask_word(m) for m in t.masks.tolist()] for t in tables}
    assert words["s1"] == ["B", "A", "AB"]
    assert words["rest"][:5] == ["ABC", "CD", "AE", "BCE", "ABDE"]
    again = halfnormal_emit(estimates, report)
    for a, b in zip(tables, again):
        assert a.group == b.group
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.abs_estimates, b.abs_estimates)
        assert np.array_equal(a.quantiles, b.quantiles)


@st.composite
def designs(draw):
    """Designs with p <= 8 and 1-4 stages; stages may overlap or repeat."""
    p = draw(st.integers(2, 8))
    stages: list[Subspace] = []
    for _ in range(draw(st.integers(1, 4))):
        if stages and draw(st.booleans()):
            stages.append(draw(st.sampled_from(stages)))
            continue
        gens = draw(st.lists(st.integers(1, (1 << p) - 1), min_size=1, max_size=p - 1))
        stages.append(Subspace(p=p, basis=tuple(bitlin.echelon(gens))))
    return Design(p=p, stages=tuple(stages))


@settings(max_examples=50, deadline=None)
@given(design=designs(), data=st.data())
def test_variance_layer_matches_the_per_mask_loops(design, data):
    spec = VarianceSpec(
        1.0, tuple(float(i + 1) for i in range(len(design.stages)))
    )
    report = variance_groups(design, spec)
    assert report == variance_groups_loop(design, spec)
    assert variance_groups(design) == variance_groups_loop(design)
    # Rounded draws make ties in |estimate| common.
    values = data.draw(
        st.lists(st.integers(-3, 3), min_size=design.n, max_size=design.n)
    )
    estimates = np.array(values, dtype=float) / 2
    rows = [
        (t.group, mask_word(m), a, q)
        for t in halfnormal_emit(estimates, report)
        for m, a, q in zip(t.masks.tolist(), t.abs_estimates.tolist(), t.quantiles.tolist())
    ]
    assert rows == halfnormal_rows(estimates, report)


def test_variance_groups_past_63_stages():
    # 127 one-point stages at p = 7: membership codes outgrow int64.
    design = Design(p=7, stages=tuple(Subspace(p=7, basis=(m,)) for m in range(1, 128)))
    spec = VarianceSpec(1.0, (0.5,) * 127)
    report = variance_groups(design, spec)
    assert report == variance_groups_loop(design, spec)
    assert [g.masks for g in report.groups] == [(m,) for m in range(1, 128)]


def test_variance_layer_at_p18(within_one_second):
    # Three disjoint rank-6 stages; 2^18 - 1 effects in four groups.
    stages = tuple(
        Subspace(p=18, basis=tuple(1 << j for j in range(k, k + 6))) for k in (0, 6, 12)
    )
    design = Design(p=18, stages=stages)
    estimates = np.random.default_rng(18).normal(size=design.n)

    def layer():
        report = variance_groups(design, VarianceSpec(1.0, (1.0, 2.0, 3.0)))
        return report, halfnormal_emit(estimates, report)

    report, tables = within_one_second(layer)
    assert [len(g.masks) for g in report.groups] == [63, 63, 63, (1 << 18) - 1 - 189]
    assert [t.group for t in tables] == ["s1", "s2", "s3", "rest"]
    rest = tables[-1]
    assert np.all(np.diff(rest.abs_estimates) >= 0)
    assert rest.quantiles[0] > 0 and np.all(np.diff(rest.quantiles) > 0)
