"""Fractional layers: defining subgroups, lifted stages, clearness, ranking."""

import pytest

from rdcss.fractional import (
    FractionSpec,
    Generator,
    build_fraction,
    choose_generators,
    clear_effects,
    defining_subgroup,
    fraction_spec_to_dict,
    parse_fraction_spec,
    rank_designs,
    stage_factor_sets,
)
from rdcss.geometry import Effect, mask_word, parse_effect, span
from rdcss.randomization import Design


def _gen(letter, word, u=6, stage=None):
    return Generator(letter=letter, alias=parse_effect(word, u), stage=stage)


def _spec_v():
    """Resolution V 2^(8-2): G = ABCD, H = ABEF."""
    return FractionSpec(8, 6, (_gen("G", "ABCD"), _gen("H", "ABEF")))


def _spec_iv():
    """Resolution IV 2^(8-2): G = ABC, H = DEF."""
    return FractionSpec(8, 6, (_gen("G", "ABC"), _gen("H", "DEF")))


def _base6():
    return Design(
        p=6,
        stages=(
            span(tuple(parse_effect(w, 6) for w in "ABCD")),
            span(tuple(parse_effect(w, 6) for w in "EF")),
        ),
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="2 <= basic"):
        FractionSpec(8, 1, ())
    with pytest.raises(ValueError, match="2 <= basic"):
        FractionSpec(4, 6, ())
    with pytest.raises(ValueError, match="need 2 generators"):
        FractionSpec(8, 6, (_gen("G", "ABCD"),))
    with pytest.raises(ValueError, match="must define factor 'G'"):
        FractionSpec(8, 6, (_gen("H", "ABCD"), _gen("G", "ABEF")))
    with pytest.raises(ValueError, match="over the 6 basic factors"):
        FractionSpec(
            8,
            6,
            (_gen("G", "ABCD"), Generator("H", parse_effect("AB", 5))),
        )
    with pytest.raises(ValueError, match="duplicates the basic factor"):
        FractionSpec(8, 6, (_gen("G", "ABCD"), _gen("H", "C")))
    with pytest.raises(ValueError, match="duplicate generator alias"):
        FractionSpec(8, 6, (_gen("G", "ABCD"), _gen("H", "ABCD")))


def test_spec_counts():
    spec = _spec_v()
    assert spec.s == 2
    assert spec.runs == 64
    words = spec.defining_words()
    assert words == (0b01001111, 0b10110011)
    assert [mask_word(w) for w in words] == ["ABCDG", "ABEFH"]


def test_defining_subgroup_closure():
    subgroup = defining_subgroup(_spec_v())
    assert [mask_word(w) for w in subgroup.words] == ["ABCDG", "ABEFH", "CDEFGH"]
    masks = subgroup.words
    assert list(masks) == sorted(masks) and len(masks) == 3
    for a in masks:
        for b in masks:
            if a != b:
                assert a ^ b in masks
    assert subgroup.resolution == 5
    assert subgroup.wlp == (0, 0, 0, 0, 2, 1, 0, 0)


def test_degenerate_whole_design():
    spec = FractionSpec(4, 4, ())
    assert spec.s == 0 and spec.runs == 16
    subgroup = defining_subgroup(spec)
    assert subgroup.words == ()
    assert subgroup.resolution is None
    assert subgroup.wlp == (0, 0, 0, 0)
    base = Design(p=4, stages=(span([Effect(1, 4), Effect(2, 4)]),))
    design = build_fraction(base, spec)
    assert design.run_masks == tuple(range(16))
    assert design.stages[0].point_masks == base.stages[0].point_masks


def test_resolution_iii_subgroup():
    spec = FractionSpec(5, 3, (_gen("D", "AB", u=3), _gen("E", "AC", u=3)))
    subgroup = defining_subgroup(spec)
    assert [mask_word(w) for w in subgroup.words] == ["ABD", "ACE", "BCDE"]
    assert subgroup.resolution == 3
    assert subgroup.wlp == (0, 0, 2, 1, 0)
    report = clear_effects(subgroup)
    assert report.clear_mains == ()
    assert report.clear_two_fis == ()
    assert report.count == 0


def test_clear_effects_resolution_v():
    report = clear_effects(defining_subgroup(_spec_v()))
    assert len(report.clear_mains) == 8
    assert len(report.clear_two_fis) == 28
    assert report.count == 36


def test_clear_effects_resolution_iv():
    report = clear_effects(defining_subgroup(_spec_iv()))
    assert len(report.clear_mains) == 8
    # Only cross-group two-factor interactions escape the length-4 words.
    assert len(report.clear_two_fis) == 16
    assert "AD" in report.clear_two_fis and "AB" not in report.clear_two_fis


def test_build_fraction_checks_base_width():
    base = Design(p=5, stages=(span([Effect(1, 5), Effect(2, 5)]),))
    with pytest.raises(ValueError, match="expects 6 basic factors"):
        build_fraction(base, _spec_v())


def test_build_fraction_stage_containment():
    base = _base6()
    bound = FractionSpec(
        8, 6, (_gen("G", "ABCD", stage=0), _gen("H", "ABEF", stage=1))
    )
    with pytest.raises(
        ValueError, match="stage containment violated: alias ABEF for H"
    ):
        build_fraction(base, bound)
    with pytest.raises(ValueError, match="names stage 5"):
        build_fraction(
            base,
            FractionSpec(8, 6, (_gen("G", "ABCD", stage=4), _gen("H", "ABEF"))),
        )
    ok = build_fraction(
        base, FractionSpec(8, 6, (_gen("G", "ABCD", stage=0), _gen("H", "ABEF")))
    )
    assert ok.factors == 8


def test_lifted_stages_are_batch_constant_preimages():
    base = _base6()
    design = build_fraction(base, _spec_v())
    assert [s.dim for s in design.stages] == [6, 4]
    aliases = [g.alias.bits for g in design.spec.generators]

    def project(bits):
        out = bits & 0b111111
        for j, alias in enumerate(aliases):
            if bits >> (6 + j) & 1:
                out ^= alias
        return out

    for stage, lifted in zip(base.stages, design.stages):
        allowed = set(stage.point_masks) | {0}
        want = {w for w in range(1, 1 << 8) if project(w) in allowed}
        assert lifted.point_masks == want

    # Semantics on the actual runs: lifted effects are constant on the
    # batches the base stage induces, everything else is not.
    for stage, lifted in zip(base.stages, design.stages):
        labels = {}
        for x, mask in enumerate(design.run_masks):
            key = tuple(
                (x & b).bit_count() & 1 for b in stage.basis
            )
            labels.setdefault(key, []).append(mask)
        for w in range(1, 1 << 8):
            constant = all(
                len({(m & w).bit_count() & 1 for m in group}) == 1
                for group in labels.values()
            )
            assert constant == (w in lifted.point_masks)


def test_runs_satisfy_defining_words():
    design = build_fraction(_base6(), _spec_v())
    assert design.runs == 64
    assert design.run_matrix.shape == (64, 8)
    assert set(design.run_matrix.ravel().tolist()) == {0, 1}
    for mask in design.run_masks:
        for word in design.subgroup.words:
            assert (mask & word).bit_count() % 2 == 0


def test_stage_factor_sets_follow_aliases():
    base = _base6()
    spec = FractionSpec(
        8, 6, (_gen("G", "ABCD", stage=0), _gen("H", "EF", stage=1))
    )
    design = build_fraction(base, spec)
    assert stage_factor_sets(design) == (
        ("A", "B", "C", "D", "G"),
        ("E", "F", "H"),
    )


def test_choose_generators_canonical_and_exhaustion():
    base = Design(
        p=5,
        stages=(
            span(tuple(parse_effect(w, 5) for w in "AB")),
            span(tuple(parse_effect(w, 5) for w in "CDE")),
        ),
    )
    gens = choose_generators(base, 7, (0, None))
    assert [g.letter for g in gens] == ["F", "G"]
    assert gens[0].alias.word == "AB" and gens[0].stage == 0
    assert gens[1].alias.word == "AC" and gens[1].stage is None
    # Stage 1's only interaction word is AB; two bound slots exhaust it.
    with pytest.raises(ValueError, match="no alias word left in stage 1 for factor G"):
        choose_generators(base, 7, (0, 0))
    with pytest.raises(ValueError, match="need 2 stage bindings"):
        choose_generators(base, 7, (None,))
    with pytest.raises(ValueError, match="at least one added factor"):
        choose_generators(base, 5, ())
    with pytest.raises(ValueError, match="names stage 3"):
        choose_generators(base, 6, (2,))


def test_parse_fraction_spec_round_trip():
    spec = FractionSpec(
        8, 6, (_gen("G", "ABCD", stage=3), _gen("H", "ABEF"))
    )
    data = fraction_spec_to_dict(spec)
    assert data == {
        "factors": 8,
        "basic": 6,
        "generators": {"G": {"alias": "ABCD", "stage": 4}, "H": "ABEF"},
    }
    assert parse_fraction_spec(data) == spec
    as_json = (
        '{"factors": 8, "basic": 6, '
        '"generators": {"G": {"alias": "ABCD", "stage": 4}, "H": "ABEF"}}'
    )
    assert parse_fraction_spec(as_json) == spec


def test_parse_fraction_spec_errors():
    with pytest.raises(ValueError, match="missing the 'factors' key"):
        parse_fraction_spec({"basic": 6, "generators": {}})
    with pytest.raises(ValueError, match="no generator for factor 'G'"):
        parse_fraction_spec({"factors": 7, "basic": 6, "generators": {}})
    with pytest.raises(ValueError, match="unexpected generator letters"):
        parse_fraction_spec(
            {
                "factors": 7,
                "basic": 6,
                "generators": {"G": "AB", "Z": "CD"},
            }
        )
    with pytest.raises(ValueError, match="unknown factor letter"):
        parse_fraction_spec(
            {"factors": 7, "basic": 6, "generators": {"G": "AG"}}
        )
    with pytest.raises(ValueError, match="JSON object"):
        parse_fraction_spec("[1, 2]")
    with pytest.raises(ValueError, match="map added letters"):
        parse_fraction_spec({"factors": 7, "basic": 6, "generators": []})


def test_parse_fraction_spec_rejects_repeated_alias_letter():
    # Read as a set of letters, "AAB" would silently become AB.
    with pytest.raises(ValueError, match="repeated factor letter 'A'"):
        parse_fraction_spec({"factors": 7, "basic": 6, "generators": {"G": "AAB"}})
    with pytest.raises(ValueError, match="repeated factor letter 'B'"):
        parse_fraction_spec(
            {"factors": 8, "basic": 6, "generators": {"G": "ABC", "H": {"alias": "BDB"}}}
        )


def test_rank_designs_wlp_prefers_higher_resolution():
    ranked = rank_designs([_spec_iv(), _spec_v()])
    assert ranked[0].resolution == 5
    assert ranked[1].resolution == 4
    assert ranked[0].wlp < ranked[1].wlp
    assert ranked[0].spec == _spec_v()


def test_rank_designs_clear_count_criterion():
    ranked = rank_designs([_spec_iv(), _spec_v()], criterion="clear-count")
    assert ranked[0].clear.count == 36
    assert ranked[1].clear.count == 24


def test_rank_designs_tie_breaks_on_words():
    mirrored = FractionSpec(8, 6, (_gen("G", "ABEF"), _gen("H", "ABCD")))
    ranked = rank_designs([mirrored, _spec_v()])
    assert ranked[0].wlp == ranked[1].wlp
    # Equal patterns fall back to the ascending defining-word masks.
    assert ranked[0].subgroup.words < ranked[1].subgroup.words
    assert ranked[0].spec == _spec_v()
    assert rank_designs([mirrored, _spec_v()]) == rank_designs(
        [_spec_v(), mirrored]
    )


def test_rank_designs_unknown_criterion():
    with pytest.raises(ValueError, match="unknown ranking criterion"):
        rank_designs([_spec_v()], criterion="alphabetical")
