"""The library entry point of construction, called without the command line."""

import json

import pytest

from rdcss import BudgetExhausted, Infeasible, StageRequirement, build
from rdcss.cli import main
from rdcss.geometry import mask_word, parse_effect


def _written(tmp_path, argv):
    assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 0
    return json.loads((tmp_path / "design.json").read_text())


def _bases(subspaces):
    return [[mask_word(m) for m in sub.basis] for sub in subspaces]


def test_build_matches_what_construct_writes(blocked_splitlot_requirements, tmp_path):
    built = build(6, 6, blocked_splitlot_requirements)
    argv = ["--p", "6", "--stage", "ABC,BDE,CEF:exact", "--stage", "A,B", "--stage", "D"]
    payload = _written(tmp_path, argv)
    assert built.fraction is None
    assert _bases(built.design.stages) == [st["basis"] for st in payload["stages"]]
    assert list(built.members) == [st["member_index"] for st in payload["stages"]]
    assert [built.spread.members[j] for j in built.members] == list(built.design.stages)


def test_build_lifts_a_fraction_as_construct_does(tmp_path):
    pairs = ("AB", "CD", "EF", "GH")
    stages = [StageRequirement(tuple(parse_effect(w, 8) for w in pair)) for pair in pairs]
    built = build(8, 6, stages, t=2)
    argv = ["--factors", "8", "--basic", "6", "--t", "2"]
    for pair in pairs:
        argv += ["--stage", ",".join(pair)]
    payload = _written(tmp_path, argv)
    assert _bases(built.design.stages) == [st["basis"] for st in payload["stages"]]
    assert _bases(built.fraction.stages) == [st["lifted_basis"] for st in payload["stages"]]
    assert list(built.members) == [st["member_index"] for st in payload["stages"]]


def test_build_refuses_stages_that_must_overlap():
    # Two dimension-3 stages in p = 5: 3 + 3 > 5, so they share an effect.
    stages = [StageRequirement((parse_effect(w, 5),)) for w in "AB"]
    with pytest.raises(Infeasible, match="cannot be disjoint"):
        build(5, 5, stages, t=3)


def test_build_stops_at_an_exhausted_budget(blocked_splitlot_requirements):
    with pytest.raises(BudgetExhausted):
        build(6, 6, blocked_splitlot_requirements, budget=0)
