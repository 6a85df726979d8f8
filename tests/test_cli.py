"""End-to-end command tests: run main(argv) in-process and check files/exit codes."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcss.cli import load_design, main, verification_payload
from rdcss.geometry import parse_effect, span

from test_spreads import TABLE_P6_T3


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("RDCSS_SEED", raising=False)


@pytest.fixture(scope="module")
def example5_dir(tmp_path_factory):
    """Blocked split-lot construction at p=6 used by several commands."""
    out = tmp_path_factory.mktemp("example5")
    rc = main(
        [
            "construct",
            "--p",
            "6",
            "--stage",
            "ABC,BDE,CEF:exact",
            "--stage",
            "A,B",
            "--stage",
            "D",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fraction_dir(tmp_path_factory):
    """Four-stage 2^(8-2) fraction over a 2^6 base with auto-chosen aliases."""
    out = tmp_path_factory.mktemp("fraction")
    rc = main(
        [
            "construct",
            "--factors",
            "8",
            "--basic",
            "6",
            "--t",
            "2",
            "--stage",
            "A,B",
            "--stage",
            "C,D",
            "--stage",
            "E,F",
            "--stage",
            "G,H",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------- exists


def test_exists_single_dimension(capsys):
    assert main(["exists", "--p", "8", "--t", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "exists"
    assert data["guarantee"] == 33
    assert data["upper_bound"] == 34
    assert data["deficiency"] == 2


def test_exists_stage_list(capsys):
    assert main(["exists", "--p", "6", "--stages", "3,3,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "exists"
    assert data["guarantee"] == 9
    assert main(["exists", "--p", "5", "--stages", "3,3"]) == 0
    overlap = json.loads(capsys.readouterr().out)
    assert overlap["verdict"] == "exists-with-overlap"
    assert overlap["min_overlap"] == 1


def test_exists_mixed_route(capsys):
    assert main(["exists", "--p", "7", "--t1", "4", "--t-list", "3,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "exists"
    assert data["guarantee"] == 17


def test_exists_t1_at_half_p_is_not_a_proof(capsys):
    # A line and five points outside it fit in PG(3, 2): the six stages exceed
    # the five members of the line spread, which proves nothing.
    assert main(["exists", "--p", "4", "--t1", "2", "--t-list", "1,1,1,1,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "unknown-within-bounds"
    assert data["stage_dims"] == [2, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "spelling, stages",
    [
        (["--t", "3"], "3"),
        (["--t", "4"], "4"),
        (["--t1", "4", "--t-list", "3,3"], "4,3,3"),
        (["--t1", "2", "--t-list", "4"], "2,4"),
        (["--t1", "4", "--t-list", "4"], "4,4"),
        (["--t1", "3", "--t-list", "2,2,2,2,2,2,2,2,2"], "3,2,2,2,2,2,2,2,2,2"),
    ],
)
def test_exists_spellings_print_the_same_report(capsys, spelling, stages):
    assert main(["exists", "--p", "7", *spelling]) == 0
    spelled = capsys.readouterr().out
    assert main(["exists", "--p", "7", "--stages", stages]) == 0
    assert capsys.readouterr().out == spelled


def test_exists_argument_errors(capsys):
    assert main(["exists", "--p", "6"]) == 2
    assert "need one of" in capsys.readouterr().err
    assert main(["exists", "--p", "7", "--t1", "4"]) == 2
    assert "--t-list" in capsys.readouterr().err


# ---------------------------------------------------------------- spread


def test_spread_prints_reference_grid(capsys):
    assert main(["spread", "--p", "6", "--t", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "\t".join(f"S_{i}" for i in range(1, 10))
    assert lines[1:] == ["\t".join(row) for row in TABLE_P6_T3]


def test_spread_custom_polynomial_matches_default(capsys):
    assert main(["spread", "--p", "6", "--t", "3"]) == 0
    default = capsys.readouterr().out
    assert main(["spread", "--p", "6", "--t", "3", "--poly", "0x43"]) == 0
    assert capsys.readouterr().out == default


def test_spread_small_case(capsys):
    assert main(["spread", "--p", "4", "--t", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "S_1\tS_2\tS_3\tS_4\tS_5"
    assert len(lines) == 4  # header + 3 points per member


def test_spread_guidance_when_no_full_spread(capsys):
    assert main(["spread", "--p", "5", "--t", "2"]) == 2
    err = capsys.readouterr().err
    assert "2 does not divide 5" in err
    assert "--partial" in err


def test_zero_spread_dimension_is_invalid_input(tmp_path, capsys):
    assert main(["spread", "--p", "6", "--t", "0"]) == 2
    assert "1 <= t < p, got t=0" in capsys.readouterr().err
    argv = ["--p", "6", "--t", "0", "--stage", "A"]
    assert main(["transform", *argv]) == 2
    assert "1 <= t < p, got t=0" in capsys.readouterr().err
    assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 2
    assert "1 <= t < p, got t=0" in capsys.readouterr().err


@settings(deadline=None)
@given(st.data())
def test_spread_and_exists_dimensions_exit_cleanly(data):
    # Small p only: no large spread gets built.
    p = data.draw(st.integers(min_value=2, max_value=10))
    t = data.draw(st.integers(min_value=-1, max_value=p + 1))
    command = data.draw(st.sampled_from([["spread"], ["spread", "--partial"], ["exists"]]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main([*command, "--p", str(p), "--t", str(t)])
    assert rc in (0, 2)


def test_spread_partial(capsys):
    assert main(["spread", "--p", "5", "--t", "2", "--partial"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "\t".join(f"S_{i}" for i in range(1, 10))
    assert len(lines) == 4
    words = [w for line in lines[1:] for w in line.split("\t")]
    assert len(words) == 27 and len(set(words)) == 27


def test_spread_polynomial_errors(capsys):
    assert main(["spread", "--p", "6", "--t", "3", "--poly", "0x5"]) == 2
    assert "degree 2 does not match p=6" in capsys.readouterr().err
    assert main(["spread", "--p", "6", "--t", "3", "--poly", "zzz"]) == 2
    assert "bit mask" in capsys.readouterr().err
    assert (
        main(["spread", "--p", "5", "--t", "2", "--partial", "--poly", "0x25"])
        == 2
    )
    assert "only applies to a full cyclic spread" in capsys.readouterr().err


# ---------------------------------------------------------------- construct


def test_construct_writes_design_files(example5_dir):
    payload = json.loads((example5_dir / "design.json").read_text())
    assert payload["schema"] == 1
    assert payload["kind"] == "full"
    assert payload["p"] == 6 and payload["runs"] == 64
    assert payload["factors"] == "ABCDEF"
    assert payload["seed"] == 0
    assert len(payload["stages"]) == 3
    s1 = payload["stages"][0]
    assert s1["required"] == ["ABC", "BDE", "CEF"] and s1["exact"]
    want = span(tuple(parse_effect(w, 6) for w in ("ABC", "BDE", "CEF")))
    assert set(s1["points"]) == {e.word for e in want.points}
    assert payload["stages"][1]["required"] == ["A", "B"]
    assert not payload["stages"][1]["exact"]
    rows = payload["collineation"]
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    assert all(v in (0, 1) for r in rows for v in r)
    members = payload["spread"]["members"]
    assert len(members) == 9 and all(len(m) == 7 for m in members)
    assert payload["fraction"] is None
    # Stage points are drawn from the transformed spread members.
    for st in payload["stages"]:
        assert st["points"] == members[st["member_index"]]


def test_construct_runs_csv(example5_dir):
    with (example5_dir / "runs.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list("ABCDEF")
    assert len(rows) == 65
    for r, row in enumerate(rows[1:]):
        assert [int(v) for v in row] == [(r >> j) & 1 for j in range(6)]


def test_construct_verification(example5_dir):
    verification = json.loads((example5_dir / "verification.json").read_text())
    assert verification["schema"] == 1
    assert verification["runs"] == 64
    assert verification["stage_sizes"] == [7, 7, 7]
    assert verification["pairwise_disjoint"] is True
    assert verification["requirements_met"] == [True, True, True]
    assert verification["lemma1"] is True
    assert verification["model_orthogonal"] is True
    assert verification["defining_words_satisfied"] is None
    assert verification["resolution"] is None


def test_construct_round_trip(example5_dir):
    design, fraction, payload = load_design(example5_dir / "design.json")
    assert fraction is None
    assert design.p == 6 and len(design.stages) == 3
    recomputed = verification_payload(design, fraction, payload)
    assert recomputed == json.loads(
        (example5_dir / "verification.json").read_text()
    )


def test_verification_catches_repeated_run(example5_dir):
    design, fraction, payload = load_design(example5_dir / "design.json")
    runs = design.run_matrix.copy()
    runs[5] = runs[9]
    design.__dict__["run_matrix"] = runs
    report = verification_payload(design, fraction, payload)
    assert report["model_orthogonal"] is False
    assert report["lemma1"] is True


def test_construct_pm1_coding(tmp_path, capsys):
    rc = main(
        [
            "construct",
            "--p",
            "4",
            "--stage",
            "A,B",
            "--stage",
            "C",
            "--coding",
            "pm1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    with (tmp_path / "runs.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["1", "1", "1", "1"]
    values = {int(v) for row in rows[1:] for v in row}
    assert values == {1, -1}


def test_construct_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("RDCSS_SEED", "17")
    rc = main(
        ["construct", "--p", "4", "--stage", "A,B", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert json.loads((tmp_path / "design.json").read_text())["seed"] == 17


def test_construct_invalid_seed_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RDCSS_SEED", "many")
    rc = main(
        ["construct", "--p", "4", "--stage", "A,B", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "RDCSS_SEED" in capsys.readouterr().err


def test_construct_oracle_infeasible(tmp_path, capsys):
    rc = main(
        [
            "construct",
            "--p",
            "5",
            "--t",
            "3",
            "--stage",
            "A,B,C",
            "--stage",
            "D,E",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "cannot be disjoint" in err
    # Three dim-3 stages make three pairs but one dimension pair: one rule.
    argv = ["construct", "--p", "5", "--t", "3", "--stage", "A", "--stage", "B"]
    rc = main([*argv, "--stage", "C", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.count("sum past p") == 1


def test_construct_search_infeasible(tmp_path, capsys):
    # Exact stages must match member dimension; the (6,3) spread has none of
    # dimension 2, which the search proves immediately.
    rc = main(
        [
            "construct",
            "--p",
            "6",
            "--t",
            "3",
            "--stage",
            "A,B:exact",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "0 candidate assignments checked" in err


def test_construct_budget_exhausted(tmp_path, capsys):
    rc = main(
        [
            "construct",
            "--p",
            "6",
            "--stage",
            "ABC,BDE,CEF:exact",
            "--stage",
            "A,B",
            "--stage",
            "D",
            "--budget",
            "10",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 4
    assert "raise --budget" in capsys.readouterr().err


def test_construct_argument_errors(tmp_path, capsys):
    assert main(["construct", "--out-dir", str(tmp_path)]) == 2
    assert "--p" in capsys.readouterr().err
    assert main(["construct", "--p", "13", "--stage", "A", "--out-dir", str(tmp_path)]) == 2
    assert "p <= 12" in capsys.readouterr().err
    assert main(["construct", "--p", "5", "--out-dir", str(tmp_path)]) == 2
    assert "at least one --stage" in capsys.readouterr().err
    assert (
        main(
            [
                "construct",
                "--p",
                "5",
                "--stage",
                "A,B:foo",
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 2
    )
    assert "unknown stage option" in capsys.readouterr().err


def test_construct_fraction_design(fraction_dir):
    payload = json.loads((fraction_dir / "design.json").read_text())
    assert payload["kind"] == "fraction"
    assert payload["p"] == 8 and payload["base_p"] == 6
    assert payload["runs"] == 64
    assert payload["factors"] == "ABCDEFGH"
    assert payload["fraction"] == {
        "factors": 8,
        "basic": 6,
        "generators": {
            "G": {"alias": "ABCDE", "stage": 4},
            "H": {"alias": "ACF", "stage": 4},
        },
    }
    for st in payload["stages"]:
        assert len(st["points"]) == 3
        assert len(st["lifted_points"]) == 15
    with (fraction_dir / "runs.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list("ABCDEFGH")
    assert len(rows) == 65
    assert {int(v) for row in rows[1:] for v in row} == {0, 1}


def test_construct_fraction_verification(fraction_dir):
    verification = json.loads((fraction_dir / "verification.json").read_text())
    assert verification["pairwise_disjoint"] is True
    assert verification["requirements_met"] == [True] * 4
    assert verification["lemma1"] is True
    assert verification["defining_words_satisfied"] is True
    assert verification["resolution"] == 4
    assert verification["stage_factor_sets"] == [
        ["A", "B"],
        ["C", "D"],
        ["E", "F"],
        ["G", "H"],
    ]
    assert verification["stage_sizes"] == [15, 15, 15, 15]


def test_construct_fraction_round_trip(fraction_dir):
    design, fraction, payload = load_design(fraction_dir / "design.json")
    assert fraction is not None
    assert design.p == 6 and fraction.factors == 8
    recomputed = verification_payload(design, fraction, payload)
    assert recomputed == json.loads(
        (fraction_dir / "verification.json").read_text()
    )


def test_construct_fraction_argument_errors(tmp_path, capsys):
    base = [
        "construct",
        "--factors",
        "8",
        "--stage",
        "A,B",
        "--out-dir",
        str(tmp_path),
    ]
    assert main(base) == 2
    assert "needs --basic" in capsys.readouterr().err
    assert main(base + ["--basic", "6"]) == 2
    assert "needs --t" in capsys.readouterr().err
    rc = main(
        [
            "construct",
            "--factors",
            "8",
            "--basic",
            "6",
            "--t",
            "2",
            "--stage",
            "AG",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "mixes added factors" in capsys.readouterr().err
    rc = main(
        [
            "construct",
            "--factors",
            "8",
            "--basic",
            "6",
            "--t",
            "2",
            "--stage",
            "G",
            "--stage",
            "G",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "appears in two stages" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "6", "--basic", "3", "--stage", "A"], "--p and --basic cannot be combined"),
        (
            ["--p", "6", "--factors", "8", "--basic", "6", "--t", "2", "--stage", "A"],
            "--p and --factors cannot be combined",
        ),
        (
            ["--factors", "8", "--basic", "6", "--t", "2", "--stage", "G,G"],
            "added factor G is repeated within stage 1",
        ),
    ],
    ids=["p-with-basic", "p-with-factors", "letter-repeated-in-stage"],
)
def test_construct_refuses_conflicting_words_and_flags(argv, message, tmp_path, capsys):
    assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "design.json").exists()


@pytest.mark.parametrize("basic", ["9", "8"])
def test_construct_fraction_needs_basic_below_factors(
    basic, tmp_path, capsys, within_one_second
):
    argv = ["construct", "--factors", "8", "--basic", basic, "--t", "2", "--stage", "A"]
    assert within_one_second(main, [*argv, "--out-dir", str(tmp_path)]) == 2
    assert f"2 <= basic < factors <= 24, got basic={basic}, factors=8" in (
        capsys.readouterr().err
    )


def test_construct_fraction_caps_basic_count(tmp_path, capsys, within_one_second):
    # A 15-factor base spread used to run a search that had not ended after 120 s.
    argv = ["construct", "--factors", "16", "--basic", "15", "--t", "5", "--stage", "A,B"]
    assert within_one_second(main, [*argv, "--out-dir", str(tmp_path)]) == 2
    assert "limited to basic <= 12, got 15" in capsys.readouterr().err


# ---------------------------------------------------------------- transform


def test_transform_reports_relabeling(capsys):
    rc = main(
        [
            "transform",
            "--p",
            "7",
            "--stage",
            "A,B,C,D:exact",
            "--stage",
            "E,F",
            "--stage",
            "G",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "found"
    assert data["candidates_tried"] == 2209
    assert len(data["members"]) == 17
    sizes = sorted(len(m) for m in data["members"])
    assert sizes == [7] * 16 + [15]
    first = data["members"][data["stage_members"][0] - 1]
    want = span(tuple(parse_effect(w, 7) for w in "ABCD"))
    assert set(first) == {e.word for e in want.points}
    second = data["members"][data["stage_members"][1] - 1]
    assert {"E", "F"} <= set(second)
    third = data["members"][data["stage_members"][2] - 1]
    assert "G" in third


def test_transform_budget(capsys):
    rc = main(
        [
            "transform",
            "--p",
            "6",
            "--stage",
            "ABC,BDE,CEF:exact",
            "--stage",
            "A,B",
            "--stage",
            "D",
            "--budget",
            "5",
        ]
    )
    assert rc == 4


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["construct", "--p", "6", "--stage", "ABC,BDE,CEF:exact", "--stage", "A,B"],
            id="construct",
        ),
        pytest.param(
            ["transform", "--p", "6", "--stage", "ABC,BDE,CEF:exact", "--stage", "A,B"],
            id="transform",
        ),
        # An added-only stage runs no search, so the budget is checked up front.
        pytest.param(
            ["construct", "--factors", "8", "--basic", "6", "--t", "2", "--stage", "G"],
            id="construct-added-only",
        ),
    ],
)
def test_negative_budget_is_invalid_input(argv, tmp_path, capsys):
    if argv[0] == "construct":
        argv = [*argv, "--out-dir", str(tmp_path)]
    assert main([*argv, "--budget", "-3"]) == 2
    assert "search budget must be non-negative, got -3" in capsys.readouterr().err
    assert not (tmp_path / "design.json").exists()


def test_transform_p12_four_stages(capsys, within_one_second):
    stages = ["A,B,C", "D,E,F", "G,H,I", "J,K,L"]
    argv = ["transform", "--p", "12", "--t", "3"]
    for words in stages:
        argv += ["--stage", words]
    assert within_one_second(main, argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "found"
    assert data["candidates_tried"] == 44137
    assert data["stage_members"] == [1, 2, 3, 4]


def test_transform_needs_stages(capsys):
    assert main(["transform", "--p", "6"]) == 2
    assert "at least one --stage" in capsys.readouterr().err


# ---------------------------------------------------------------- simulate


def test_simulate_writes_outputs(example5_dir, tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--design",
            str(example5_dir / "design.json"),
            "--sigma2",
            "1.0",
            "--stage-var",
            "4.0",
            "--stage-var",
            "0.5",
            "--stage-var",
            "0.25",
            "--reps",
            "200",
            "--seed",
            "3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    with (tmp_path / "estimates.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "I"
    assert rows[0][1:4] == ["A", "B", "AB"]
    assert len(rows[0]) == 64
    assert len(rows) == 201
    with (tmp_path / "halfnormal.csv").open() as fh:
        hn = list(csv.reader(fh))
    assert hn[0] == ["group", "effect", "abs_estimate", "quantile"]
    assert len(hn) == 64  # 63 effects + header
    assert all(float(r[2]) >= 0 for r in hn[1:])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reps"] == 200 and summary["seed"] == 3
    assert summary["stage_variances"] == [4.0, 0.5, 0.25]
    labels = [g["group"] for g in summary["groups"]]
    assert labels == ["s1", "s2", "s3", "rest"]
    for g in summary["groups"]:
        assert g["size"] >= 1
        theo, emp = g["theoretical_variance"], g["empirical_variance"]
        assert emp == pytest.approx(theo, rel=0.5)
    assert summary["groups"][0]["theoretical_variance"] == pytest.approx(
        1 / 64 + (8 / 64) * 4.0
    )


def test_simulate_beta_recovery(example5_dir, tmp_path):
    rc = main(
        [
            "simulate",
            "--design",
            str(example5_dir / "design.json"),
            "--sigma2",
            "0",
            "--stage-var",
            "0",
            "--stage-var",
            "0",
            "--stage-var",
            "0",
            "--beta",
            "A=1.5",
            "--beta",
            "CDE=-0.75",
            "--reps",
            "1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    with (tmp_path / "estimates.csv").open() as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], [float(v) for v in rows[1]]
    by_word = dict(zip(header, data))
    assert by_word["A"] == pytest.approx(1.5)
    assert by_word["CDE"] == pytest.approx(-0.75)
    assert sum(abs(v) for v in data) == pytest.approx(2.25)


def test_simulate_stage_var_count_mismatch(example5_dir, tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--design",
            str(example5_dir / "design.json"),
            "--stage-var",
            "1.0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "one --stage-var per stage (3)" in capsys.readouterr().err


def test_simulate_bad_beta(example5_dir, tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--design",
            str(example5_dir / "design.json"),
            "--stage-var",
            "1",
            "--stage-var",
            "1",
            "--stage-var",
            "1",
            "--beta",
            "A",
            "--reps",
            "1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "WORD=VALUE" in capsys.readouterr().err


def test_simulate_malformed_design(tmp_path, capsys):
    bad = tmp_path / "design.json"
    bad.write_text("not json at all")
    assert main(["simulate", "--design", str(bad), "--stage-var", "1"]) == 2
    assert "cannot read design file" in capsys.readouterr().err
    bad.write_text(json.dumps({"schema": 1, "kind": "full"}))
    assert main(["simulate", "--design", str(bad), "--stage-var", "1"]) == 2
    assert "malformed design file" in capsys.readouterr().err
    bad.write_text(json.dumps({"schema": 9}))
    assert main(["simulate", "--design", str(bad), "--stage-var", "1"]) == 2
    assert "unsupported design schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [{"kind": "full", "p": 20}, {"kind": "fraction", "p": 22, "base_p": 20}],
)
def test_design_file_above_p_cap_is_invalid_input(tmp_path, capsys, fields):
    # A 2^20-run design would need (reps, 2^20) arrays; it is refused on load.
    big = tmp_path / "design.json"
    big.write_text(
        json.dumps({"schema": 1, **fields, "stages": [{"basis": ["A", "B"]}]})
    )
    assert main(["simulate", "--design", str(big), "--stage-var", "1"]) == 2
    assert "limited to base p <= 12, got 20" in capsys.readouterr().err
    spec = json.dumps({"factors": 8, "basic": 6, "generators": {"G": "ABCD", "H": "ABEF"}})
    assert main(["fraction", "--spec", spec, "--design", str(big)]) == 2
    assert "limited to base p <= 12, got 20" in capsys.readouterr().err


# ---------------------------------------------------------------- fraction


def test_fraction_literal_spec(capsys):
    spec = json.dumps(
        {
            "factors": 8,
            "basic": 6,
            "generators": {"G": "ABCD", "H": "ABEF"},
        }
    )
    assert main(["fraction", "--spec", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["words"] == ["ABCDG", "ABEFH", "CDEFGH"]
    assert data["resolution"] == 5
    assert data["wlp"] == [0, 0, 0, 0, 2, 1, 0, 0]
    assert len(data["clear_mains"]) == 8
    assert len(data["clear_two_fis"]) == 28


def test_fraction_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"factors": 7, "basic": 6, "generators": {"G": "ABCDEF"}}
        )
    )
    assert main(["fraction", "--spec", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["words"] == ["ABCDEFG"]
    assert data["resolution"] == 7


def test_fraction_attached_to_design(example5_dir, tmp_path, capsys):
    spec = json.dumps(
        {
            "factors": 8,
            "basic": 6,
            "generators": {"G": "ABCD", "H": "ABEF"},
        }
    )
    rc = main(
        [
            "fraction",
            "--spec",
            spec,
            "--design",
            str(example5_dir / "design.json"),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lifted_stage_sizes"] == [31, 31, 31]
    assert len(data["stage_factor_sets"]) == 3
    with (tmp_path / "runs.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list("ABCDEFGH")
    assert len(rows) == 65


def test_fraction_bad_spec(tmp_path, capsys):
    assert main(["fraction", "--spec", "{broken"]) == 2
    assert main(["fraction", "--spec", str(tmp_path / "missing.json")]) == 2
    assert "cannot read fraction spec" in capsys.readouterr().err


MALFORMED_SPECS = [
    (
        {"factors": 8, "basic": 6, "generators": {"G": {"stage": 1}, "H": "ABE"}},
        "missing the 'alias' key",
    ),
    ({"factors": None, "basic": 6, "generators": {}}, "malformed fraction spec"),
    (
        {"factors": 8, "basic": 6, "generators": {"G": {"alias": "ABC", "stage": [1]}, "H": "ABE"}},
        "malformed fraction spec",
    ),
]


@pytest.mark.parametrize("spec, message", MALFORMED_SPECS)
def test_malformed_fraction_spec_is_invalid_input(spec, message, tmp_path, capsys):
    assert main(["fraction", "--spec", json.dumps(spec)]) == 2
    assert message in capsys.readouterr().err
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps([spec]))
    assert main(["rank", "--candidates", str(path)]) == 2
    assert message in capsys.readouterr().err


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-30, max_value=30),
    st.floats(),
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZa", max_size=5),
)
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["alias", "stage", "G", "H"]), kids, max_size=3),
    ),
    max_leaves=6,
)
_generator_entries = st.one_of(
    st.text(alphabet="ABCDEFa", max_size=6),
    st.fixed_dictionaries(
        {"alias": st.text(alphabet="ABCDEF", max_size=5)}, optional={"stage": _json_values}
    ),
    _json_values,
)
_fraction_specs = st.fixed_dictionaries(
    {
        "factors": st.one_of(st.integers(min_value=0, max_value=26), _json_scalars),
        "basic": st.one_of(st.integers(min_value=0, max_value=26), _json_scalars),
        "generators": st.one_of(
            st.dictionaries(st.sampled_from("ABCDEFGHIJKLa"), _generator_entries, max_size=6),
            _json_values,
        ),
    }
)


@settings(deadline=None)
@given(spec=_fraction_specs)
def test_random_fraction_specs_exit_cleanly(spec, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "random_candidates.json"
    path.write_text(json.dumps([spec]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["fraction", "--spec", json.dumps(spec)]) in (0, 2)
        assert main(["rank", "--candidates", str(path)]) in (0, 2)


# ---------------------------------------------------------------- rank


def test_rank_orders_candidates(tmp_path, capsys):
    path = tmp_path / "candidates.json"
    path.write_text(
        json.dumps(
            [
                {
                    "factors": 8,
                    "basic": 6,
                    "generators": {"G": "ABC", "H": "DEF"},
                },
                {
                    "factors": 8,
                    "basic": 6,
                    "generators": {"G": "ABCD", "H": "ABEF"},
                },
            ]
        )
    )
    assert main(["rank", "--candidates", str(path)]) == 0
    ranked = json.loads(capsys.readouterr().out)
    assert [r["rank"] for r in ranked] == [1, 2]
    assert ranked[0]["resolution"] == 5
    assert ranked[0]["spec"]["generators"]["G"] == "ABCD"
    assert ranked[1]["resolution"] == 4
    assert ranked[0]["clear_two_fis"] == 28
    assert ranked[1]["clear_two_fis"] == 16

    assert (
        main(
            ["rank", "--candidates", str(path), "--criterion", "clear-count"]
        )
        == 0
    )
    by_clear = json.loads(capsys.readouterr().out)
    assert by_clear[0]["spec"]["generators"]["G"] == "ABCD"


def test_rank_bad_candidates(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["rank", "--candidates", str(missing)]) == 2
    assert "cannot read candidates file" in capsys.readouterr().err
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["rank", "--candidates", str(empty)]) == 2
    assert "nonempty JSON list" in capsys.readouterr().err


def test_rank_rejects_repeated_alias_letter(tmp_path, capsys):
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps([{"factors": 7, "basic": 6, "generators": {"G": "AAB"}}]))
    assert main(["rank", "--candidates", str(path)]) == 2
    assert "repeated factor letter 'A' in 'AAB'" in capsys.readouterr().err
