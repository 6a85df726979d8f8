"""Smoke tests: each script in scripts/ runs through its main with small arguments."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_feasibility_fraction_prints_reference_tally(capsys):
    assert _script("feasibility_fraction").main([]) == 0
    out = capsys.readouterr().out
    assert "candidates: 432180" in out
    assert "feasible:   197568" in out
    assert "fraction:   0.457143" in out


def test_feasibility_fraction_closes_a_p8_split(capsys, within_one_second):
    # Two rank-4 stages on the (8,4) spread: 136 member pairs, and 840 of each
    # member's 1365 four-subsets are bases (members meet only in 0).
    argv = ["--p", "8", "--t", "4", "--stages", "A+B+C+D,E+F+G+H"]
    assert within_one_second(_script("feasibility_fraction").main, argv) == 0
    out = capsys.readouterr().out
    assert "candidates: 253398600" in out
    assert "feasible:   95961600" in out


def test_splitplot_simulation_prints_theoretical_variances(capsys):
    assert _script("splitplot_simulation").main(["--reps", "10", "100"]) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert rows["group"] == ["group", "size", "theoretical", "reps=10", "reps=100"]
    assert rows["s1"][1:3] == ["3", "1.031250"]
    assert rows["rest"][1:3] == ["28", "0.031250"]


def test_build_example_designs_writes_verified_designs(tmp_path, capsys):
    module = _script("build_example_designs")
    assert module.main(["--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(module.DESIGNS)
    for name in module.DESIGNS:
        for file in ("design.json", "runs.csv", "verification.json"):
            assert (tmp_path / name / file).is_file()
        report = json.loads((tmp_path / name / "verification.json").read_text())
        assert report["pairwise_disjoint"] is True
        assert all(report["requirements_met"])
        assert report["lemma1"] is True
        assert report["model_orthogonal"] is True
        is_fraction = name.startswith("fraction")
        assert report["defining_words_satisfied"] is (True if is_fraction else None)

