"""Tests for the benchmark itself: streams, span arithmetic and output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdcss import cli, spreads  # noqa: E402

def take(stream, n: int) -> list[dict]:
    return list(itertools.islice(stream, n))


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "value": None, "error": None}


def outcome_of(value) -> dict:
    return {"exit": 0, "stdout": "", "stderr": "", "value": value, "error": None}


# ---------------------------------------------------------------- streams


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_same_seed_gives_same_stream(workload):
    make = workloads.STREAMS[workload]
    first = take(make(7), 150)
    assert first == take(make(7), 150)
    assert first != take(make(8), 150)
    assert [r["id"] for r in first] == list(range(150))
    assert json.loads(json.dumps(first)) == first


def test_rank_candidate_files_follow_the_seed():
    assert workloads.rank_candidate_files(3) == workloads.rank_candidate_files(3)
    assert workloads.rank_candidate_files(3) != workloads.rank_candidate_files(4)


def test_rounds_keep_the_class_mix():
    reqs = take(workloads.construct_stream(1), 10 * 3)
    counts = {cls: sum(r["cls"] == cls for r in reqs) for cls in workloads.DEADLINES}
    assert [r["round"] for r in reqs] == [i // 10 for i in range(10 * 3)]
    assert counts["reference"] == 15 and counts["search"] == 6
    assert counts["verify"] == counts["infeasible"] == counts["budget"] == 3
    assert all(r["known_defect"] == "budget-unbounded-completion"
               for r in reqs if r["cls"] == "budget")


def test_known_defect_is_excused_only_as_recorded(checker):
    req = {"cli": ["spread", "--p", "6", "--t", "0"], "expect": 2, "check": ["refused", {}],
           "known_defect": "spread-t0-traceback"}
    crashed = {"exit": None, "error": "uncaught ZeroDivisionError: x", "stopped": False}
    other = {"exit": None, "error": "uncaught IndexError: x", "stopped": False}
    assert checker.check(req, crashed, Path()) and checks.shows_known_defect(req, crashed)
    assert checker.check(req, other, Path()) and not checks.shows_known_defect(req, other)
    budget = {"known_defect": "budget-unbounded-completion"}
    assert checks.shows_known_defect(budget, {"stopped": True})
    assert not checks.shows_known_defect(budget, {"stopped": False, "exit": 0, "error": None})
    assert not checks.shows_known_defect({}, crashed)


def test_random_primitive_polynomials_are_primitive():
    rng = workloads.random.Random(0)
    for p in (6, 14, 16):
        poly = workloads._random_primitive(rng, p)
        spread = spreads.cyclic_spread(p, p // 2, cli._parse_poly(hex(poly), p))
        assert len(spread.members) == (1 << p) // (1 << p // 2) + 1


# ---------------------------------------------------------------- spans


def test_self_time_subtracts_only_direct_children():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 30].
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert list(spans.self_times(start, end, parent)) == [30, 20, 10, 40]


def test_self_time_of_sibling_roots():
    assert list(spans.self_times([0, 5], [5, 9], [-1, -1])) == [5, 4]


def test_tracer_wraps_where_callers_look_up_and_restores():
    original = cli.simulate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.simulate is not original
        request = tracer.begin_request(0)
        assert run_cli(["spread", "--p", "6", "--t", "3"])["exit"] == 0
        tracer.end_request(request)
    finally:
        tracer.uninstall()
    assert cli.simulate is original
    self_s, calls = tracer.layer_totals()
    assert calls["cli.main"] == 1 and calls["spreads.cyclic_spread"] == 1
    assert calls["gf2.power_masks"] == 1
    assert "bitlin.reduce_vector" not in calls
    assert tracer.counters["spreads.members_built"] == 9
    assert tracer.parent[0] == -1 and all(p >= 0 for p in tracer.parent[1:])
    request_s = (tracer.end[0] - tracer.start[0]) / 1e9
    assert sum(self_s.values()) == pytest.approx(request_s)


def test_spans_left_open_by_a_deadline_are_closed():
    tracer = spans.Tracer()
    request = tracer.begin_request(3)
    tracer.open(tracer._name_id("x"))
    tracer.end_request(request)
    assert all(e > 0 for e in tracer.end)
    assert min(spans.self_times(tracer.start, tracer.end, tracer.parent)) >= 0


def test_span_cut_inside_open_is_dropped():
    tracer = spans.Tracer()
    request = tracer.begin_request(0)
    tracer.open(tracer._name_id("x"))
    tracer.start.append(1)  # a signal landed after open's first append
    tracer.end.append(0)
    tracer.end_request(request)
    assert len(tracer.start) == len(tracer.end) == len(tracer.name) == 2
    self_s, calls = tracer.layer_totals()
    assert calls == {"bench.request": 1, "x": 1}


# ---------------------------------------------------------------- checks


@pytest.fixture
def checker(tmp_path):
    return checks.Checker(tmp_path)


def test_candidate_count_check(checker):
    argv = ["transform", "--p", "6", *workloads.PAPER_SPLIT_LOT]
    req = {"cli": argv, "expect": 0, "check": ["candidates", {"count": 148}]}
    outcome = run_cli(argv)
    assert checker.check(req, outcome, Path()) is None
    data = json.loads(outcome["stdout"])
    data["candidates_tried"] = 147
    outcome["stdout"] = json.dumps(data)
    assert "147 candidates" in checker.check(req, outcome, Path())


def test_design_check_rejects_a_false_verification_flag(checker, tmp_path):
    out = tmp_path / "design"
    argv = ["construct", "--p", "6", *workloads.PAPER_SPLIT_LOT,
            "--coding", "pm1", "--out-dir", str(out)]
    req = {"cli": argv, "expect": 0, "check": ["design", {"stage_sizes": [7, 7, 7]}]}
    outcome = run_cli(argv)
    assert checker.check(req, outcome, out) is None
    verification = json.loads((out / "verification.json").read_text())
    verification["requirements_met"][1] = False
    (out / "verification.json").write_text(json.dumps(verification))
    assert "false flag" in checker.check(req, outcome, out)


def test_design_check_rejects_overlapping_stages(checker, tmp_path):
    out = tmp_path / "design"
    argv = ["construct", "--p", "6", *workloads.PAPER_SPLIT_LOT,
            "--coding", "01", "--out-dir", str(out)]
    req = {"cli": argv, "expect": 0, "check": ["design", {}]}
    outcome = run_cli(argv)
    payload = json.loads((out / "design.json").read_text())
    for key in ("points", "required", "basis"):
        payload["stages"][2][key] = payload["stages"][1][key]
    (out / "design.json").write_text(json.dumps(payload))
    assert "overlap" in checker.check(req, outcome, out)


def test_exit_code_and_exceptions_fail_the_request(checker):
    req = {"cli": ["spread", "--p", "6", "--t", "4"], "expect": 2, "check": ["refused", {}]}
    assert checker.check(req, run_cli(req["cli"]), Path()) is None
    assert "expected 2" in checker.check(req, {**run_cli(req["cli"]), "exit": 0}, Path())
    crashed = {"exit": None, "error": "uncaught ZeroDivisionError: x"}
    assert "ZeroDivisionError" in checker.check(req, crashed, Path())


@pytest.mark.parametrize("p,t,kind,flags", [(6, 3, "full", []), (6, 2, "full", ["--poly", "0x6d"]),
                                            (7, 3, "partial", ["--partial"])])
def test_spread_grid_check(checker, p, t, kind, flags):
    argv = ["spread", "--p", str(p), "--t", str(t), *flags]
    req = {"cli": argv, "expect": 0, "check": ["spread_grid", {"p": p, "t": t, "kind": kind}]}
    outcome = run_cli(argv)
    assert checker.check(req, outcome, Path()) is None
    rows = [line.split("\t") for line in outcome["stdout"].split("\n")]
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
    outcome["stdout"] = "\n".join("\t".join(r) for r in rows)
    assert "not a subspace" in checker.check(req, outcome, Path())


@pytest.mark.parametrize("spread", [spreads.cyclic_spread(6, 3), spreads.partial_spread(5, 2),
                                    spreads.mixed_spread(7, 4)], ids=["full", "partial", "mixed"])
def test_member_check_agrees_with_verify_spread(spread):
    t = spread.members[0].dim
    members = [set(m.point_masks) for m in spread.members]
    assert spreads.verify_spread(spread).ok
    assert checks.check_spread_members(spread.p, members, spread.kind, t) is None
    broken = spreads.Spread(spread.p, (spread.members[0],) + spread.members, spread.kind)
    assert not spreads.verify_spread(broken).ok
    assert checks.check_spread_members(spread.p, [members[0]] + members, spread.kind, t)


def test_mixed_check_counts_members(checker):
    spread = spreads.mixed_spread(7, 4)
    req = {"expect": 0, "check": ["mixed", {"p": 7, "t1": 4}]}
    assert checker.check(req, outcome_of(spread), Path()) is None
    short = spreads.Spread(7, spread.members[:-1], "mixed")
    assert "closed form" in checker.check(req, outcome_of(short), Path())


def test_feasible_check_pins_the_paper_tally(checker):
    tally = type("Tally", (), {"feasible": 197568, "total": 432180})
    req = {"expect": 0, "check": ["feasible", {"split": [1, 3, 2]}]}
    assert checker.check(req, outcome_of(tally), Path()) is None
    tally.feasible = 197567
    assert "pinned 197568" in checker.check(req, outcome_of(tally), Path())


def test_rank_check(checker, tmp_path):
    specs = workloads.rank_candidate_files(5)["candidates1.json"]
    (tmp_path / "c.json").write_text(json.dumps(specs))
    argv = ["rank", "--candidates", str(tmp_path / "c.json"), "--criterion", "clear-count"]
    req = {"cli": argv, "expect": 0, "check": ["rank", {"file": "c.json"}]}
    outcome = run_cli(argv)
    assert checker.check(req, outcome, Path()) is None
    ranked = json.loads(outcome["stdout"])
    ranked[0]["wlp"][3] += 1
    outcome["stdout"] = json.dumps(ranked)
    assert "word length pattern" in checker.check(req, outcome, Path())


@pytest.mark.parametrize("argv", [
    ["--t", "4"], ["--t", "5"], ["--stages", "3,3,3"], ["--stages", "2,3,5"],
    ["--stages", "6,7"], ["--stages", "4,4,4,4,4,4,4,4,4,4"], ["--t1", "7", "--t-list", "2,3"],
])
def test_exists_check_rejects_a_wrong_verdict_or_count(checker, argv):
    req = {"cli": ["exists", "--p", "10", *argv], "expect": 0, "check": ["exists", {}]}
    outcome = run_cli(req["cli"])
    assert checker.check(req, outcome, Path()) is None
    for key, value in (("verdict", "unknown-within-bounds"), ("min_overlap", 1),
                       ("guarantee", 3)):
        report = json.loads(outcome["stdout"])
        if report[key] in (value, None):
            continue
        report[key] = value
        assert checker.check(req, {**outcome, "stdout": json.dumps(report)}, Path())


def test_simulate_check_rejects_a_variance_off_by_many_errors(tmp_path):
    fixtures = tmp_path / "fixtures"
    run_cli([*workloads.SIMULATE_DESIGNS["p6"], "--out-dir", str(fixtures / "p6")])
    checker = checks.Checker(fixtures)
    out = tmp_path / "sim"
    argv = ["simulate", "--design", str(fixtures / "p6" / "design.json"), "--sigma2", "1.0",
            "--stage-var", "2.0", "--stage-var", "0.5", "--stage-var", "4.0",
            "--reps", "200", "--seed", "3", "--out-dir", str(out)]
    req = {"cli": argv, "expect": 0, "check": ["simulate", {"design": "p6"}]}
    outcome = run_cli(argv)
    assert checker.check(req, outcome, out) is None
    summary = json.loads((out / "summary.json").read_text())
    summary["groups"][0]["empirical_variance"] *= 2
    (out / "summary.json").write_text(json.dumps(summary))
    assert "standard errors" in checker.check(req, outcome, out)


# ---------------------------------------------------------------- command


def test_setup_clock_spreads_setups_and_keeps_the_first(tmp_path):
    import run

    before = {n: m for n, m in sys.modules.items() if run.RDCSS_MODULE.match(n)}
    try:
        clock = run.SetupClock("construct", 1, tmp_path, seconds=9.0)
        state, _ = clock.setup()
        clock.tick(0.5)
        assert len(clock.times) == 1
        clock.tick(4.0)
        assert len(clock.times) == 5
        clock.tick(100.0)
        assert len(clock.times) == run.SETUP_REPEATS["construct"] == 9
        assert sys.modules["rdcss.cli"] is state["cli"]
        assert [p.name for p in tmp_path.iterdir()] == ["fixtures0"]
    finally:
        sys.modules.update(before)



def test_speed_factor_scales_to_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.speed_factor([2 * ref, 2 * ref, 9 * ref]) == pytest.approx(0.5)
    assert hostspeed.speed_factor([ref / 2] * 4 + [ref]) == pytest.approx(2.0)
    assert len(hostspeed.probe()) == hostspeed.REPEATS
    assert all(t > 0 for t in hostspeed.probe())


def test_execute_scales_the_latency_by_the_probe(monkeypatch, tmp_path):
    import run

    ref = hostspeed.REFERENCE_S
    monkeypatch.setattr(hostspeed, "probe", lambda: [4 * ref] * hostspeed.REPEATS)
    req = {"id": 0, "deadline": 5.0, "cli": ["exists", "--p", "6", "--t", "3"]}
    outcome = run.execute(req, {"cli": cli}, tmp_path / "out", tmp_path)
    assert outcome["exit"] == 0
    assert outcome["scaled_s"] == pytest.approx(outcome["latency_s"] / 4)


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
