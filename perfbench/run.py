"""Run one benchmark workload of the rdcss toolkit and print its metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports rdcss from ``src/``.
One client sends requests in a closed loop in this one process: the next
request starts only after the previous one finished and its output was
checked.  Requests go through ``rdcss.cli.main`` in-process, and through
``collineation.count_feasible`` and ``spreads.mixed_spread``, which have no
command.  Each request has a deadline; a request past it is stopped by a
timer signal and counted failed.  Output checks run outside the timed
interval.  The loop runs whole rounds of the request stream (see
workloads.py) and stops after the round in which the timed intervals add up
to ``--seconds`` and at least 100 requests have finished.

Every time the metrics report is scaled to one reference speed of the host by
a probe timed around it (see hostspeed.py); the unscaled figures are printed
too.  With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run, in which each request
also runs once untraced to measure the tracing overhead.  Lines before the last
one give every metric with its unit, the failures and the machine.  The exit
code is 0 when every output check passed, 1 when one failed, 2 when the
checkout has no rdcss sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One client, one thread: BLAS must not start worker threads.  Set before
# numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per run, by workload; setup_s is their median.  Set-up that only
# imports takes under 0.1 s, so it can repeat more often.
SETUP_REPEATS = {"construct": 9, "simulate": 3, "analyze": 9}
RDCSS_MODULE = re.compile(r"rdcss(\.|$)")
# A run goes on until this many requests have finished, so that at least ten
# latencies lie beyond the 90th percentile.
MIN_FINISHED = 100


class DeadlineExceeded(BaseException):
    """Raised by the timer signal; a BaseException so no handler in rdcss catches it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


# ---------------------------------------------------------------- set-up


def import_rdcss():
    """Import rdcss afresh from the checkout's sources."""
    for name in [n for n in sys.modules if RDCSS_MODULE.match(n)]:
        del sys.modules[name]
    cli = importlib.import_module("rdcss.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "rdcss":
        raise ImportError(f"rdcss was imported from {cli.__file__}, not from this checkout")
    return cli


def build_design(argv: list[str], out_dir: Path) -> None:
    """Build a design with ``python -m rdcss.cli`` in a child process.

    A child keeps the build's memory out of this process's peak resident set,
    which then covers only the imports and the requests.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rdcss.cli", *argv, "--out-dir", str(out_dir)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    verification = out_dir / "verification.json"
    if proc.returncode != 0 or not checks.all_flags_true(json.loads(verification.read_text())):
        raise RuntimeError(f"set-up design {out_dir.name} failed to build and verify:\n"
                           f"{proc.stderr}")


def setup(workload: str, seed: int, fixtures: Path) -> dict:
    """Import rdcss and build what the workload's requests read."""
    cli = import_rdcss()
    fixtures.mkdir(parents=True)
    state = {"cli": cli}
    if workload == "simulate":
        for name, argv in workloads.SIMULATE_DESIGNS.items():
            build_design(argv, fixtures / name)
    elif workload == "analyze":
        for name, specs in workloads.rank_candidate_files(seed).items():
            (fixtures / name).write_text(json.dumps(specs))
        state["spread63"] = sys.modules["rdcss.spreads"].cyclic_spread(6, 3)
    return state


# ---------------------------------------------------------------- requests


def _resolve(arg: str, out_dir: Path, fixtures: Path) -> str:
    if arg == "@out":
        return str(out_dir)
    if arg.startswith("@fixture/"):
        return str(fixtures / arg[len("@fixture/"):])
    return arg


def _library_call(call: dict, state: dict):
    collineation = sys.modules["rdcss.collineation"]
    if call["fn"] == "mixed_spread":
        return sys.modules["rdcss.spreads"].mixed_spread(call["p"], call["t1"])
    effect = sys.modules["rdcss.geometry"].Effect
    requirements, i = [], 0
    for rank in call["split"]:
        words = tuple(effect(m, 6) for m in call["masks"][i:i + rank])
        requirements.append(collineation.StageRequirement(words))
        i += rank
    return collineation.count_feasible(state["spread63"], requirements)


def execute(req: dict, state: dict, out_dir: Path, fixtures: Path) -> dict:
    """Run one request under its deadline; the latency covers only the call.

    Garbage left by earlier requests is collected first, so no request pays
    for another's.  The host-speed probe runs before and after the call, and
    ``scaled_s`` is the latency scaled to the reference speed.
    """
    gc.collect()
    probes = hostspeed.probe()
    outcome = {"exit": None, "stdout": "", "stderr": "", "value": None,
               "error": None, "stopped": False, "latency_s": 0.0}
    argv = [_resolve(a, out_dir, fixtures) for a in req.get("cli", ())]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, req["deadline"])
    try:
        # The timer is cancelled inside the outer try, so a signal that lands
        # just as the call returns is still caught below.
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if "cli" in req:
                    outcome["exit"] = state["cli"].main(argv)
                else:
                    outcome["value"] = _library_call(req["call"], state)
                    outcome["exit"] = 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        outcome["exit"] = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except DeadlineExceeded:
        outcome["stopped"] = True
        outcome["error"] = f"stopped at its {req['deadline']} s deadline"
    except Exception as exc:  # an uncaught exception is a failed request
        outcome["error"] = f"uncaught {type(exc).__name__}: {exc}"
    outcome["latency_s"] = time.perf_counter() - start
    outcome["scaled_s"] = outcome["latency_s"] * hostspeed.speed_factor(
        probes + hostspeed.probe())
    outcome["stdout"], outcome["stderr"] = out.getvalue(), err.getvalue()
    return outcome


def bytes_written(outcome: dict, out_dir: Path) -> int:
    files = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()) \
        if out_dir.exists() else 0
    return len(outcome["stdout"].encode()) + len(outcome["stderr"].encode()) + files


def _untraced(req: dict, state: dict, out_dir: Path, fixtures: Path,
              tracer: spans.Tracer) -> dict:
    out_dir = out_dir.with_name(out_dir.name + "-untraced")
    tracer.uninstall()
    try:
        return execute(req, state, out_dir, fixtures)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer.install()


def execute_traced(req: dict, state: dict, out_dir: Path, fixtures: Path,
                   tracer: spans.Tracer) -> tuple[dict, float | None]:
    """Run the request traced, and once more untraced for the overhead.

    Which of the two runs first alternates.  Returns the traced outcome and
    the untraced scaled latency, None when either run was stopped at its
    deadline.
    """
    untraced = _untraced(req, state, out_dir, fixtures, tracer) if req["id"] % 2 else None
    span = tracer.begin_request(req["id"])
    outcome = execute(req, state, out_dir, fixtures)
    tracer.end_request(span)
    if untraced is None and not outcome["stopped"]:
        untraced = _untraced(req, state, out_dir, fixtures, tracer)
    if untraced is None or untraced["stopped"] or outcome["stopped"]:
        return outcome, None
    return outcome, untraced["scaled_s"]


class SetupClock:
    """Times the run's set-ups, spread evenly over its measured time.

    On a shared machine the CPU speed drifts over seconds, so set-ups taken
    back to back would all see one moment of it; spread out, they see the
    same machine as the requests.  The first set-up is the one the requests use.  Later ones
    import rdcss afresh and build their own files, which are then discarded:
    the requests keep the first set-up's modules.
    """

    def __init__(self, workload: str, seed: int, work: Path, seconds: float):
        self.workload, self.seed, self.work = workload, seed, work
        self.repeats = SETUP_REPEATS[workload]
        self.seconds = seconds
        self.times: list[float] = []  # scaled to the reference host speed
        self.wall_times: list[float] = []

    def setup(self) -> tuple[dict, Path]:
        fixtures = self.work / f"fixtures{len(self.times)}"
        probes = hostspeed.probe()
        start = time.perf_counter()
        state = setup(self.workload, self.seed, fixtures)
        wall = time.perf_counter() - start
        self.wall_times.append(wall)
        self.times.append(wall * hostspeed.speed_factor(probes + hostspeed.probe()))
        return state, fixtures

    def tick(self, timed: float) -> None:
        """Set up again if ``timed`` has passed the next share of the run."""
        while (len(self.times) < self.repeats
               and timed >= self.seconds * len(self.times) / self.repeats):
            live = {n: m for n, m in sys.modules.items() if RDCSS_MODULE.match(n)}
            _, fixtures = self.setup()
            sys.modules.update(live)
            shutil.rmtree(fixtures)


def run_loop(requests, seconds: float, state: dict, work: Path, fixtures: Path,
             checker: checks.Checker, tracer: spans.Tracer | None,
             clock: SetupClock) -> list[dict]:
    """Closed loop over whole rounds until the timed intervals reach ``seconds``.

    The run also goes on until ``MIN_FINISHED`` requests have finished.
    """
    records = []
    timed = 0.0
    finished = 0
    for req in requests:
        if (timed >= seconds and finished >= MIN_FINISHED
                and req["round"] != records[-1]["req"]["round"]):
            break
        clock.tick(timed)
        out_dir = work / f"r{req['id']}"
        if tracer:
            outcome, untraced_s = execute_traced(req, state, out_dir, fixtures, tracer)
        else:
            outcome, untraced_s = execute(req, state, out_dir, fixtures), None
        timed += outcome["latency_s"]
        finished += not outcome["stopped"]
        record = {"req": req, "latency_s": outcome["latency_s"],
                  "scaled_s": outcome["scaled_s"],
                  "stopped": outcome["stopped"], "untraced_s": untraced_s,
                  "bytes": bytes_written(outcome, out_dir)}
        try:
            record["reason"] = checker.check(req, outcome, out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            record["reason"] = f"unreadable output: {type(exc).__name__}: {exc}"
        record["known"] = record["reason"] is not None and checks.shows_known_defect(req, outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append(record)
    clock.tick(timed)
    return records


# ---------------------------------------------------------------- metrics


def summarize(records: list[dict], key: str = "scaled_s") -> dict:
    """Metrics over the records' ``key`` times: scaled, or ``latency_s`` for wall times."""
    timed = sum(r[key] for r in records)
    failed = [r for r in records if r["reason"] is not None]
    known = [r for r in failed if r["known"]]
    finished = sorted(r[key] for r in records if not r["stopped"])
    estimates = 0
    for r in records:
        if r["reason"] is None and r["req"]["cls"] == "simulate":
            argv, design = r["req"]["cli"], r["req"]["check"][1]["design"]
            estimates += int(argv[argv.index("--reps") + 1]) << int(design[1:])
    rounds: dict[int, list[dict]] = {}
    for r in records:
        rounds.setdefault(r["req"]["round"], []).append(r)
    # Every round holds the same mix, so the median over rounds shrugs off a
    # stretch of time in which the machine was busy elsewhere.
    rates = [sum(r["reason"] is None for r in rs) / sum(r[key] for r in rs)
             for rs in rounds.values()]
    return {
        "timed_s": timed,
        "attempted": len(records),
        "failed": failed,
        "known": known,
        "unexpected": [r for r in failed if not r["known"]],
        "requests_per_s": statistics.median(rates),
        "rounds": len(rates),
        "latency_p50_ms": 1e3 * float(np.percentile(finished, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(finished, 90)),
        "failed_ratio": len(failed) / len(records),
        "estimates_per_s": estimates / timed,
        "finished": len(finished),
    }


def report_failures(summary: dict) -> None:
    for r in summary["failed"]:
        req = r["req"]
        what = " ".join(req.get("cli", [])) or json.dumps(req["call"])
        tag = f"known defect {req['known_defect']}" if r["known"] else "FAILED"
        stream = sys.stdout if r["known"] else sys.stderr
        print(f"{tag}: request {req['id']} ({req['cls']}) {what}: {r['reason']}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.STREAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdcss" / "__init__.py").is_file():
        print(f"no rdcss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_deadline)
    try:
        clock = SetupClock(args.workload, args.seed, work, args.seconds)
        state, fixtures = clock.setup()
        requests = workloads.STREAMS[args.workload](args.seed)
        checker = checks.Checker(fixtures)
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            records = run_loop(requests, args.seconds, state, work, fixtures, checker, tracer,
                               clock)
        finally:
            if tracer:
                tracer.uninstall()
        summary = summarize(records)
        wall = summarize(records, "latency_s")

        print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} requests "
              f"in {summary['rounds']} rounds, {wall['timed_s']:.3f} s timed, "
              "one client, closed loop")
        print(f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
              f"numpy {np.__version__}, BLAS threads {blas_threads()}")
        by_class: dict[str, list[float]] = {}
        for r in records:
            by_class.setdefault(r["req"]["cls"], []).append(r["scaled_s"])
        print(f"host speed: {wall['timed_s'] / summary['timed_s']:.3f} times slower than "
              f"the reference over the timed intervals; unscaled requests_per_s "
              f"{wall['requests_per_s']:.4f} 1/s, latency_p50_ms {wall['latency_p50_ms']:.4f} ms, "
              f"latency_p90_ms {wall['latency_p90_ms']:.4f} ms, setup_s "
              f"{statistics.median(clock.wall_times):.4f} s")
        for cls, times in sorted(by_class.items()):
            print(f"class {cls}: {len(times)} requests, median "
                  f"{1e3 * statistics.median(times):.1f} ms, total {sum(times):.3f} s, scaled")
        report_failures(summary)
        print(f"failures: {len(summary['failed'])} of {summary['attempted']} "
              f"({len(summary['known'])} known defects, "
              f"{len(summary['unexpected'])} unexpected)")
        # A missed deadline counts as failed but is not a wrong output.
        correct = not any(not r["stopped"] for r in summary["unexpected"])

        if tracer:
            paired = [r for r in records if r["untraced_s"] is not None]
            overhead = sum(r["scaled_s"] for r in paired) / sum(r["untraced_s"] for r in paired)
            tracer.save(scratch / f"spans-{args.workload}.npz")
            layer = spans.per_layer_metrics(
                tracer, sum(r["bytes"] for r in records), overhead)
            for name, (value, unit) in layer.items():
                print(f"metric {name} {value} {unit}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
        else:
            end_to_end = {
                "requests_per_s": (summary["requests_per_s"], "1/s"),
                "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
                "latency_p90_ms": (summary["latency_p90_ms"], "ms"),
                "setup_s": (statistics.median(clock.times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            extra = {"failed_ratio": (summary["failed_ratio"], "ratio")}
            if args.workload == "simulate":
                extra["estimates_per_s"] = (summary["estimates_per_s"], "1/s")
            for name, (value, unit) in {**end_to_end, **extra}.items():
                print(f"metric {name} {value} {unit}")
            print(f"latency samples: {summary['finished']} finished requests")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in end_to_end.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": len(summary["unexpected"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
