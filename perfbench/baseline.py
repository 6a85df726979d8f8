"""Run every workload over several seeds and summarize the spread of each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads construct,simulate] [--write]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, with
the ``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles and the quartile spread as a share of the median,
next to a third of the metric's bound, then makes one traced run with the
first seed and names the five largest self times.  With ``--write`` it stores
the result, the machine and the git revision in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload in names:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seed_list(args.seeds)]
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            rows[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                            "spread": spread, "values": values}
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{workload:10s} {metric:16s} median {statistics.median(values):12.4f} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f} "
                  f"(bound/3 {bound / 3:.4f}){flag}", flush=True)
            print("    " + " ".join(f"{v:.4g}" for v in values), flush=True)
        traced = run_once(workload, seed_list(args.seeds)[0], spec["run_seconds"], trace=1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        busiest = sorted((v, k) for k, v in layers.items() if k.endswith("self_s"))[::-1][:5]
        print(f"{workload:10s} traced: overhead {layers['trace.overhead_ratio']:.3f}, largest self "
              "times " + ", ".join(f"{k} {v:.2f} s" for v, k in busiest), flush=True)
        result[workload] = {
            "seeds": seed_list(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": rows,
            "traced": layers,
        }
    if args.write:
        out = {
            "git_revision": git_revision(),
            "machine": {
                "cpus": os.cpu_count(),
                "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": run.BLAS_THREADS,
                "probe_reference_s": run.hostspeed.REFERENCE_S,
            },
            "run_seconds": spec["run_seconds"],
            "workloads": result,
        }
        (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
