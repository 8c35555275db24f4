"""Run every workload on seeds 1-10 and record the spread of each metric.

    python3 bench/collect.py --out bench/baseline/seed.json

Run from the checkout root.  For each workload in BENCHMARK.json it makes
one untraced run per seed and one traced run (seed 1), then writes the
raw result lines, each end-to-end metric's median and quartiles, its
spread ((Q3 - Q1) / median) against its bound, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = round(time.monotonic() - started, 1)
    result["notes"] = proc.stdout.strip().splitlines()[:-1]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    model = ""
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run(name, seed, spec["run_seconds"], 0))
            print(name, seed, runs[-1]["run_s"], "s",
                  {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            summary[metric["name"]] = stats
            print(f"  {metric['name']}: median {stats['median']:.4f}"
                  f" spread {stats['spread']:.3f} (bound {metric['bound']})", flush=True)
        traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
