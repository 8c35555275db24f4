"""lltlattice benchmark: jobs run one at a time in child interpreters.

    python3 bench/run.py --workload lattice-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  A *pass* runs the workload's fixed job list once, in an order
drawn anew from the seeded stream; a child interpreter runs ``PASSES`` of
them and empties the library's caches before each job.  A *round* runs one
such child on each CPU at once, pinned there: the CPUs of a shared host
slow down at different times, so each job's best time over both is
steadier than over one.  The number of rounds is ``--seconds`` over the
workload's budgeted round time (``ROUND_S``), rounded down, so it does not
depend on how fast the code runs; only a round that would end past
1.1 x ``--seconds`` is left out.  With ``--trace 1`` every child is traced;
the children give the per-layer metrics and the first one writes its spans
to ``bench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).  Metric definitions are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from workloads import PASSES, ROUND_S, WORKLOADS

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
OUT = BENCH / "out"
PROBES = 3                 # import-only children per run, for setup_s
RUN_LIMIT_S = 170          # the whole run, set-up included, ends before this
OVERRUN = 1.1              # no round starts that would end past 1.1 x --seconds
CHILD_LIMIT_S = 120        # also the latency charged to an op that failed


def tail(values: list[float]) -> float:
    """Highest percentile with at least 10 values beyond it; the maximum
    when there are fewer than 20 values."""
    ordered = sorted(values)
    return ordered[-1] if len(ordered) < 20 else ordered[-11]


class Runner:
    def __init__(self, root: Path, workload: str, deadline: float):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.cpus = sorted(os.sched_getaffinity(0))

    def child(self, jobs: list[dict], trace: bool, cpu: int | None = None) -> dict:
        """Run one child, pinned to ``cpu`` if given; on a crash or time-out
        every job in it fails."""
        spec = json.dumps({"workload": self.workload, "jobs": jobs, "trace": trace})
        limit = min(CHILD_LIMIT_S, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD)], cwd=self.root, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=None if cpu is None else partial(os.sched_setaffinity, 0, {cpu}),
        )
        out = None
        try:
            out, err = proc.communicate(spec, timeout=max(limit, 1))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:     # timed out, or this process is unwinding
                proc.kill()
                proc.communicate()
        if out is None:
            return {"ops": [{"id": j["id"], "s": CHILD_LIMIT_S, "error": "timed out"} for j in jobs]}
        if proc.returncode != 0:
            why = f"child exited {proc.returncode}: {err.strip()[-500:]}"
            return {"ops": [{"id": j["id"], "s": CHILD_LIMIT_S, "error": why} for j in jobs]}
        result = json.loads(out)
        result["setup_s"] = result["imported"] - spawned
        return result

    def round(self, orders: random.Random, trace: bool) -> list[dict]:
        """One child per CPU at once, each with the job list in its own order."""
        passes = WORKLOADS[self.workload]
        lists = [[job for _ in range(PASSES[self.workload]) for job in passes(orders)]
                 for _ in self.cpus]
        with ThreadPoolExecutor(len(self.cpus)) as pool:
            return list(pool.map(lambda jobs, cpu: self.child(jobs, trace, cpu), lists, self.cpus))


def op_times(rounds: list[list[dict]]) -> list[float]:
    """Each job's fastest latency over the rounds.

    On a shared host another tenant can slow every op for seconds at a
    time (whole rounds of 2-ms ops ran 1.75x slower); nothing makes an op
    faster, so the best time is the steadiest estimate of its cost.  An
    op that failed counts as taking ``CHILD_LIMIT_S``: it missed any limit.
    """
    best: dict[int, float] = {}
    for op in (op for rnd in rounds for child in rnd for op in child["ops"]):
        s = CHILD_LIMIT_S if op["error"] else op["s"]
        best[op["id"]] = min(best.get(op["id"], s), s)
    return list(best.values())


def end_to_end(rounds, setups, attempted, failed) -> dict:
    times = op_times(rounds)
    # The largest child this process has reaped, crashed or killed ones too.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (sum(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail(times) * 1e3, "ms"),
        "ok_ratio": (1 - failed / attempted, "1"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(child: dict) -> dict:
    """Per-layer metrics of one traced child."""
    summary = child.get("trace") or {"agg": {}, "counters": {}, "cli_runs": [],
                                     "span_count": 0, "span_cost_s": 0.0}
    agg = summary["agg"]                 # name -> [calls, total_s, self_s]
    counters = summary["counters"]
    cli_runs = summary["cli_runs"]
    spans = summary["span_count"]
    overhead_s = spans * summary["span_cost_s"]

    def pick(prefix: str, field: int):
        return sum(v[field] for k, v in agg.items() if k.startswith(prefix))

    calls = lambda prefix: pick(prefix, 0)  # noqa: E731
    busy = lambda prefix: pick(prefix, 2)   # noqa: E731
    m = {}
    m["lattice.calls"] = (calls("lattice."), "count")
    m["lattice.busy_s"] = (busy("lattice."), "s")
    m["lattice.configs"] = (counters.get("lattice.configs", 0), "count")
    m["lattice.result_terms"] = (counters.get("lattice.result_terms", 0), "count")
    m["lattice.configs_per_s"] = (_ratio(m["lattice.configs"][0], m["lattice.busy_s"][0]), "1/s")
    m["tableaux.calls"] = (calls("tableaux."), "count")
    m["tableaux.busy_s"] = (busy("tableaux."), "s")
    m["tableaux.tableaux"] = (counters.get("tableaux.tableaux", 0), "count")
    m["tableaux.tableaux_per_s"] = (_ratio(m["tableaux.tableaux"][0], m["tableaux.busy_s"][0]), "1/s")
    for op in ("mul", "add", "eval", "substitute", "truncate"):
        m[f"algebra.{op}_calls"] = (calls(f"algebra.{op}"), "count")
        m[f"algebra.{op}_busy_s"] = (busy(f"algebra.{op}"), "s")
    m["algebra.mul_term_pairs"] = (counters.get("algebra.mul_term_pairs", 0), "count")
    m["algebra.add_terms"] = (counters.get("algebra.add_terms", 0), "count")
    m["yangbaxter.calls"] = (calls("yangbaxter."), "count")
    m["yangbaxter.busy_s"] = (busy("yangbaxter."), "s")
    m["yangbaxter.boundaries"] = (counters.get("yangbaxter.boundaries", 0), "count")
    m["identities.calls"] = (calls("identities.verify_"), "count")
    m["identities.busy_s"] = (busy("identities."), "s")
    m["identities.kernel_busy_s"] = (pick("identities.cauchy_kernel_truncated", 1), "s")
    m["identities.llt_calls"] = (calls("identities.llt"), "count")
    m["identities.equalities"] = (counters.get("identities.equalities", 0), "count")
    sums = [sum(r["cases"]) for r in cli_runs]
    maxes = [max(r["cases"], default=0.0) for r in cli_runs]
    m["cli.cases"] = (sum(len(r["cases"]) for r in cli_runs), "count")
    m["cli.case_sum_s"] = (statistics.median(sums) if sums else 0.0, "s")
    m["cli.case_max_s"] = (statistics.median(maxes) if maxes else 0.0, "s")
    m["cli.critical_share"] = (
        statistics.median(_ratio(a, b) for a, b in zip(maxes, sums)) if sums else 0.0, "1")
    m["cli.overhead_s"] = (
        statistics.median(r["main_s"] - s for r, s in zip(cli_runs, sums)) if sums else 0.0, "s")
    m["trace.spans"] = (spans, "count")
    traced_wall = sum(op["s"] for op in child["ops"])
    m["trace.overhead_ratio"] = (_ratio(traced_wall, traced_wall - overhead_s), "1")
    return m


def write_spans(workload: str, seed: int, child: dict, metrics: dict):
    """Write the spans of one traced child, with the run's per-layer metrics."""
    OUT.mkdir(exist_ok=True)
    children = [{"child": 0, "names": child["trace"]["names"],
                 "spans": child["trace"]["spans"]}] if child.get("trace") else []
    path = OUT / f"trace-{workload}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "children": children}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "lltlattice" / "__init__.py").is_file():
        print("error: run from the root of an lltlattice checkout (no src/lltlattice)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, started + RUN_LIMIT_S)
    orders = random.Random(args.seed)

    warm = runner.child([], False)          # compiles bytecode; not a sample
    if "imported" not in warm:
        print(f"error: lltlattice does not import: {warm['ops']}", file=sys.stderr)
        return 2
    setups = [runner.child([], False)["setup_s"] for _ in range(PROBES)]

    wanted = max(1, int(args.seconds // ROUND_S))
    rounds: list[list[dict]] = []
    t0 = time.monotonic()
    while len(rounds) < wanted:
        # Only a host or a code slower than ROUND_S allows stops early,
        # so that a set of runs keeps to its time budget.
        mean = (time.monotonic() - t0) / len(rounds) if rounds else 0.0
        if rounds and time.monotonic() + mean > min(
                t0 + OVERRUN * args.seconds, started + RUN_LIMIT_S):
            break
        rounds.append(runner.round(orders, bool(args.trace)))
        setups += [child["setup_s"] for child in rounds[-1] if "setup_s" in child]
        for child in rounds[-1][1 if len(rounds) == 1 else 0:]:
            if child.get("trace"):
                del child["trace"]["spans"]     # only the first child's are written

    children = [child for rnd in rounds for child in rnd]
    all_ops = [op for child in children for op in child["ops"]]
    attempted = len(all_ops)
    failures = [op["error"] for op in all_ops if op["error"] is not None]
    for why in sorted(set(failures)):
        print(f"FAILED x{failures.count(why)}: {why}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}: {len(rounds)} of {wanted}"
          f" {'traced' if args.trace else 'untraced'} rounds of {len(runner.cpus)} children"
          f" in {time.monotonic() - t0:.1f} s, {len(all_ops) // len(children)} ops per child;"
          f" op_p50_ms and op_tail_ms over {len(op_times(rounds))} per-job best times,"
          f" setup_s over {len(setups)} children")
    if args.trace:
        layers = [per_layer(child) for child in children]
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        path = write_spans(args.workload, args.seed, children[0], metrics)
        print(f"spans of the first child in {path.relative_to(root)}")
    else:
        metrics = end_to_end(rounds, setups, attempted, len(failures))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
