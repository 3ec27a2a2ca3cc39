"""Steadiness report: repeated benchmark runs of one commit.

    python3 perfbench/steadiness.py --workloads split,check --seeds 0-9
    python3 perfbench/steadiness.py --seeds 0-9 --sets 2

Runs ``perfbench/run.py`` once per (set, workload, seed), one process at a
time, with ``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.
For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the largest
spread (q3 - q1) / median over the sets next to the metric's bound, and,
with ``--sets 2``, how
far the second set's median moved from the first set's.  Raw results go to
``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s"
                         % (proc.returncode, " ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    raw = {}
    for s in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                start = time.perf_counter()
                result = one_run(workload, seed, args.seconds)
                elapsed = time.perf_counter() - start
                if not result["correct"]:
                    print("INCORRECT %s seed %d: %s" % (workload, seed, result))
                for name, m in result["metrics"].items():
                    raw.setdefault(workload, {}).setdefault(name, []).append(
                        [s, seed, m["value"]])
                print("set %d %s seed %d (%.1f s) %s" % (
                    s, workload, seed, elapsed,
                    {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}), flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print("%-10s %-14s %12s %12s %12s %8s %6s %8s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "drift"))
    for workload, metrics in raw.items():
        for name, rows in metrics.items():
            values = [v for _s, _seed, v in rows]
            med, q1, q3 = summary(values)
            spread = 0.0
            for s in range(args.sets):
                set_med, set_q1, set_q3 = summary(
                    [v for r, _, v in rows if r == s])
                if set_med:
                    spread = max(spread, (set_q3 - set_q1) / set_med)
            drift = ""
            if args.sets > 1:
                first = statistics.median(v for s, _, v in rows if s == 0)
                second = statistics.median(v for s, _, v in rows if s == 1)
                drift = "%+.3f" % ((second - first) / first if first else 0.0)
            bound = bounds.get(name)
            print("%-10s %-14s %12.6g %12.6g %12.6g %8.4f %6s %8s" % (
                workload, name, med, q1, q3, spread,
                "" if bound is None else bound, drift))


if __name__ == "__main__":
    main()
