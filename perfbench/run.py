"""cutforge benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload split --seed 0 --seconds 28 --trace 0

Run from the repository root (the directory holding ``src/cutforge`` and
``BENCHMARK.json``).  The workload's inputs come from ``--seed``; the job
list is timed through ``cutforge.cli.main(argv)`` in this process with
stdout captured, on the reference clock of ``refclock.py``, and every output
is checked after the timed region.  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import layers
import workloads
from refclock import ReferenceClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_ALIAS = "_cutforge_setup_probe"


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def set_up(workload, workdir, seed, tiny):
    """Import cutforge afresh and build every input the workload feeds."""
    for name in [m for m in sys.modules
                 if m == "cutforge" or m.startswith("cutforge.")]:
        del sys.modules[name]
    cf = importlib.import_module("cutforge")
    cli = importlib.import_module("cutforge.cli")
    jobs, warmup = workloads.BUILDERS[workload](cf, workdir, seed, tiny)
    return cf, cli, jobs, warmup


def probe_setup(clock, workload, workdir, seed, tiny):
    """Seconds for one more set-up, done between timed rounds: import the
    sources under a private alias (every module executes afresh; the
    ``cutforge`` the jobs use is left alone) and rebuild the inputs."""
    start = clock.now()
    spec = importlib.util.spec_from_file_location(
        PROBE_ALIAS, os.path.join(SRC, "cutforge", "__init__.py"),
        submodule_search_locations=[os.path.join(SRC, "cutforge")])
    cf = importlib.util.module_from_spec(spec)
    sys.modules[PROBE_ALIAS] = cf
    try:
        spec.loader.exec_module(cf)
        importlib.import_module(PROBE_ALIAS + ".cli")
        workloads.BUILDERS[workload](cf, workdir, seed, tiny)
        return clock.now() - start
    finally:
        for name in [m for m in sys.modules
                     if m == PROBE_ALIAS or m.startswith(PROBE_ALIAS + ".")]:
            del sys.modules[name]


def run_job(clock, cli, job):
    """Time one CLI call; returns (seconds, (rc, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock.now()
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "exception"
            err.write(traceback.format_exc())
        seconds = clock.now() - start
    return seconds, (rc, out.getvalue(), err.getvalue())


def timed_rounds(clock, cli, jobs, budget, after_round=None):
    """Run the whole job list round after round while another round still
    fits in ``budget`` wall seconds (at least one round).  Per job: its
    reference-clock times, one per round, and its distinct outputs in the
    order first seen, each with the number of rounds that gave it.  Only
    distinct outputs are kept, so the memory they hold, which peak_rss_mb
    sees, does not grow with the number of rounds."""
    times = [[] for _ in jobs]
    outputs = [collections.Counter() for _ in jobs]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, job in enumerate(jobs):
            gc.collect()
            seconds, result = run_job(clock, cli, job)
            times[i].append(seconds)
            outputs[i][result] += 1
        if after_round is not None:
            after_round()
        now = time.perf_counter()
        if (now - start) + (now - round_start) > budget:
            return times, outputs


def job_list_seconds(times):
    """Time to finish the job list: the sum over jobs of each job's median
    over rounds."""
    return sum(statistics.median(t) for t in times)


def verify(jobs, outputs):
    """(attempted, failed, first failure reasons) over the per-job counts of
    distinct outputs that ``timed_rounds`` returns; each distinct output is
    checked once."""
    attempted = failed = 0
    reasons = []
    for job, counts in zip(jobs, outputs):
        for result, count in counts.items():
            verdict = job.check(*result)
            attempted += count
            if verdict is not None:
                failed += count
                if len(reasons) < 5:
                    reasons.append("%s: %s" % (job.label, verdict))
    return attempted, failed, reasons


def src_lines():
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "cutforge")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def run(clock, workload, seed, seconds, traced, tiny, workdir,
        spans_path=None):
    """Set up, warm up, time, verify.  Returns (attempted, failed, reasons,
    metric values by name); times are read on ``clock``."""
    start = clock.now()
    cf, cli, jobs, warmup = set_up(workload, workdir, seed, tiny)
    setups = [clock.now() - start]
    if not cf.__file__.startswith(SRC + os.sep):
        raise RuntimeError("cutforge was imported from %s, not from %s"
                           % (cf.__file__, SRC))
    gc.collect()
    gc.freeze()
    run_job(clock, cli, warmup)

    if not traced:
        probe_dir = os.path.join(workdir, "probe")
        os.makedirs(probe_dir)

        def probe():
            setups.append(probe_setup(clock, workload, probe_dir, seed, tiny))
        times, outputs = timed_rounds(clock, cli, jobs, seconds,
                                      after_round=probe)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failed, reasons = verify(jobs, outputs)
        return attempted, failed, reasons, {
            "wall_s": job_list_seconds(times),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setups),
        }

    half = seconds / 2.0
    plain_times, plain_outputs = timed_rounds(clock, cli, jobs, half)
    tracer = layers.Tracer(clock.now)
    tracer.install()
    try:
        traced_times, traced_outputs = timed_rounds(
            clock, cli, jobs, half, after_round=tracer.end_round)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_spans(spans_path)

    attempted, failed, reasons = verify(
        jobs, [p + t for p, t in zip(plain_outputs, traced_outputs)])
    first_stdout = [next(iter(p))[1] for p in plain_outputs]
    for job, stdout, traced_runs in zip(jobs, first_stdout, traced_outputs):
        if any(result[1] != stdout for result in traced_runs):
            failed += 1
            reasons.append("%s: traced stdout differs from untraced"
                           % (job.label,))
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = sum(len(o.encode()) for o in first_stdout)
    metrics["trace.overhead_s"] = (job_list_seconds(traced_times)
                                   - job_list_seconds(plain_times))
    metrics["src.lines"] = src_lines()
    return attempted, failed, reasons, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; a traced run halves it between "
                             "the untraced and the traced pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (perfbench/tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cutforge", "__init__.py")):
        sys.stderr.write("perfbench: no cutforge sources under %s; run from "
                         "a checkout of the repository\n" % (SRC,))
        return 2
    contract = load_contract()
    sys.path.insert(0, SRC)
    tag = "%s-seed%d" % (args.workload, args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    spans_path = None
    if args.trace:
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        spans_path = os.path.join(outdir, "spans-%s.jsonl" % (tag,))
    try:
        with ReferenceClock() as clock:
            attempted, failed, reasons, values = run(
                clock, args.workload, args.seed, args.seconds,
                bool(args.trace), args.tiny, workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in reasons:
        sys.stderr.write("perfbench: FAILED %s\n" % (reason,))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
