"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Checks the metric names, units and JSON shape against BENCHMARK.json for
both modes, that every output check rejects a wrong output, that the
benchmark refuses to run where there are no cutforge sources, and that the
reference clock never runs backwards across its speed samples.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from refclock import PERIOD_S, ReferenceClock  # noqa: E402

WORKLOADS = ("split", "measure", "structure", "check")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_contract(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = contract()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_no_sources_is_an_error(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "split", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    import cutforge
    from cutforge import cli
    jobs = {}
    for name in WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        jobs[name] = workloads.BUILDERS[name](cutforge, str(workdir), 0, True)[0]
    return cli, jobs


def real_output(cli, job):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(job.argv))
    return rc, out.getvalue(), ""


def tamper(text):
    """Change the last digit of the output, or add a line if it has none."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return text + "extra\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_accept_real_and_reject_wrong_output(built, workload):
    cli, jobs = built
    for job in jobs[workload]:
        rc, out, err = real_output(cli, job)
        assert job.check(rc, out, err) is None, job.label
        assert job.check(rc, tamper(out), err) is not None, job.label
        assert job.check(1, out, err) is not None, job.label
        assert job.check(rc, out, "error: boom\n") is not None, job.label


def test_reference_clock_is_monotonic_across_samples():
    readings = []
    with ReferenceClock() as clock:
        end = time.perf_counter() + 6 * PERIOD_S
        while time.perf_counter() < end:
            readings.append(clock.now())
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > readings[0]
