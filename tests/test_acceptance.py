"""End-to-end acceptance run.

One test per criterion, all driven by the seeded check suites so the gate
exercises exactly the code the `check` command replays.  Criteria that carry
a wall-clock budget assert it; criteria 4-6 share one set of sieve runs, with
the build time charged to criterion 4.  conftest prints a PASS/FAIL line per
criterion after the run.
"""

import subprocess
import sys
import time

import pytest

from cutforge.checks import (
    check_corner_dichotomy,
    check_crossing_subadditivity,
    check_double_dual,
    check_end_counts,
    check_engine_agreement,
    check_measure_identities,
    check_pipeline_signatures,
    check_sieve_soundness,
    check_translation_identity,
    check_tree_invariants,
    sieve_artifacts,
)

SEED = 0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sieve_runs():
    artifacts, dt = _timed(sieve_artifacts, SEED)
    return artifacts, dt


def test_criterion_01_measure_identities():
    n, dt = _timed(check_measure_identities, SEED)
    assert n == 800
    assert dt < 30.0


def test_criterion_02_engine_agreement():
    n, dt = _timed(check_engine_agreement, SEED)
    assert n == 800
    assert dt < 60.0


def test_criterion_03_crossing_subadditivity():
    n, dt = _timed(check_crossing_subadditivity, SEED)
    assert n >= 100
    assert dt < 30.0


def test_criterion_04_sieve_soundness(sieve_runs):
    artifacts, build = sieve_runs
    assert len(artifacts) == 100
    n, dt = _timed(check_sieve_soundness, artifacts)
    assert n >= 100
    assert build + dt < 300.0


def test_criterion_05_corner_dichotomy(sieve_runs):
    artifacts, _build = sieve_runs
    assert check_corner_dichotomy(artifacts) > 0


def test_criterion_06_tree_invariants(sieve_runs):
    artifacts, _build = sieve_runs
    assert check_tree_invariants(artifacts) > 0


def test_criterion_07_double_dual():
    n, dt = _timed(check_double_dual, SEED)
    assert n >= 50
    assert dt < 10.0


def test_criterion_08_translation_identity():
    assert check_translation_identity(SEED) > 0


def test_criterion_09_end_counts():
    n, dt = _timed(check_end_counts)
    assert n > 0
    assert dt < 60.0


def test_criterion_10_pipeline_signatures():
    n, dt = _timed(check_pipeline_signatures)
    assert n > 0
    assert dt < 120.0


def test_criterion_11_check_determinism():
    cmd = [sys.executable, "-m", "cutforge", "check", "--suite", "all",
           "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
    assert first.stderr == b"" and second.stderr == b""
