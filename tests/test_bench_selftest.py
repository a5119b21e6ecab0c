"""The benchmark's tracer self-test, run as ``bench/run.py --trace 1`` runs
it: the self-test workload once under cProfile and once traced, each in a
fresh isolated interpreter.  A traced function that the package keeps but
the self-test never calls reads 0 under cProfile and is absent from the
trace, so the two count dicts differ and every traced benchmark run
reports ``correct: false``."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(ROOT, "bench", "job.py")


def run_job(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", JOB, json.dumps(spec)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_profile_and_trace_counts_agree():
    base = {"workload": "selftest", "seed": 1}
    profiled = run_job({**base, "mode": "profile"})
    traced = run_job({**base, "mode": "run", "trace": True})
    assert not profiled["failures"]
    assert not traced["failures"]
    assert profiled["counts"] == traced["counts"]
