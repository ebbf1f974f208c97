"""The benchmark harness runs end to end on every workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
    assert last["failed"] == 0


def test_bench_axioms_smoke():
    _smoke("axioms")


def test_bench_decide_smoke():
    _smoke("decide")


def test_bench_oracle_smoke():
    # the oracle workload runs orbit_bfs and characterize on the kernel
    _smoke("oracle")
