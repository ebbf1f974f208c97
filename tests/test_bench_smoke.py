"""The benchmark harness runs end to end on the decide workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_decide_smoke():
    cmd = [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
           "--seconds", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
    assert last["failed"] == 0
