"""Smoke tests for the benchmark: it runs and its checks pass, never how fast.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, trace=0, root=os.path.dirname(HERE)):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    return out, out.stdout.splitlines()


def _result(workload, seed, trace=0):
    out, lines = _run(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, [
        line for line in lines if line.startswith("# FAILED")]
    return result, lines


def test_traced_smoke_pass_matches_untraced():
    result, _ = _result("axioms", 1, trace=1)
    assert result["metrics"]["semilattice.window.calls"]["value"] > 0


def test_oracle_smoke_pass():
    result, _ = _result("oracle", 1)
    assert result["metrics"]["decided_share"]["value"] == 1


def test_second_seed_gives_same_verdicts():
    verdicts = []
    for seed in (1, 2):
        result, lines = _result("decide", seed)
        verdicts.append([line for line in lines if line.startswith("# verdicts")])
        assert 0 < result["metrics"]["decided_share"]["value"] < 1
    assert verdicts[0] == verdicts[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out, lines = _run("axioms", 1, root=str(tmp_path))
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in lines)
