"""The benchmark harness runs end to end on every workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke(workload, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
    assert last["failed"] == 0


def test_bench_axioms_smoke():
    _smoke("axioms")


def test_bench_axioms_traced_smoke():
    # axioms requires non-zero semilattice.contains, residue_table and window counters
    _smoke("axioms", "--trace", "1")


def test_bench_decide_smoke():
    _smoke("decide")


def test_bench_decide_traced_smoke():
    # a traced run is incorrect when a per-layer metric it requires reads zero
    _smoke("decide", "--trace", "1")


def test_bench_oracle_smoke():
    # the oracle workload runs orbit_bfs and characterize on the kernel
    _smoke("oracle")


def test_bench_oracle_traced_smoke():
    # oracle requires non-zero weyl.orbit_closed_form and generation_check counters
    _smoke("oracle", "--trace", "1")


# every operation of the axioms workload with an orbits call on every
# window-1 root, as the goldens were recorded, checked by the bench's checker
_CHECK_ALL_AXIOMS = """
import json, random, sys
sys.path[:0] = ["src", "bench"]
import check, fixtures, workloads
workload = workloads.build("axioms", random.Random(0), orbit_roots=None)
checker = check.Checker(workload, fixtures.load_goldens())
found = {op.key: checker.problems(op, op.call()) for op in workload.ops}
print(json.dumps({"ops": len(workload.ops), "problems": {k: v for k, v in found.items() if v}}))
"""


def test_bench_axioms_every_orbit_matches_goldens():
    done = subprocess.run([sys.executable, "-c", _CHECK_ALL_AXIOMS], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["ops"] == 378
    assert result["problems"] == {}


# Fraction constructions over one axioms pass, after a warm-up pass: 189,252
# with Fraction-coordinate Vectors, 1,556 before the root-string targets ran
# on integers; the bound keeps any new Fraction path off the axioms path
_COUNT_FRACTIONS = """
import fractions, json, random, sys
sys.path[:0] = ["src", "bench"]
import workloads
workload = workloads.build("axioms", random.Random(1))
for op in workload.ops:
    op.call()
calls = 0
new = fractions.Fraction.__new__
def counted(cls, *args, **kwargs):
    global calls
    calls += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counted
for op in workload.ops:
    op.call()
print(json.dumps({"ops": len(workload.ops), "fractions": calls}))
"""


def test_axioms_pass_builds_few_fractions():
    done = subprocess.run([sys.executable, "-c", _COUNT_FRACTIONS], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["ops"] == 156
    assert result["fractions"] <= 1_556, result


# The oracle's 300 relation ops, run twice on one workload.  The first pass
# builds the class lattice of the nullity-two system's one class once (one
# HNF) and the second builds none.  Fraction constructions in the second
# pass: 5,048 when every letter built its class lattice, a Fraction half and
# a Fraction key for its orbit; 376 with orbits named on integers, all from
# reflect.  The bound is a tenth of the first.  A descriptor loaded from a
# config has built no class lattice, so loading one per operation costs none.
_COUNT_RELATION_WORK = """
import fractions, json, random, sys
sys.path[:0] = ["src", "bench"]
import fixtures, workloads
from ears import semilattice
fresh = sum(len(R._lattices) for R in fixtures.load_suite()[0].values())
workload = workloads.build("oracle", random.Random(1))
ops = [op for op in workload.ops if op.command == "relations"]
hnfs = 0
hnf = semilattice._hnf_int
def counted_hnf(*args):
    global hnfs
    hnfs += 1
    return hnf(*args)
semilattice._hnf_int = counted_hnf
for op in ops:
    op.call()
first, hnfs = hnfs, 0
calls = 0
new = fractions.Fraction.__new__
def counted(cls, *args, **kwargs):
    global calls
    calls += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counted
for op in ops:
    op.call()
classes = len(workload.systems["A1 nu2 product-even"].dot_classes)
print(json.dumps({"ops": len(ops), "fresh": fresh, "classes": classes,
                  "hnfs": [first, hnfs], "fractions": calls}))
"""


def test_oracle_relations_name_orbits_by_lookup():
    done = subprocess.run([sys.executable, "-c", _COUNT_RELATION_WORK], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["ops"], result["fresh"]) == (300, 0), result
    assert result["hnfs"] == [result["classes"], 0], result
    assert result["fractions"] <= 504, result
