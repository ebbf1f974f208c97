"""The ears benchmark: seeded closed-loop workloads, timed and checked.

    python3 bench/run.py --workload axioms|decide|oracle --seed N \
        --seconds S --trace 0|1 [--smoke]

One client in one process, no threads: each operation starts when the
previous one has returned.  A run repeats passes over the workload's
operations until --seconds have elapsed (one pass with --smoke), checks
every output after each pass outside the timed region, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer ones (calls and self time per traced function), after checking
that traced and untraced reports are byte-identical.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

COLD_STARTS = 9

# per-layer metrics that must be non-zero on a workload, so that a rename in
# the program cannot silently unhook a layer the workload is meant to move
REQUIRED = {
    "axioms": [
        "semilattice.window.calls", "semilattice.contains.calls",
        "semilattice.residue_table.calls", "semilattice.window.points",
        "finite.build_finite.calls",
        "core.descriptor_from_config.calls", "core.construct_ears.calls",
        "core.verify_axioms.calls", "core.anisotropic_window.calls",
        "core.classify.calls", "core.irc.calls", "core.trim.calls",
        "weyl.orbit_closed_form.calls", "weyl.orbit_window.calls",
        "weyl.orbit_window.points", "cli.main.calls",
    ],
    "decide": [
        "linalg.matmul.calls",
        "linalg.reflection_matrix.calls", "linalg.reflect.calls",
        "linalg.pair.calls", "finite.build_finite.calls",
        "finite.finite_weyl.calls",
        "weyl.generation_check.calls", "weyl.minimality.calls",
        "weyl.word_element.calls", "weyl.generation_check.decided_ratio",
        "presentation.evaluate.calls",
        "presentation.coxeter_presentation_decision.calls",
        "presentation.conjugation_obstruction.calls", "cli.main.calls",
    ],
    "oracle": [
        "linalg.matmul.calls", "linalg.reflection_matrix.calls",
        "linalg.reflect.calls", "linalg.pair.calls",
        "finite.build_finite.calls",
        "core.construct_ears.calls", "core.characterize.calls",
        "core.anisotropic_window.calls", "core.classify.calls",
        "weyl.orbit_closed_form.calls", "weyl.orbit_window.calls",
        "weyl.orbit_bfs.calls", "weyl.orbit_bfs.points",
        "weyl.extract_minimal.calls", "weyl.generation_check.calls",
        "weyl.word_element.calls",
        "presentation.evaluate.calls", "presentation.parity.calls",
    ],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("axioms", "decide", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass and one cold start; checks, never speed")
    return p.parse_args(argv)


def cold_start_s(workload: str, repeats: int) -> list[float]:
    """Times of fresh interpreters that import ears.cli and load the
    workload's inputs, in nominal seconds.  One untimed start first fills
    the bytecode cache."""
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), workload]
    times = []
    for i in range(repeats + 1):
        log = speed.SpeedLog()
        log.sample_for(speed.WINDOW_S / 10)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        t1 = time.perf_counter()
        log.sample_for(speed.WINDOW_S / 10)
        if i:
            times.append(log.scaled(t0, t1))
    return times


def run_pass(ops, rng, checker, tracer=None) -> dict:
    """One pass in a seeded order; outputs are checked after the clock stops.

    Latencies are in nominal seconds (see speed.py); raw_s is the pass's
    wall time as the host ran it."""
    order = list(ops)
    rng.shuffle(order)
    outcomes, spans_at = {}, {}
    log = speed.SpeedLog()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in order:
            log.maybe_sample()
            s = time.perf_counter()
            try:
                outcomes[op.key] = op.call()
            except Exception as exc:  # a failed operation; the run goes on
                print(f"# {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
                outcomes[op.key] = None
            spans_at[op.key] = (s, time.perf_counter())
        raw_s = time.perf_counter() - t0
        log.sample()
    latency = {key: log.scaled(s, e) for key, (s, e) in spans_at.items()}
    problems = {}
    for op in ops:
        found = checker.problems(op, outcomes[op.key])
        if found:
            problems[op.key] = found
    return {"pass_s": sum(latency.values()), "raw_s": raw_s, "outcomes": outcomes,
            "latency": latency, "problems": problems,
            "spans": tracer.summary() if tracer is not None else None}


def source_id() -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the program's sources (a checkout without .git has no commit)."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ears")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, ops, setup) -> dict:
    import workloads

    latencies = [p["latency"][op.key] * 1000 for p in passes for op in ops]
    verdicts = [workloads.verdict_of(op, p["outcomes"][op.key])
                for p in passes for op in ops
                if p["outcomes"][op.key] is not None]
    decided = [v[0] for v in verdicts if v is not None]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_p90": (quantile(latencies, 90), "ms"),
        "decided_share": (sum(decided) / len(decided), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_command(passes, ops) -> dict:
    """Median over passes of each command's summed operation time."""
    commands = sorted({op.command for op in ops})
    out = {}
    for cmd in commands:
        sums = [sum(p["latency"][op.key] for op in ops if op.command == cmd)
                for p in passes]
        out[f"{cmd}_s"] = statistics.median(sums)
    return out


def per_layer(traced, untraced) -> dict:
    import spans

    summaries = [p["spans"] for p in traced]
    first = summaries[0]
    out = {}
    for name in spans.metric_names():
        if name.endswith(".self_s"):
            out[name] = (statistics.median(s[name] for s in summaries), "s")
        elif name == "semilattice.window_yield":
            box = first["semilattice.window.box_points"]
            out[name] = (first["semilattice.window.points"] / box if box else 0.0, "ratio")
        elif name == "weyl.generation_check.decided_ratio":
            n = first["weyl.generation_check.calls"]
            out[name] = (first["weyl.generation_check.decided"] / n if n else 0.0, "ratio")
        else:
            out[name] = (first[name], "count")
    out["trace_overhead"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in untraced), "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ears", "cli.py")):
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import numpy

    import check
    import fixtures
    import spans
    import workloads

    rng = random.Random(args.seed)
    setup = [] if args.trace else cold_start_s(args.workload, 1 if args.smoke else COLD_STARTS)
    workload = workloads.build(args.workload, rng)
    checker = check.Checker(workload, fixtures.load_goldens())
    tracer = spans.Tracer() if args.trace else None

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload.ops, rng, checker))
        if tracer is not None:
            traced.append(run_pass(workload.ops, rng, checker, tracer))
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break

    passes = untraced + traced
    problems = {}
    for p in passes:
        for key, found in p["problems"].items():
            problems.setdefault(key, found)
    attempted = len(passes) * len(workload.ops)
    failed = sum(len(p["problems"]) for p in passes)
    notes = []
    if tracer is not None:
        for t, u in zip(traced, untraced):
            for key, outcome in t["outcomes"].items():
                other = u["outcomes"][key]
                if (outcome is None) != (other is None) or (
                        outcome is not None and outcome.report != other.report):
                    notes.append(f"{key}: traced report differs from untraced")
                    failed += 1
        metrics = per_layer(traced, untraced)
        counts = [{k: v for k, v in t["spans"].items() if not k.endswith(".self_s")}
                  for t in traced]
        if any(c != counts[0] for c in counts):
            notes.append("call counts differ between traced passes")
        for name in REQUIRED[args.workload]:
            if not metrics[name][0]:
                notes.append(f"{name} is zero on {args.workload}")
    else:
        metrics = end_to_end(untraced, workload.ops, setup)

    record = dict(source_id(), workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, passes=len(untraced),
                  ops_per_pass=len(workload.ops),
                  python=platform.python_version(), numpy=numpy.__version__,
                  nproc=os.cpu_count())
    print("# run " + json.dumps(record, sort_keys=True))
    verdicts = {}
    for op in workload.ops:
        outcome = untraced[0]["outcomes"][op.key]
        verdict = None if outcome is None else workloads.verdict_of(op, outcome)
        if verdict is not None:
            verdicts[op.key] = verdict[1]
    print("# verdicts " + json.dumps(verdicts, sort_keys=True))
    for key, found in sorted(problems.items()):
        print(f"# FAILED {key}: {'; '.join(found)}")
    for note in notes:
        print(f"# FAILED {note}")
    if not args.trace:
        for name, value in per_command(untraced, workload.ops).items():
            print(f"# {name} = {value:.4f} s (median of {len(untraced)} passes)")
        print(f"# failed_share = {failed}/{attempted}")
        print(f"# op latency samples = {len(untraced) * len(workload.ops)}")
        print("# passes_s = " + " ".join(f"{p['pass_s']:.3f}" for p in untraced))
        print("# raw_passes_s = " + " ".join(f"{p['raw_s']:.3f}" for p in untraced))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": not problems and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
