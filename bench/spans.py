"""Span tracer that wraps the public functions of each `ears` module.

The tracer lives in the benchmark, not in the program: it replaces every
module binding of a traced function (and the class attribute of a traced
method) with a wrapper that records one span per call, and puts the
originals back on exit.  Spans are kept in memory as flat arrays
(function id, parent span, start, end); self time is a span's duration
minus the durations of its direct children.

A target that cannot be resolved raises LookupError, so a rename in the
program cannot silently unhook a layer.
"""

import importlib
import math
import sys
import time
from array import array

# layer -> (metric name, attribute path inside ears.<layer>)
TARGETS = {
    "linalg": [
        ("matmul", "Matrix.__matmul__"),
        ("reflection_matrix", "reflection_matrix"),
        ("reflect", "reflect"),
        ("pair", "AmbientSpace.pair"),
    ],
    "semilattice": [
        ("window", "Semilattice.window"),
        ("contains", "Semilattice.contains"),
        ("residue_table", "residue_table"),
        ("quotient_reps", "Lattice.quotient_reps"),
    ],
    "finite": [
        ("build_finite", "build_finite"),
        ("finite_weyl", "finite_weyl"),
    ],
    "core": [
        ("descriptor_from_config", "descriptor_from_config"),
        ("construct_ears", "construct_ears"),
        ("verify_axioms", "verify_axioms"),
        ("anisotropic_window", "EarsDescriptor.anisotropic_window"),
        ("classify", "EarsDescriptor.classify"),
        ("characterize", "characterize"),
        ("irc", "irc"),
        ("trim", "trim"),
    ],
    "weyl": [
        ("orbit_closed_form", "orbit_closed_form"),
        ("orbit_window", "OrbitDescriptor.window"),
        ("orbit_bfs", "orbit_bfs"),
        ("generation_check", "generation_check"),
        ("minimality", "minimality"),
        ("extract_minimal", "extract_minimal"),
        ("word_element", "word_element"),
    ],
    "presentation": [
        ("evaluate", "evaluate"),
        ("parity", "parity"),
        ("coxeter_presentation_decision", "coxeter_presentation_decision"),
        ("conjugation_obstruction", "conjugation_obstruction"),
    ],
    "cli": [
        ("main", "main"),
    ],
}

# counters taken from a call's arguments and result, beyond calls and time
EXTRA_COUNTERS = (
    "semilattice.window.points",
    "semilattice.window.box_points",
    "weyl.orbit_window.points",
    "weyl.orbit_bfs.points",
    "weyl.generation_check.decided",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, targets in TARGETS.items():
        for name, _ in targets:
            names += [f"{layer}.{name}.calls", f"{layer}.{name}.self_s"]
    names += [
        "semilattice.window.points",
        "semilattice.window_yield",
        "weyl.orbit_window.points",
        "weyl.orbit_bfs.points",
        "weyl.generation_check.decided_ratio",
    ]
    return names


def _observe_window(counts, args, result):
    sl, bound = args[0], args[1]
    counts["semilattice.window.points"] += len(result)
    counts["semilattice.window.box_points"] += (
        (2 * math.floor(bound) + 1) ** sl.ambient)


def _observe_len(key):
    def observe(counts, args, result):
        counts[key] += len(result)
    return observe


def _observe_generation(counts, args, result):
    if type(result).__name__ in ("Generates", "NotGenerates"):
        counts["weyl.generation_check.decided"] += 1


_OBSERVERS = {
    "semilattice.window": _observe_window,
    "weyl.orbit_window": _observe_len("weyl.orbit_window.points"),
    "weyl.orbit_bfs": _observe_len("weyl.orbit_bfs.points"),
    "weyl.generation_check": _observe_generation,
}


def _resolve(module, path):
    """(owner, attribute, current value) for a dotted path in a module."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            break
    if owner is None or attr not in vars(owner):
        raise LookupError(f"{module.__name__}.{path} no longer exists")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Context manager: while active, every traced call records a span."""

    def __init__(self):
        self.names = []
        self._targets = []
        for layer, targets in TARGETS.items():
            module = importlib.import_module(f"ears.{layer}")
            for name, path in targets:
                owner, attr, original = _resolve(module, path)
                self.names.append(f"{layer}.{name}")
                self._targets.append((owner, attr, original))
        self._saved = []
        self.reset()

    def reset(self):
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(EXTRA_COUNTERS, 0)

    def _wrap(self, fid, original, observe):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        counts = self.counts
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    def __enter__(self):
        self.reset()
        self._stack = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ears" or n.startswith("ears."))]
        for fid, (owner, attr, original) in enumerate(self._targets):
            wrapper = self._wrap(fid, original, _OBSERVERS.get(self.names[fid]))
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))
            if isinstance(owner, type):
                continue
            # a function imported by name into other modules has one binding
            # per module; each must be replaced or calls through it escape
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._saved.append((module, name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False

    def summary(self) -> dict:
        """Per-function calls and self time, plus the extra counters."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * n
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for span in range(len(fids)):
            dur = ends[span] - starts[span]
            f = fids[span]
            calls[f] += 1
            total[f] += dur
            p = parents[span]
            if p >= 0:
                child[fids[p]] += dur
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i] - child[i]
        out.update(self.counts)
        return out
