"""The three workloads, as lists of operations.

An operation is one closed-loop request: a call of `ears.cli.main` with the
report captured, or a call of the public library functions.  Every call goes
through a module attribute at call time, so the span tracer sees it.

- axioms: windowed enumeration traffic (verify, construct, irc, trim and
  orbits on every suite config).
- decide: group-search traffic (minimality and presentation on every suite
  config at one fixed budget, plus examples).
- oracle: library traffic on the int-tuple and membership paths (windowed
  orbit cross-check, minimal extraction, random relations).
"""

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

from ears import cli, core, examples, presentation, weyl

from fixtures import check_suite, config_path, load_suite

WORKLOADS = ("axioms", "decide", "oracle")

AXIOM_WINDOW = 4
ORBIT_ROOTS_PER_CONFIG = 6
DECIDE_FLAGS = ["--budget", "200", "--depth", "8"]
ORACLE_WINDOW = 2
BFS_ORBITS = 2  # orbits per system that orbit_bfs re-derives, picked by the seed
RELATIONS = 300
RELATION_WINDOW = 2


@dataclass(frozen=True)
class Outcome:
    """What an operation returned: report text and exit code."""

    stdout: str
    stderr: str = ""
    code: int = 0

    @property
    def report(self) -> str:
        return f"{self.stdout}\0{self.stderr}\0{self.code}"


@dataclass(frozen=True)
class Op:
    key: str  # unique within the workload; also the golden's key
    command: str  # per-command time bucket
    call: Callable[[], Outcome]
    system: str | None = None  # suite name the operation runs on
    info: dict = field(default_factory=dict)


def coords_text(v) -> str:
    return ",".join(str(x) for x in v.coords)


def _cli(argv) -> Callable[[], Outcome]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return Outcome(out.getvalue(), err.getvalue(), code)
    return call


def verdict_of(op: Op, outcome: Outcome):
    """(decided, verdict) for a verdict-bearing operation, else None."""
    if op.command == "extract":
        return True, f"{len(json.loads(outcome.stdout)['removal_chain'])} removal(s)"
    if op.command not in ("verify", "minimality", "presentation"):
        return None
    body = json.loads(outcome.stdout)
    if op.command == "verify":
        return True, f"ok={body['ok']}"
    if op.command == "minimality":
        return body["verdict"] != "Unknown", body["verdict"]
    status = body["conjugation"]["status"]
    return status != "unknown", f"{body['coxeter']['answer']}/{status}"


# -- inputs -------------------------------------------------------------------


def load_inputs(workload: str):
    """The workload's systems: the checked suite configs, or the library
    systems the oracle workload calls into."""
    if workload in ("axioms", "decide"):
        return load_suite()
    if workload == "oracle":
        return (examples.orbit_oracle_cases(), examples.nullity3_system(),
                examples.nullity2_system())
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Workload:
    ops: list
    systems: dict  # name -> descriptor, for the checker


def build(name: str, rng, orbit_roots=ORBIT_ROOTS_PER_CONFIG) -> Workload:
    """The workload's operations; rng picks roots, orbits and relations.

    orbit_roots is the number of window-1 roots per config that get an
    orbits call (None: every one, which is what the goldens cover)."""
    if name == "oracle":
        return _oracle(*load_inputs(name), rng)
    suite, configs = load_inputs(name)
    check_suite(suite, configs)
    if name == "axioms":
        return _axioms(suite, rng, orbit_roots)
    return _decide(suite)


def _axioms(suite, rng, orbit_roots) -> Workload:
    ops = []
    for name, desc in suite.items():
        path = config_path(name)
        ops.append(Op(f"verify:{name}", "verify",
                      _cli(["verify", "--in", path, "--window", str(AXIOM_WINDOW)]),
                      name))
        for cmd in ("construct", "irc", "trim"):
            ops.append(Op(f"{cmd}:{name}", "transform", _cli([cmd, "--in", path]),
                          name, {"cmd": cmd}))
        roots = desc.anisotropic_window(1)
        if orbit_roots is not None:
            roots = rng.sample(roots, min(orbit_roots, len(roots)))
        for root in roots:
            text = coords_text(root)
            # "--root=" keeps argparse from reading a leading minus as a flag
            ops.append(Op(f"orbits:{name}:{text}", "orbits",
                          _cli(["orbits", "--in", path, "--window",
                                str(AXIOM_WINDOW), f"--root={text}"]),
                          name))
    return Workload(ops, suite)


def _decide(suite) -> Workload:
    ops = []
    for name in suite:
        path = config_path(name)
        for cmd in ("minimality", "presentation"):
            ops.append(Op(f"{cmd}:{name}", cmd,
                          _cli([cmd, "--in", path] + DECIDE_FLAGS), name))
    ops.append(Op("examples", "examples", _cli(["examples"])))
    return Workload(ops, suite)


def _oracle(cases, nullity3, nullity2, rng) -> Workload:
    ops = []
    for name, system in cases.items():
        count = len(weyl.anisotropic_orbits(system))
        picks = set(rng.sample(range(count), min(BFS_ORBITS, count)))
        ops.append(Op(f"xcheck:{name}", "oracle", _cross_check(system, picks), name))
    ops.append(Op("extract", "extract", _extract(nullity3), "A1 nu3 full"))
    roots = nullity2.anisotropic_window(RELATION_WINDOW)
    for i in range(RELATIONS):
        kind = rng.choice(("line", "square", "conjugation"))
        a = rng.choice(roots)
        b = rng.choice(roots) if kind == "conjugation" else None
        ops.append(Op(f"relation:{i}", "relations", _relation(nullity2, kind, a, b),
                      "A1 nu2 product-even", {"kind": kind, "a": a, "b": b}))
    systems = dict(cases)
    systems["A1 nu3 full"] = nullity3
    systems["A1 nu2 product-even"] = nullity2
    return Workload(ops, systems)


def _cross_check(system, picks) -> Callable[[], Outcome]:
    """Partition the window into closed-form orbits; from the orbits whose
    index is in picks, require the BFS to return exactly the closed-form
    window.  The report is the partition, which the seed does not change."""
    def call():
        remaining = set(system.anisotropic_window(ORACLE_WINDOW))
        lines, bad = [], 0
        while remaining:
            alpha = min(remaining, key=lambda v: v.coords)
            members = set(weyl.orbit_closed_form(system, alpha).window(ORACLE_WINDOW))
            if alpha not in members or not members <= remaining:
                bad += 1
            remaining -= members
            if len(lines) in picks and weyl.orbit_bfs(system, alpha, ORACLE_WINDOW) != members:
                bad += 1
            listed = " ".join(sorted(coords_text(v) for v in members))
            lines.append(f"{coords_text(alpha)} {len(members)}: {listed}")
        return Outcome("\n".join(lines) + "\n", code=1 if bad else 0)
    return call


def _extract(system) -> Callable[[], Outcome]:
    # extract_minimal re-checks the extracted window with characterize itself
    def call():
        ext = weyl.extract_minimal(system)
        body = {
            "descriptor": core.descriptor_to_config(ext),
            "removal_chain": [
                [[str(x) for x in base], [[str(x) for x in v] for v in cert]]
                for base, cert in ext.removal_chain
            ],
        }
        return Outcome(json.dumps(body, sort_keys=True) + "\n")
    return call


def _relation(system, kind, a, b) -> Callable[[], Outcome]:
    space = system.space

    def call():
        if kind == "line":
            word = presentation.line_relation(a, -a)
        elif kind == "square":
            word = presentation.square_relation(a)
        else:
            word = presentation.conjugation_relation(space, a, b)
        identity = presentation.evaluate(word, space).matrix.is_identity()
        even = presentation.parity(word, system).is_zero()
        return Outcome(f"{kind} identity={identity} even={even}\n")
    return call
