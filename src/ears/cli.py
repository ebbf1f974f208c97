"""Command-line entry point.

Subcommands construct and verify root systems from JSON configs, compute
orbits and minimality verdicts with their certificates inline, report on
the two presentation questions, apply the trim and isotropic-closure
transforms, and re-run the bundled example computations against their
recorded outcomes.  Exit codes are a stable contract: 0 pass, 1 recorded
outcome mismatch, 2 constraint violation, 3 parse error, 4 internal error
(a failed re-check or an exceeded closure cap).
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .core import (
    ConstraintViolation,
    EarsDescriptor,
    NotBCType,
    _vec_to_json,
    descriptor_from_config,
    descriptor_to_config,
    irc,
    semilattice_to_config,
    trim,
    verify_axioms,
)
from .finite import InvalidRank
from .linalg import DimensionMismatch, Matrix, Vector, reflection_matrix
from .presentation import (
    No,
    NoneFound,
    Obstruction,
    Yes,
    conjugation_obstruction,
    coxeter_presentation_decision,
    evaluate,
)
from .semilattice import RankMismatch
from .weyl import (
    Generates,
    Minimal,
    NotMinimal,
    NotOverFinitePart,
    Unknown,
    minimality,
    orbit_closed_form,
    word_element,
)
from . import examples


class ParseError(ValueError):
    """Bad input: malformed JSON, wrong schema, or an unusable root."""


EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONSTRAINT = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    window_bound: int = 4
    search_depth: int = 8
    budget: int = 1_000_000
    root: Vector | None = None
    threads: int = 1


def _vecs(vs) -> list:
    return [_vec_to_json(v) for v in vs]


def _threads_cap() -> int:
    raw = os.environ.get("EARS_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ParseError(f"EARS_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ParseError(f"EARS_THREADS must be positive, got {n}")
    return n


def _parse_root(text: str) -> Vector:
    body = text.strip().lstrip("[").rstrip("]")
    try:
        return Vector([tok.strip() for tok in body.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad root {text!r}: {exc}")


def _load_config(cfg: RunConfig) -> dict:
    if cfg.input_path is None:
        raise ParseError("this command needs --in with a JSON config")
    try:
        with open(cfg.input_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {cfg.input_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {cfg.input_path}: {exc}")
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    return data


def _load_descriptor(cfg: RunConfig) -> EarsDescriptor:
    data = _load_config(cfg)
    try:
        return descriptor_from_config(data)
    except ConstraintViolation:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, InvalidRank,
            RankMismatch, DimensionMismatch) as exc:
        raise ParseError(f"bad descriptor config: {exc}")


def _emit(cfg: RunConfig, report: dict) -> None:
    report = dict(report)
    report["meta"] = {
        "threads_cap": cfg.threads,
        "threads_used": 1,
        "window_bound": cfg.window_bound,
        "search_depth": cfg.search_depth,
        "budget": cfg.budget,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {cfg.output_path}: {exc}")
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_construct(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    _emit(cfg, {"descriptor": descriptor_to_config(R), "label": R.label})
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    report = verify_axioms(R, bound=cfg.window_bound)
    _emit(cfg, {
        "ok": report.ok,
        "caveat": f"verified on window {cfg.window_bound}",
        "checks": [
            {"axiom": c.axiom, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    })
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_orbits(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    if cfg.root is None:
        raise ParseError("orbits needs --root with comma-separated coordinates")
    try:
        orbit = orbit_closed_form(R, cfg.root)
    except (NotOverFinitePart, DimensionMismatch) as exc:
        raise ParseError(str(exc))
    _emit(cfg, {
        "root": _vec_to_json(cfg.root),
        "base": _vec_to_json(orbit.base),
        "base_offset": _vec_to_json(orbit.base_offset),
        "finite_orbit": sorted(_vecs(orbit.finite_orbit)),
        "translation_lattice": _vecs(orbit.translation_lattice.rows),
        "window_members": _vecs(orbit.window(cfg.window_bound)),
    })
    return EXIT_OK


def cmd_minimality(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    verdict = minimality(R, depth=cfg.search_depth, budget=cfg.budget)
    if isinstance(verdict, Minimal):
        body = {"verdict": "Minimal", "orbit_count": verdict.orbit_count}
    elif isinstance(verdict, NotMinimal):
        body = {
            "verdict": "NotMinimal",
            "orbit_base": _vec_to_json(verdict.orbit.base),
            "orbit_translation_lattice": _vecs(
                verdict.orbit.translation_lattice.rows),
            "certificate": _vecs(verdict.certificate),
        }
    else:
        body = {"verdict": "Unknown", "unresolved": len(verdict.unresolved)}
    _emit(cfg, body)
    return EXIT_OK


def cmd_presentation(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    cox = coxeter_presentation_decision(R)
    if isinstance(cox, Yes):
        cox_body = {"answer": "yes", "nullity": cox.nullity}
    else:
        cox_body = {
            "answer": "no",
            "witness_roots": _vecs(cox.roots),
            "witness_word": _vecs(cox.word.letters),
            "evaluates_to_identity":
                evaluate(cox.word, R.space).matrix.is_identity(),
        }
    conj = conjugation_obstruction(R, depth=cfg.search_depth,
                                   budget=cfg.budget)
    if isinstance(conj, Obstruction):
        conj_body = {
            "status": "obstruction",
            "word": _vecs(conj.word.letters),
            "odd_orbits": _vecs(ob.base_offset for ob in conj.parity.support()),
            "evaluates_to_identity": conj.matrix.is_identity(),
        }
    elif isinstance(conj, NoneFound):
        conj_body = {"status": "none_found",
                     "orbits_checked": conj.orbits_checked}
    else:
        conj_body = {"status": "unknown", "unresolved": len(conj.unresolved)}
    _emit(cfg, {"coxeter": cox_body, "conjugation": conj_body})
    return EXIT_OK


def cmd_trim(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    try:
        out = trim(R)
    except NotBCType as exc:
        raise ConstraintViolation(str(exc))
    _emit(cfg, {"descriptor": descriptor_to_config(out), "label": out.label})
    return EXIT_OK


def cmd_irc(cfg: RunConfig) -> int:
    R = _load_descriptor(cfg)
    closed = irc(R)
    _emit(cfg, {
        "descriptor": descriptor_to_config(closed),
        "label": closed.label,
        "isotropic": semilattice_to_config(closed.isotropic),
    })
    return EXIT_OK


def _example_goldens() -> list:
    """The bundled example computations with their recorded outcomes."""
    checks = []

    R2 = examples.nullity2_system()
    a1, a2, a3 = examples.nullity2_roots()
    word12 = [a1, a2, a3, a1, a2, a3, a2, a1, a3, a2, a1, a3]
    got = word_element(R2.space, word12).matrix
    checks.append((
        "twelve-letter word evaluates to the identity",
        got.is_identity(),
        "identity" if got.is_identity() else f"got {got.rows}",
    ))

    kernel = examples.kernel_word_roots()
    m = word_element(R2.space, kernel).matrix
    restricted = all(
        m[i, j] == (1 if i == j else 0) for j in range(3) for i in range(5)
    )
    nontrivial = not m.is_identity()
    checks.append((
        "kernel word fixes the first three coordinates but not the space",
        restricted and nontrivial,
        f"restricted={restricted} nontrivial={nontrivial}",
    ))

    R3 = examples.nullity3_system()
    gamma = examples.removable_root()
    lhs = reflection_matrix(R3.space, gamma)
    rhs = word_element(R3.space, examples.certificate_word()).matrix
    checks.append((
        "seven reflections multiply to the removed reflection",
        lhs == rhs,
        "exact match" if lhs == rhs else "products differ",
    ))
    return checks


def cmd_examples(cfg: RunConfig) -> int:
    checks = _example_goldens()
    ok = all(passed for _, passed, _ in checks)
    _emit(cfg, {
        "ok": ok,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
    })
    return EXIT_OK if ok else EXIT_MISMATCH


_COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "orbits": cmd_orbits,
    "minimality": cmd_minimality,
    "presentation": cmd_presentation,
    "trim": cmd_trim,
    "irc": cmd_irc,
    "examples": cmd_examples,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ears",
        description="exact computations with extended affine root systems",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--window", type=int, default=4, metavar="N",
                        help="max-norm bound for windowed checks (default 4)")
    parser.add_argument("--depth", type=int, default=8, metavar="N",
                        help="word-search depth (default 8)")
    parser.add_argument("--budget", type=int, default=1_000_000, metavar="N",
                        help="group-element budget for searches (default 1e6)")
    parser.add_argument("--in", dest="input_path", metavar="PATH",
                        help="input JSON config")
    parser.add_argument("--out", dest="output_path", metavar="PATH",
                        help="output JSON report (default stdout)")
    parser.add_argument("--root", metavar="COORDS",
                        help="root coordinates, comma separated")
    return parser


def make_config(args) -> RunConfig:
    if args.window < 1 or args.depth < 1 or args.budget < 1:
        raise ParseError("--window, --depth and --budget must be positive")
    return RunConfig(
        command=args.command,
        input_path=args.input_path,
        output_path=args.output_path,
        window_bound=args.window,
        search_depth=args.depth,
        budget=args.budget,
        root=_parse_root(args.root) if args.root else None,
        threads=_threads_cap(),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        return _COMMANDS[cfg.command](cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
