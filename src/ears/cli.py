"""Command-line entry point.

Subcommands construct and verify root systems from JSON configs, compute
orbits and minimality verdicts with their certificates inline, report on
the two presentation questions, apply the trim and isotropic-closure
transforms, and re-run the bundled example computations against their
recorded outcomes.

Every call takes one path through `main`: the parser built at import reads
the flags, `main` checks them and `EARS_THREADS`, loads the descriptor from
`--in` (every command but `examples`), calls the command as a report
builder `(R, args) -> (report, exit code)`, and writes the report, with its
`meta` block, once.  Exit codes are a stable contract: 0 pass, 1 recorded
outcome mismatch, 2 constraint violation, 3 parse error, 4 internal error
(a failed re-check or an exceeded closure cap).
"""

import argparse
import json
import os
import sys

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
from .linalg import DimensionMismatch, Vector, reflection_matrix
from .presentation import (
    NoneFound,
    Obstruction,
    Yes,
    conjugation_obstruction,
    coxeter_presentation_decision,
    evaluate,
    witness_word,
)
from .semilattice import RankMismatch
from .weyl import (
    Minimal,
    NotMinimal,
    NotOverFinitePart,
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


def _load_descriptor(path: str | None) -> EarsDescriptor:
    if path is None:
        raise ParseError("this command needs --in with a JSON config")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    try:
        return descriptor_from_config(data)
    except ConstraintViolation:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, InvalidRank,
            RankMismatch, DimensionMismatch) as exc:
        raise ParseError(f"bad descriptor config: {exc}")


def _emit(report: dict, args, threads: int) -> None:
    report["meta"] = {
        "threads_cap": threads,
        "threads_used": 1,
        "window_bound": args.window,
        "search_depth": args.depth,
        "budget": args.budget,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.output_path}: {exc}")
    else:
        sys.stdout.write(text)


# -- subcommands: each builds its report from the loaded descriptor ----------


def cmd_construct(R: EarsDescriptor, args) -> tuple[dict, int]:
    return {"descriptor": descriptor_to_config(R), "label": R.label}, EXIT_OK


def cmd_verify(R: EarsDescriptor, args) -> tuple[dict, int]:
    report = verify_axioms(R, bound=args.window)
    return {
        "ok": report.ok,
        "caveat": f"verified on window {args.window}",
        "checks": [
            {"axiom": c.axiom, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }, EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_orbits(R: EarsDescriptor, args) -> tuple[dict, int]:
    if args.root is None:
        raise ParseError("orbits needs --root with comma-separated coordinates")
    try:
        orbit = orbit_closed_form(R, args.root)
    except (NotOverFinitePart, DimensionMismatch) as exc:
        raise ParseError(str(exc))
    return {
        "root": _vec_to_json(args.root),
        "base": _vec_to_json(orbit.base),
        "base_offset": _vec_to_json(orbit.base_offset),
        "finite_orbit": sorted(_vecs(orbit.finite_orbit)),
        "translation_lattice": _vecs(orbit.translation_lattice.rows),
        "window_members": _vecs(orbit.window(args.window)),
    }, EXIT_OK


def cmd_minimality(R: EarsDescriptor, args) -> tuple[dict, int]:
    verdict = minimality(R)
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
    return body, EXIT_OK


def cmd_presentation(R: EarsDescriptor, args) -> tuple[dict, int]:
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
    conj = conjugation_obstruction(R)
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
    return {"coxeter": cox_body, "conjugation": conj_body}, EXIT_OK


def cmd_trim(R: EarsDescriptor, args) -> tuple[dict, int]:
    try:
        out = trim(R)
    except NotBCType as exc:
        raise ConstraintViolation(str(exc))
    return {"descriptor": descriptor_to_config(out), "label": out.label}, EXIT_OK


def cmd_irc(R: EarsDescriptor, args) -> tuple[dict, int]:
    closed = irc(R)
    return {
        "descriptor": descriptor_to_config(closed),
        "label": closed.label,
        "isotropic": semilattice_to_config(closed.isotropic),
    }, EXIT_OK


def _example_goldens() -> list:
    """The bundled example computations with their recorded outcomes."""
    checks = []

    R2 = examples.nullity2_system()
    got = word_element(R2.space, witness_word(examples.nullity2_roots()).letters).matrix
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


def cmd_examples(R, args) -> tuple[dict, int]:
    checks = _example_goldens()
    ok = all(passed for _, passed, _ in checks)
    return {
        "ok": ok,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
    }, EXIT_OK if ok else EXIT_MISMATCH


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

_PARSER = argparse.ArgumentParser(
    prog="ears",
    description="exact computations with extended affine root systems",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--window", type=int, default=4, metavar="N",
                     help="max-norm bound for windowed checks (default 4)")
_PARSER.add_argument("--depth", type=int, default=8, metavar="N",
                     help="echoed in meta; bounds no decision (default 8)")
_PARSER.add_argument("--budget", type=int, default=1_000_000, metavar="N",
                     help="echoed in meta; bounds no decision (default 1e6)")
_PARSER.add_argument("--in", dest="input_path", metavar="PATH",
                     help="input JSON config")
_PARSER.add_argument("--out", dest="output_path", metavar="PATH",
                     help="output JSON report (default stdout)")
_PARSER.add_argument("--root", metavar="COORDS",
                     help="root coordinates, comma separated")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.window < 1 or args.depth < 1 or args.budget < 1:
            raise ParseError("--window, --depth and --budget must be positive")
        args.root = _parse_root(args.root) if args.root else None
        threads = _threads_cap()
        R = None if args.command == "examples" else _load_descriptor(args.input_path)
        report, code = _COMMANDS[args.command](R, args)
        _emit(report, args, threads)
        return code
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
