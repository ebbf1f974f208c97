"""Output checks that do not trust the code under test.

Runs after each pass, outside the timed region.  Three kinds of reference:

- goldens: SHA-256 digests of every report, recorded once (record.py);
- known answers from the paper and the README;
- re-multiplication of certificate and identity words with the exact
  matrix product below, which uses only `fractions` and the Gram matrix
  of the system's ambient space, never `ears.linalg`.

Where a golden verdict is Unknown, a decided verdict is also accepted when
its certificate passes the re-multiplication (a Minimal verdict carries no
certificate and is accepted as is), so a later exact decider is not counted
as a failure.
"""

import hashlib
import json
from fractions import Fraction

UNDECIDED = ("Unknown", "unknown")


# -- exact matrix product of the benchmark's own ----------------------------


def _gram(desc) -> list:
    return [[Fraction(x) for x in row] for row in desc.space.form.gram.rows]


def _pair(gram, v, w) -> Fraction:
    n = len(v)
    return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n)
               if gram[i][j])


def _reflection(gram, a) -> list:
    """Matrix of v -> v - 2 (v, a) / (a, a) a, acting on column vectors."""
    n = len(a)
    norm = _pair(gram, a, a)
    ga = [sum(gram[i][j] * a[j] for j in range(n)) for i in range(n)]
    return [[Fraction(i == j) - 2 * a[i] * ga[j] / norm for j in range(n)]
            for i in range(n)]


def _product(x, y) -> list:
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _word(gram, letters) -> list:
    n = len(gram)
    m = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for a in letters:
        m = _product(m, _reflection(gram, a))
    return m


def _is_identity(m) -> bool:
    return all(m[i][j] == (i == j) for i in range(len(m)) for j in range(len(m)))


def _vec(raw) -> list:
    return [Fraction(x) for x in raw]


def _reflect(gram, a, v) -> list:
    c = 2 * _pair(gram, v, a) / _pair(gram, a, a)
    return [x - c * y for x, y in zip(v, a)]


# -- goldens ---------------------------------------------------------------------


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def golden_entry(op, outcome) -> dict:
    """What record.py stores for one operation."""
    entry = {"sha256": digest(outcome.report)}
    if op.command == "minimality":
        entry["verdict"] = json.loads(outcome.stdout)["verdict"]
    elif op.command == "presentation":
        body = json.loads(outcome.stdout)
        entry["verdict"] = body["conjugation"]["status"]
        entry["rest_sha256"] = digest(_without_conjugation(body))
    return entry


def _without_conjugation(body: dict) -> str:
    rest = {k: v for k, v in body.items() if k != "conjugation"}
    return json.dumps(rest, sort_keys=True)


# -- the checker -------------------------------------------------------------


class Checker:
    def __init__(self, workload, goldens: dict):
        self.goldens = goldens
        self.grams = {name: _gram(desc) for name, desc in workload.systems.items()}
        self.nullity = {name: desc.nullity for name, desc in workload.systems.items()}

    def problems(self, op, outcome) -> list[str]:
        """Everything wrong with one operation's outcome; empty when correct."""
        if outcome is None:
            return ["raised an exception"]
        check = getattr(self, "_" + op.command)
        found = check(op, outcome)
        if op.command != "relations":
            found += self._golden(op, outcome)
        return found

    def _golden(self, op, outcome) -> list[str]:
        entry = self.goldens.get(op.key)
        if entry is None:
            return ["no golden recorded"]
        if entry["sha256"] == digest(outcome.report):
            return []
        if entry.get("verdict") in UNDECIDED and outcome.code == 0:
            body = json.loads(outcome.stdout)
            if op.command == "minimality" and body["verdict"] != "Unknown":
                return []  # the certificate was re-multiplied in _minimality
            if (op.command == "presentation"
                    and body["conjugation"]["status"] != "unknown"
                    and digest(_without_conjugation(body)) == entry["rest_sha256"]):
                return []
        return ["report differs from the golden"]

    # per command: exit code, known answers, re-multiplied words

    def _exit(self, outcome, want) -> list[str]:
        if outcome.code != want:
            return [f"exit {outcome.code}, expected {want}"]
        return []

    def _verify(self, op, outcome):
        found = self._exit(outcome, 0)
        if not found and json.loads(outcome.stdout)["ok"] is not True:
            found.append("verify is not ok on window 4")
        return found

    def _transform(self, op, outcome):
        # trim is defined for BC types only; exit 2 elsewhere is the contract
        bc = op.system.startswith("BC")
        want = 2 if op.info["cmd"] == "trim" and not bc else 0
        return self._exit(outcome, want)

    def _orbits(self, op, outcome):
        return self._exit(outcome, 0)

    def _minimality(self, op, outcome):
        found = self._exit(outcome, 0)
        if found:
            return found
        body = json.loads(outcome.stdout)
        known = {"A1 nu3 full": "NotMinimal", "A1 nu3 product-even": "Minimal"}
        if op.system in known and body["verdict"] != known[op.system]:
            found.append(f"verdict {body['verdict']}, known {known[op.system]}")
        if body["verdict"] == "NotMinimal":
            gram = self.grams[op.system]
            word = _word(gram, [_vec(v) for v in body["certificate"]])
            if word != _reflection(gram, _vec(body["orbit_base"])):
                found.append("certificate does not multiply to the base reflection")
        return found

    def _presentation(self, op, outcome):
        found = self._exit(outcome, 0)
        if found:
            return found
        body = json.loads(outcome.stdout)
        gram = self.grams[op.system]
        cox = body["coxeter"]
        want = "yes" if self.nullity[op.system] < 2 else "no"
        if cox["answer"] != want:
            found.append(f"coxeter {cox['answer']}, known {want}")
        if cox["answer"] == "no" and not _is_identity(
                _word(gram, [_vec(v) for v in cox["witness_word"]])):
            found.append("coxeter witness word is not the identity")
        conj = body["conjugation"]
        if conj["status"] == "obstruction" and not _is_identity(
                _word(gram, [_vec(v) for v in conj["word"]])):
            found.append("obstruction word is not the identity")
        return found

    def _examples(self, op, outcome):
        found = self._exit(outcome, 0)
        if not found and json.loads(outcome.stdout)["ok"] is not True:
            found.append("examples are not ok")
        return found

    def _oracle(self, op, outcome):
        if outcome.code != 0:
            return ["orbit_bfs and orbit_closed_form disagree"]
        return []

    def _extract(self, op, outcome):
        body = json.loads(outcome.stdout)
        chain = body["removal_chain"]
        if len(chain) != 1:
            return [f"{len(chain)} removals, known 1"]
        gram = self.grams[op.system]
        base, cert = chain[0]
        if _word(gram, [_vec(v) for v in cert]) != _reflection(gram, _vec(base)):
            return ["removal certificate does not multiply to the base reflection"]
        return []

    def _relations(self, op, outcome):
        kind, a, b = op.info["kind"], op.info["a"], op.info["b"]
        gram = self.grams[op.system]
        a = list(a.coords)
        if kind == "line":
            letters = [a, [-x for x in a]]
        elif kind == "square":
            letters = [a, a]
        else:
            b = list(b.coords)
            letters = [a, b, a, _reflect(gram, a, b)]
        found = []
        if not _is_identity(_word(gram, letters)):
            found.append("relation word is not the identity")
        if outcome.stdout != f"{kind} identity=True even=True\n":
            found.append(f"relation reported {outcome.stdout.strip()!r}")
        return found
