"""End-to-end CLI checks driving main() with temp config files."""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import ears.weyl
from ears.cli import EXIT_CONSTRAINT, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, main
from ears.core import construct_ears, descriptor_to_config
from ears.examples import (
    bc1_double_fixture,
    integer_lattice,
    nullity2_system,
    nullity3_system,
)


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def nu2_config(tmp_path):
    return write_config(tmp_path / "nu2.json", descriptor_to_config(nullity2_system()))


@pytest.fixture()
def nu3_config(tmp_path):
    return write_config(tmp_path / "nu3.json", descriptor_to_config(nullity3_system()))


@pytest.fixture()
def bc1_config(tmp_path):
    return write_config(tmp_path / "bc1.json", descriptor_to_config(bc1_double_fixture()))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_construct(capsys, nu2_config):
    code, rep = run(capsys, "construct", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["label"] == "A1 nullity 2"
    assert rep["descriptor"]["S"]["cosets"] == [[0, 0], [0, 1], [1, 0]]
    assert rep["meta"]["window_bound"] == 4


def test_construct_deterministic(capsys, nu3_config):
    code1 = main(["construct", "--in", nu3_config])
    first = capsys.readouterr().out
    code2 = main(["construct", "--in", nu3_config])
    second = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert first == second


def test_verify_pass(capsys, nu2_config):
    code, rep = run(capsys, "verify", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["ok"] is True
    assert rep["caveat"] == "verified on window 4"
    assert len(rep["checks"]) == 8


def test_verify_window_one(capsys, nu2_config):
    code, rep = run(capsys, "verify", "--in", nu2_config, "--window", "1")
    assert code == EXIT_OK
    assert rep["ok"] is True
    assert rep["caveat"] == "verified on window 1"


def test_verify_window_artifact_reported_honestly(capsys, tmp_path):
    # 2Z translations put the smallest nonzero isotropic root at norm 2,
    # so a window-1 check cannot see a spanning set and must say so
    cfg = {
        "type": "A1",
        "rank": 1,
        "nullity": 1,
        "S": {"basis": [[2]], "cosets": [[0]], "translated": False},
    }
    path = write_config(tmp_path / "doubled.json", cfg)
    code, rep = run(capsys, "verify", "--in", path, "--window", "1")
    assert code == EXIT_MISMATCH
    failed = [c["axiom"] for c in rep["checks"] if not c["passed"]]
    assert failed == ["R3"]
    code, rep = run(capsys, "verify", "--in", path, "--window", "2")
    assert code == EXIT_OK


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", "--in", str(path)]) == EXIT_PARSE


def test_missing_input(capsys):
    assert main(["verify"]) == EXIT_PARSE


def test_unreadable_input(capsys, tmp_path):
    assert main(["verify", "--in", str(tmp_path / "absent.json")]) == EXIT_PARSE


def test_wrong_schema(capsys, tmp_path):
    path = write_config(tmp_path / "odd.json", {"type": "A1"})
    assert main(["construct", "--in", path]) == EXIT_PARSE


def test_zero_denominator_in_config_is_a_parse_error(capsys, tmp_path):
    # "1/0" is not a rational: exit 3 (parse), not 1 (an honest check failure)
    for where in ("cosets", "basis"):
        cfg = descriptor_to_config(nullity2_system())
        cfg["S"][where] = [[1, "1/0"]] + cfg["S"][where][1:]
        path = write_config(tmp_path / f"zero_{where}.json", cfg)
        assert main(["verify", "--in", path]) == EXIT_PARSE


@pytest.mark.parametrize("field, value", [
    ("translated", "false"),  # bool("false") would read it as true
    ("nullity", 1.5),
    ("nullity", True),
    ("rank", 1.9),
    ("S", [1]),  # a translation-set block must be a JSON object
    ("L", []),
    ("E", None),
])
def test_config_fields_are_checked_not_coerced(capsys, tmp_path, field, value):
    cfg = descriptor_to_config(nullity2_system())
    (cfg["S"] if field == "translated" else cfg)[field] = value
    path = write_config(tmp_path / "typed.json", cfg)
    assert main(["construct", "--in", path]) == EXIT_PARSE
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("where, value", [("basis", [[True]]), ("cosets", [[False]])])
def test_boolean_coordinate_is_a_parse_error(capsys, tmp_path, where, value):
    cfg = {"type": "A1", "nullity": 1,
           "S": {"basis": [[1]], "cosets": [[0], [1]], where: value}}
    path = write_config(tmp_path / "bool.json", cfg)
    assert main(["construct", "--in", path]) == EXIT_PARSE


def test_constraint_violation_exit(capsys, tmp_path):
    # long lattice 4Z fails long + 2*short inside long
    cfg = {
        "type": "B2",
        "rank": 2,
        "nullity": 1,
        "S": {"basis": [[1]], "cosets": [[0], [1]], "translated": False},
        "L": {"basis": [[4]], "cosets": [[0]], "translated": False},
    }
    path = write_config(tmp_path / "b2bad.json", cfg)
    assert main(["construct", "--in", path]) == EXIT_CONSTRAINT


def test_orbits(capsys, nu3_config):
    code, rep = run(
        capsys, "orbits", "--in", nu3_config, "--root", "1,1,1,1,0,0,0", "--window", "2"
    )
    assert code == EXIT_OK
    assert rep["root"] == [1, 1, 1, 1, 0, 0, 0]
    assert rep["translation_lattice"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert rep["finite_orbit"] == [[-1], [1]]
    assert [1, 1, 1, -1, 0, 0, 0] in rep["window_members"]


def test_orbits_requires_root(capsys, nu3_config):
    assert main(["orbits", "--in", nu3_config]) == EXIT_PARSE


def test_orbits_bad_root(capsys, nu3_config):
    assert main(["orbits", "--in", nu3_config, "--root", "1,2"]) == EXIT_PARSE
    assert main(["orbits", "--in", nu3_config, "--root", "1,x,1,1,0,0,0"]) == EXIT_PARSE
    # nonzero dual coordinates are outside the orbit domain
    assert main(["orbits", "--in", nu3_config, "--root", "1,1,1,1,1,0,0"]) == EXIT_PARSE


def test_minimality_not_minimal(capsys, nu3_config):
    code, rep = run(capsys, "minimality", "--in", nu3_config)
    assert code == EXIT_OK
    assert rep["verdict"] == "NotMinimal"
    assert rep["orbit_translation_lattice"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    # the inline certificate must actually write the removed reflection
    from fractions import Fraction

    from ears.examples import nullity3_system
    from ears.linalg import Vector, reflection_matrix
    from ears.weyl import word_element

    R = nullity3_system()
    word = [Vector(Fraction(c) for c in row) for row in rep["certificate"]]
    got = word_element(R.space, word).matrix
    base = Vector(Fraction(c) for c in rep["orbit_base"])
    assert got == reflection_matrix(R.space, base)


def test_failed_recheck_is_an_internal_error(capsys, monkeypatch, nu3_config):
    # a certificate that no longer multiplies to the removed reflection
    # fails weyl._check_certificate: exit 4 and one stderr line, not exit 1
    import ears.weyl
    from ears.linalg import Matrix
    from ears.weyl import GroupElement

    monkeypatch.setattr(ears.weyl, "word_element",
                        lambda space, letters: GroupElement(Matrix.identity(space.dim)))
    assert main(["minimality", "--in", nu3_config]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: certificate failed re-verification\n"


def test_exceeded_closure_cap_is_an_internal_error(capsys, monkeypatch, nu2_config):
    import ears.linalg

    monkeypatch.setattr(ears.linalg.closure, "__defaults__", (1,))
    assert main(["minimality", "--in", nu2_config]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: closure exceeded 1 states\n"


def test_overlong_certificate_is_an_internal_error(capsys, monkeypatch, nu3_config):
    # the first removable orbit's reflection and its 317-letter certificate
    # make a 318-letter word, one over the cap
    import ears.weyl

    monkeypatch.setattr(ears.weyl, "_WORD_CAP", 317)
    assert main(["minimality", "--in", nu3_config]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: a word of 318 letters exceeds the cap of 317\n"


def test_minimality_minimal(capsys, nu2_config):
    code, rep = run(capsys, "minimality", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["verdict"] == "Minimal"
    assert rep["orbit_count"] == 3


def test_presentation(capsys, nu2_config):
    code, rep = run(capsys, "presentation", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["coxeter"]["answer"] == "no"
    assert len(rep["coxeter"]["witness_word"]) == 12
    assert rep["coxeter"]["evaluates_to_identity"] is True
    assert rep["conjugation"] == {"status": "none_found", "orbits_checked": 3}


BENCH_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "configs")


def bench_config(name):
    return os.path.join(BENCH_CONFIGS, f"{name}.json")


def test_presentation_coxeter_yes(capsys):
    code, rep = run(capsys, "presentation", "--in", bench_config("A1_nu1_full"), "--budget", "200")
    assert code == EXIT_OK
    assert rep["coxeter"] == {"answer": "yes", "nullity": 1}
    assert rep["conjugation"] == {"status": "none_found", "orbits_checked": 2}


def test_presentation_conjugation_obstruction(capsys):
    code, rep = run(capsys, "presentation", "--in", bench_config("A1_nu3_full"), "--budget", "200")
    assert code == EXIT_OK
    assert rep["coxeter"]["answer"] == "no"
    assert rep["coxeter"]["evaluates_to_identity"] is True
    assert rep["conjugation"]["status"] == "obstruction"
    assert rep["conjugation"]["evaluates_to_identity"] is True
    assert len(rep["conjugation"]["odd_orbits"]) == 8


def test_undecided_orbits_are_reported_unknown(capsys, monkeypatch):
    path = bench_config("B2_nu2_matched")
    code, rep = run(capsys, "minimality", "--in", path, "--budget", "200")
    assert (code, rep["verdict"], rep["orbit_count"]) == (EXIT_OK, "Minimal", 5)
    code, rep = run(capsys, "presentation", "--in", path, "--budget", "200")
    assert rep["conjugation"] == {"status": "none_found", "orbits_checked": 5}
    # the congruence quotient decides four of its orbits; when it gives up,
    # as past its kernel cap, they are reported unresolved
    monkeypatch.setattr(ears.weyl, "_quotient_negative", lambda *args: None)
    code, rep = run(capsys, "minimality", "--in", path, "--budget", "200")
    assert code == EXIT_OK
    assert (rep["verdict"], rep["unresolved"]) == ("Unknown", 4)
    code, rep = run(capsys, "presentation", "--in", path, "--budget", "200")
    assert code == EXIT_OK
    assert rep["conjugation"] == {"status": "unknown", "unresolved": 4}


def test_quotient_decides_at_default_flags(capsys, monkeypatch):
    # every orbit is decided by the finite check or the quotient: no slice is tried
    calls = []
    decide = ears.weyl._slice_decision
    monkeypatch.setattr(ears.weyl, "_slice_decision", lambda *args: calls.append(args) or decide(*args))
    for name in ("B2_nu2_matched", "BC2_nu1"):
        code, rep = run(capsys, "minimality", "--in", bench_config(name))
        assert (code, rep["verdict"]) == (EXIT_OK, "Minimal"), name
    assert calls == []


@pytest.mark.parametrize("name", sorted(f[:-len(".json")] for f in os.listdir(BENCH_CONFIGS)))
def test_depth_and_budget_bound_nothing(capsys, name):
    # both flags are still accepted and echoed in meta, and nothing else in
    # a report reads them: the least values give the default flags' report
    for command in ("minimality", "presentation"):
        least = run(capsys, command, "--in", bench_config(name), "--depth", "1", "--budget", "1")
        default = run(capsys, command, "--in", bench_config(name))
        assert [least[1]["meta"].pop(k) for k in ("search_depth", "budget")] == [1, 1]
        assert [default[1]["meta"].pop(k) for k in ("search_depth", "budget")] == [8, 1_000_000]
        assert least == default, (name, command)


def test_nullity3_b2_is_decided_at_default_flags(capsys, tmp_path):
    # B2 over short Z^3, long 2Z^3: the slice of an orbit's line generates
    z3 = integer_lattice(3)
    path = write_config(tmp_path / "b2.json", descriptor_to_config(construct_ears("B2", z3, z3.scaled(2))))
    for command, want in (("minimality", "NotMinimal"), ("presentation", "obstruction")):
        outs = []
        for _ in range(2):
            start = time.process_time()
            assert main([command, "--in", path]) == EXIT_OK
            assert time.process_time() - start < 1, command
            outs.append(capsys.readouterr().out)
        rep = json.loads(outs[0])
        assert (rep["verdict"] if command == "minimality" else rep["conjugation"]["status"]) == want
        assert outs[0] == outs[1], command


def test_trim(capsys, bc1_config):
    code, rep = run(capsys, "trim", "--in", bc1_config)
    assert code == EXIT_OK
    assert rep["label"] == "A1 nullity 2"
    assert "E" not in rep["descriptor"]


def test_trim_rejects_non_bc(capsys, nu2_config):
    assert main(["trim", "--in", nu2_config]) == EXIT_CONSTRAINT


def test_irc(capsys, nu2_config):
    code, rep = run(capsys, "irc", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["label"] == "A1 nullity 2"
    # sums of the product-even semilattice fill the whole integer lattice
    from ears.core import semilattice_from_config
    from ears.examples import integer_lattice

    iso = semilattice_from_config(rep["isotropic"], 2)
    assert iso == integer_lattice(2)


def test_examples_golden_report(capsys):
    code, rep = run(capsys, "examples")
    assert code == EXIT_OK
    assert rep["ok"] is True
    assert len(rep["checks"]) == 3
    assert all(c["passed"] for c in rep["checks"])


def test_output_file(tmp_path, nu2_config):
    out = tmp_path / "report.json"
    assert main(["verify", "--in", nu2_config, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["ok"] is True


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_unwritable_output_is_a_parse_error(capsys, tmp_path, nu2_config, where):
    out = tmp_path / where
    assert main(["verify", "--in", nu2_config, "--out", str(out)]) == EXIT_PARSE
    assert f"cannot write {out}" in capsys.readouterr().err


def test_threads_env(capsys, monkeypatch, nu2_config):
    monkeypatch.setenv("EARS_THREADS", "7")
    code, rep = run(capsys, "construct", "--in", nu2_config)
    assert code == EXIT_OK
    assert rep["meta"]["threads_cap"] == 7
    assert rep["meta"]["threads_used"] == 1


@pytest.mark.parametrize("value", ["zero", "0", "-3"])
def test_threads_env_rejected(monkeypatch, nu2_config, value):
    monkeypatch.setenv("EARS_THREADS", value)
    assert main(["construct", "--in", nu2_config]) == EXIT_PARSE


def test_bad_flags(nu2_config):
    assert main(["verify", "--in", nu2_config, "--window", "0"]) == EXIT_PARSE
    assert main(["minimality", "--in", nu2_config, "--budget", "0"]) == EXIT_PARSE


def test_parser_is_built_once(capsys, monkeypatch, nu2_config):
    """main reuses the parser built when ears.cli was imported."""
    def refuse(*args, **kwargs):
        raise AssertionError("main built a new argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert run(capsys, "examples")[0] == EXIT_OK
    assert run(capsys, "verify", "--in", nu2_config, "--window", "1")[0] == EXIT_OK


def test_cli_imports_without_numpy():
    # the package has no runtime dependencies; a None entry blocks the import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = 'import sys; sys.modules["numpy"] = None; import ears.cli'
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_reports_identical_across_hash_seeds():
    """CLI reports are byte-for-byte deterministic: the same commands on two
    bench configs print the same bytes under two hash seeds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = []
    for name, coords in (("B2_nu2_product-even", "0,0,1,0,0,0"), ("A1_nu3_full", "0,0,0,1,0,0,0")):
        path = os.path.join(root, "bench", "configs", f"{name}.json")
        runs += [
            ["verify", "--in", path, "--window", "4"],
            ["orbits", "--in", path, "--window", "4", f"--root={coords}"],
            ["minimality", "--in", path, "--budget", "200"],
            ["presentation", "--in", path, "--budget", "200"],
        ]
    code = ("import json, sys\nfrom ears.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n    if main(argv):\n        sys.exit(f'exit code on {argv}')\n")
    src = os.path.join(root, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                              capture_output=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        outs.append(done.stdout)
    assert outs[0].count(b'"meta"') == len(runs)
    assert outs[0] == outs[1]
