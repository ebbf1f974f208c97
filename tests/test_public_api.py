"""The names ears/__init__.py imports are the package's public surface."""

import ast
import re
from pathlib import Path

import pytest

import ears
from ears.examples import nullity2_system
from ears.linalg import sorted_vectors
from ears.presentation import parity
from ears.weyl import orbit_closed_form

PUBLIC = [
    "AmbientSpace", "AxiomReport", "CharacterizeReport", "ConstraintViolation",
    "DimensionMismatch", "EarsDescriptor", "FiniteRootSystem", "FiniteWeylGroup",
    "Generates", "GeneratorWord", "GroupElement", "Inconclusive", "Infinite",
    "InvalidRank", "IsotropicRoot", "Lattice", "Matrix", "Minimal", "No",
    "NoneFound", "NotARelation", "NotAnOrbit", "NotBCType", "NotGenerates",
    "NotMinimal", "NotOverFinitePart", "Obstruction", "OrbitDescriptor",
    "ParityVector", "RankMismatch", "Semilattice", "Stuck", "Undetermined",
    "Unknown", "UnknownRoot", "Vector", "WrongArity", "Yes",
    "anisotropic_orbits", "build_finite", "characterize",
    "conjugation_obstruction", "conjugation_relation", "conjugation_rewrite",
    "construct_ears", "coroot", "coxeter_order", "coxeter_presentation_decision",
    "descriptor_from_config", "descriptor_to_config", "evaluate",
    "extract_minimal", "finite_weyl", "generation_check",
    "invariant_generating_subsets", "irc", "irc_window", "is_root",
    "length_classes", "line_relation", "minimality", "orbit_bfs",
    "orbit_closed_form", "orbit_id", "parity", "preserves_form", "reflect",
    "reflection_matrix", "square_relation", "trim", "vec", "verify_axioms",
    "verify_semilattice", "witness_word", "word_element",
]


def test_public_names_are_pinned():
    tree = ast.parse(Path(ears.__file__).read_text())
    names = sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    assert names == PUBLIC
    for name in names:
        assert hasattr(ears, name), name


def test_modules_use_every_import():
    """Each module of the package uses every name it imports; __init__.py
    re-exports its imports and is exempt, as is `from __future__`."""
    unused = []
    for path in sorted(Path(ears.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_functions_read_every_parameter():
    """Each parameter of a package function or method is read (as a loaded
    Name) in its body, so no call takes a value that bounds nothing.
    Dunders and lambdas are exempt, as are cli's cmd_* report builders,
    which share one signature through _COMMANDS."""
    unread = []
    for path in sorted(Path(ears.__file__).parent.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("__") and f.name.endswith("__"):
                continue
            if path.name == "cli.py" and f.name.startswith("cmd_"):
                continue
            a = f.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            read = {n.id for stmt in f.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{f.lineno} {f.name}({p})" for p in params if p not in read]
    assert unread == []


def test_every_member_has_a_caller():
    """Each function and method of the package is named in it (as a Name or an
    Attribute), is public, is a dunder, or is named in bench/*.py after a
    space, dot or quote, which is how bench/spans.py traces members."""
    trees = [(p.name, ast.parse(p.read_text())) for p in sorted(Path(ears.__file__).parent.glob("*.py"))]
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for _, tree in trees for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    bench = "\n".join(p.read_text() for p in sorted((Path(__file__).parents[1] / "bench").glob("*.py")))
    members = []
    for file, tree in trees:
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        members += [(file, methods.get(id(f)), f.name) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    orphans = [f"{file}:{owner + '.' if owner else ''}{name}" for file, owner, name in members
               if name not in named and name not in PUBLIC
               and not (name.startswith("__") and name.endswith("__"))
               and not re.search(rf"[ .\"']{name}\b", bench)]
    assert orphans == []


def test_set_layout_stays_behind_semilattice():
    """No module but semilattice.py names box_points or residue_table (as a
    Name, an Attribute or an import), so how a set is held as integers and
    queried stays behind Semilattice.points and Semilattice.contains."""
    hidden = {"box_points", "residue_table"}
    found = []
    for path in sorted(Path(ears.__file__).parent.glob("*.py")):
        if path.name == "semilattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in hidden]
    assert found == []


def test_values_share_one_contract():
    """Only linalg.Value defines __setattr__, and no subclass of Value but
    Vector (whose hash must equal hash(coords)) defines __eq__ or __hash__:
    each names what it compares in _identity, and Value compares and
    hashes that."""
    found = []
    for path in sorted(Path(ears.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
            banned = {"__setattr__"} if cls.name != "Value" else set()
            if cls.name != "Vector" and any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases):
                banned |= {"__eq__", "__hash__"}
            found += [f"{path.name}:{cls.lineno} {cls.name}.{name}" for name in sorted(defined & banned)]
    assert found == []


def _root(R):
    return sorted_vectors(R.anisotropic_window(1))[0]


# one value of each Value subclass, read off a suite system
VALUES = {
    "Vector": _root,
    "Matrix": lambda R: R.space.form.gram,
    "BilinearForm": lambda R: R.space.form,
    "AmbientSpace": lambda R: R.space,
    "Lattice": lambda R: R.class_lattice("short"),
    "Semilattice": lambda R: R.translations["short"],
    "EarsDescriptor": lambda R: R,
    "OrbitDescriptor": lambda R: orbit_closed_form(R, _root(R)),
    "ParityVector": lambda R: parity((_root(R),), R),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_values_are_immutable_and_compare_by_content(name):
    a, b = (VALUES[name](nullity2_system()) for _ in range(2))
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    slot = type(a).__slots__[0]
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(a, slot, getattr(b, slot))
