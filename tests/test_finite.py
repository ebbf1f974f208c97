import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ears import finite
from ears.core import _as_finite, descriptor_from_config, descriptor_to_config, trim, verify_axioms
from ears.finite import (
    FiniteRootSystem,
    InvalidRank,
    NotIrreducible,
    _classify_subset,
    _closure_from_simples,
    build_finite,
    closure,
    finite_weyl,
    invariant_generating_subsets,
    length_classes,
)
from ears.linalg import BilinearForm, Matrix, Vector, line_key, span_rank, vec
from ears.weyl import _finite_closure


# orders of the reflection groups, frozen from the classification
WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24,
    ("B", 2): 8, ("B", 3): 48, ("C", 3): 48,
    ("G", 2): 12,
    ("BC", 1): 2, ("BC", 2): 8, ("BC", 3): 48,
    ("D", 4): 192, ("F", 4): 1152,
}


@pytest.mark.parametrize("sym,rank", sorted(WEYL_ORDERS))
def test_weyl_group_orders(sym, rank):
    system = build_finite(sym, rank)
    assert finite_weyl(system).order == WEYL_ORDERS[(sym, rank)]


def test_root_counts():
    assert len(build_finite("A", 2).roots) == 6
    assert len(build_finite("B", 2).roots) == 8
    assert len(build_finite("G", 2).roots) == 12
    assert len(build_finite("BC", 1).roots) == 4
    assert len(build_finite("BC", 2).roots) == 12


def test_cartan_integers_are_integral():
    system = build_finite("G", 2)
    for a in system.roots:
        for b in system.roots:
            c = system.cartan_int(a, b)
            assert c.denominator == 1
            assert -3 <= c <= 3


def test_reflection_permutes_roots():
    system = build_finite("B", 2)
    for a in system.roots:
        image = {system.reflect(a, b) for b in system.roots}
        assert image == set(system.roots)


def test_length_classes_partition():
    short, long_, extra = length_classes(build_finite("BC", 2))
    assert len(short) == 4 and len(long_) == 4 and len(extra) == 4
    assert {v * 2 for v in short} == set(extra)
    short_a, long_a, extra_a = length_classes(build_finite("A", 2))
    assert len(short_a) == 6 and not long_a and not extra_a


def test_invalid_rank_rejected():
    with pytest.raises(InvalidRank):
        build_finite("BC", 0)
    with pytest.raises(InvalidRank):
        build_finite("E", 9)
    with pytest.raises(InvalidRank):
        build_finite("Z", 2)


# frozen from a brute-force enumeration over all unions of length classes
INVARIANT_SUBSETS = {
    ("BC", 1): ["BC1", "A1", "A1"],
    ("BC", 2): ["BC2", "B2", "B2"],
    ("BC", 3): ["BC3", "B3", "C3"],
    ("B", 2): ["B2"],
    ("C", 3): ["C3"],
    ("A", 2): ["A2"],
    ("G", 2): ["G2"],
}


@pytest.mark.parametrize("sym,rank", sorted(INVARIANT_SUBSETS))
def test_invariant_generating_subsets(sym, rank):
    system = build_finite(sym, rank)
    subs = invariant_generating_subsets(system)
    assert [t for t, _ in subs] == INVARIANT_SUBSETS[(sym, rank)]
    whole = set(system.roots)
    for _, roots in subs:
        assert roots <= whole
        for a in roots:
            assert {system.reflect(a, b) for b in roots} == set(roots)


@pytest.mark.parametrize("sym,rank", sorted(INVARIANT_SUBSETS))
def test_invariant_generating_subsets_one_generator_per_line(sym, rank, monkeypatch):
    # r and -r give the same reflection, so each line enters the closure once
    calls = []
    reflection_closure = finite.reflection_closure

    def spy(system, roots):
        letters, tree = reflection_closure(system, roots)
        calls.append(list(letters.values()))
        return letters, tree

    monkeypatch.setattr(finite, "reflection_closure", spy)
    system = build_finite(sym, rank)
    subs = invariant_generating_subsets(system)
    assert [t for t, _ in subs] == INVARIANT_SUBSETS[(sym, rank)]
    lines = {line_key(r) for r in system.roots}
    assert max(len(gens) for gens in calls) == len(lines)
    for gens in calls:
        assert len({line_key(r) for r in gens}) == len(gens)


def test_bc1_subset_members():
    system = build_finite("BC", 1)
    subs = dict()
    for label, roots in invariant_generating_subsets(system):
        subs.setdefault(label, []).append(roots)
    assert set(subs["A1"][0]) in ({vec(1), vec(-1)}, {vec(2), vec(-2)})
    assert len(subs["A1"]) == 2


# -- integer tables against the Fraction form ---------------------------------
#
# The references below are the Fraction implementations the tables replaced:
# pairings through the form, the root closure and finite orbits as BFS over
# Vectors, and generation as a closure of reflection matrices.

TABLE_TYPES = sorted(WEYL_ORDERS) + [("E", 6)]


def reference_cartan(system, a, b):
    return 2 * system.form.evaluate(a, b) / system.form.evaluate(b, b)


def reference_reflect(system, alpha, v):
    return v - alpha * reference_cartan(system, v, alpha)


def reference_closure_from_simples(simples, form):
    def refl(alpha, v):
        c = 2 * form.evaluate(v, alpha) / form.evaluate(alpha, alpha)
        return v - alpha * c

    roots = set(simples) | {-s for s in simples}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for s in simples:
                w = refl(s, v)
                if w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return frozenset(roots)


def reference_finite_orbit(system, dot):
    seen = {dot}
    frontier = [dot]
    while frontier:
        nxt = []
        for v in frontier:
            for s in system.fundamental:
                w = reference_reflect(system, s, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def reference_matrix_closure(generators, dim):
    """BFS closure of Fraction matrices; a generator already in the group
    closed so far adds nothing and is skipped."""
    elements = {Matrix.identity(dim)}
    used = []
    for g in generators:
        if g in elements:
            continue
        used.append(g)
        frontier = list(elements)
        while frontier:
            nxt = []
            for m in frontier:
                for h in used:
                    p = m @ h
                    if p not in elements:
                        elements.add(p)
                        nxt.append(p)
            frontier = nxt
    return frozenset(elements)


@pytest.mark.parametrize("sym,rank", TABLE_TYPES)
def test_tables_match_the_form(sym, rank):
    system = build_finite(sym, rank)
    for a in system.roots:
        for b in system.roots:
            assert system.cartan_int(a, b) == reference_cartan(system, a, b)
            assert system.reflect(a, b) == reference_reflect(system, a, b)
    # vectors outside the root set fall back to the form
    e = Vector([1] + [0] * (rank - 1))
    for a in system.roots:
        assert system.reflect(a, e) == reference_reflect(system, a, e)
        assert system.cartan_int(e, a) == reference_cartan(system, e, a)


@pytest.mark.parametrize("sym,rank", TABLE_TYPES)
def test_build_finite_matches_fraction_closure(sym, rank):
    system = build_finite(sym, rank)
    want = reference_closure_from_simples(list(system.fundamental), system.form)
    assert _closure_from_simples(list(system.fundamental), system.form) == want
    if sym != "BC":  # BC adds the doubles of the short roots
        assert system.roots == want


@pytest.mark.parametrize("sym,rank", TABLE_TYPES)
def test_finite_orbit_matches_fraction_bfs(sym, rank):
    # weyl takes a root's finite orbit to be its length class
    system = build_finite(sym, rank)
    classes = [c for c in length_classes(system) if c]
    assert frozenset().union(*classes) == system.roots
    for cls in classes:  # the BFS from any member gives the orbit
        assert reference_finite_orbit(system, min(cls, key=lambda v: v.coords)) == cls


@pytest.mark.parametrize("sym,rank", sorted(WEYL_ORDERS))
def test_finite_generation_matches_matrix_closure(sym, rank):
    # generation_check compares the closure of the remaining directions
    # with the order of finite_weyl
    system = build_finite(sym, rank)
    order = finite_weyl(system).order
    sh, lg, ex = length_classes(system)
    classes = {t: c for t, c in (("short", sh), ("long", lg), ("extra", ex)) if c}
    R = SimpleNamespace(finite_part=system, dot_classes=classes)
    tags = sorted(classes)
    for mask in range(1, 1 << len(tags)):
        kept = [t for i, t in enumerate(tags) if mask >> i & 1]
        fams = {t: (object() if t in kept else None) for t in tags}
        # one matrix per line: r and -r give the same reflection
        lines = {line_key(d): d for t in kept for d in classes[t]}
        gens = [system.reflection_matrix(d) for d in lines.values()]
        want = len(reference_matrix_closure(gens, rank)) == WEYL_ORDERS[(sym, rank)]
        assert (len(_finite_closure(R, fams)[1]) == order) == want, kept


def test_constructor_rejects_non_root_systems():
    form = BilinearForm(Matrix.identity(2))
    with pytest.raises(ValueError):  # not closed under its reflections
        FiniteRootSystem("A", 1, frozenset({vec(1, 0), vec(-1, 0), vec(1, 1)}), form, ())
    with pytest.raises(ValueError):  # 2(a, b)/(b, b) = 2/3
        FiniteRootSystem("A", 1, frozenset({vec(1, 0), vec(-1, 0), vec(1, 2), vec(-1, -2)}), form, ())


def test_closure_cap():
    with pytest.raises(RuntimeError):
        closure([0], [1], lambda s, g: s + g, cap=10)


def test_build_finite_is_built_once():
    first = build_finite("B", 2)
    assert build_finite("B", 2) is first
    assert build_finite.__wrapped__("B", 2) == first


def test_shared_finite_system_is_not_changed_by_use(suite):
    config = descriptor_to_config(suite["B2 nu1 matched"])
    before = descriptor_from_config(config)
    tables = (before.finite_part.ordered, before.finite_part.cartan, before.finite_part.perms)
    for R in suite.values():
        verify_axioms(R, 2)
        if R.finite_part.type_symbol == "BC":
            trim(R)
    after = descriptor_from_config(config)
    assert after == before and after.finite_part is before.finite_part
    assert (after.finite_part.ordered, after.finite_part.cartan, after.finite_part.perms) == tables
    assert after.finite_part == build_finite.__wrapped__("B", 2)


# -- naming root subsets by length profile ---------------------------------------
#
# The reference is the count-rule classifier the profile lookup replaced.


def reference_classify_subset(system, roots):
    """Type label of a (sub-)root system given by a subset of system.roots."""
    if not roots:
        raise NotIrreducible("empty root set")
    halves = {r for r in roots if r * Fraction(1, 2) in roots}
    rest = roots - halves
    lengths = sorted({system.norms[system.index[r]] for r in rest})
    rank = span_rank(roots)
    if halves:
        return f"BC{rank}"
    if len(lengths) == 1:
        n = len(roots)
        if n == rank * (rank + 1):
            return f"A{rank}"
        if n == 2 * rank * (rank - 1):
            return f"D{rank}"
        if (rank, n) in ((6, 72), (7, 126), (8, 240)):
            return f"E{rank}"
        raise NotIrreducible(f"unrecognized single-length system of rank {rank} with {n} roots")
    ratio = Fraction(lengths[1], lengths[0])
    n_sh = sum(1 for r in rest if system.norms[system.index[r]] == lengths[0])
    n_lg = len(rest) - n_sh
    if ratio == 3:
        return "G2"
    if ratio == 2:
        if rank == 2 and n_sh == 4 and n_lg == 4:
            return "B2"
        if n_sh == 2 * rank:
            return f"B{rank}"
        if n_lg == 2 * rank:
            return f"B{rank}" if rank == 2 else f"C{rank}"
        if rank == 4 and n_sh == 24 and n_lg == 24:
            return "F4"
    raise NotIrreducible(f"unrecognized two-length system of rank {rank}")


def reference_profile(system, roots):
    """Root count per squared length over the least one, doubles apart,
    through the Fraction form."""
    least = min(system.pair(r, r) for r in roots)
    return Counter((system.pair(r, r) / least, r * Fraction(1, 2) in roots) for r in roots)


STANDARD_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)] + [("BC", n) for n in range(1, 9)]
)

# seven simply laced types, seven with two lengths and three BC types
CORPUS_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("G", 2), ("F", 4),
    ("BC", 1), ("BC", 2), ("BC", 3),
]


def classifier_corpus():
    """Per corpus type, every union of length classes, then the root sets
    generated (closed under their own reflections) by 60 seeded random
    sets of 1-4 roots."""
    out = []
    for sym, rank in CORPUS_TYPES:
        system = build_finite(sym, rank)
        classes = [c for c in length_classes(system) if c]
        for mask in range(1, 1 << len(classes)):
            out.append((system, frozenset().union(*(c for i, c in enumerate(classes) if mask >> i & 1))))
        rng = random.Random(f"{sym}{rank}")
        for _ in range(60):
            picked = rng.sample(system.ordered, rng.randint(1, min(4, len(system.ordered))))
            out.append((system, frozenset(closure(picked, picked, lambda v, a: system.reflect(a, v)))))
    return out


# reference labels of corpus subsets whose realization has another length
# profile: all of them reducible (D2, no type here, is A1 x A1)
MISNAMED = {"D2": 51, "B3": 10, "C3": 9, "BC2": 5, "C4": 4, "B4": 2, "G2": 1, "BC3": 1}


def test_standard_systems_classify_as_themselves():
    assert len(STANDARD_TYPES) == 39
    for sym, rank in STANDARD_TYPES:
        system = build_finite(sym, rank)
        assert _classify_subset(system, system.roots) is system, system.label


def test_classify_subset_matches_reference_where_the_label_fits():
    """Where the reference label has a standard realization with the
    subset's profile, the subset gets that system; everywhere else
    NotIrreducible."""
    corpus = classifier_corpus()
    assert len(corpus) == 1065
    misnamed = Counter()
    for system, roots in corpus:
        try:
            label = reference_classify_subset(system, roots)
        except NotIrreducible:
            label = None
        try:
            standard = _as_finite(label) if label else None
        except InvalidRank:
            standard = None
        if standard and reference_profile(standard, standard.roots) == reference_profile(system, roots):
            assert _classify_subset(system, roots) is standard
            continue
        with pytest.raises(NotIrreducible):
            _classify_subset(system, roots)
        if label:
            misnamed[label] += 1
    assert dict(misnamed) == MISNAMED
    assert len(corpus) - sum(misnamed.values()) == 982
