"""Acceptance checks, one test per criterion.  All arithmetic is exact;
no tolerances appear anywhere.  Each test prints its own pass/fail line
under pytest -v."""

import random
from fractions import Fraction

import pytest

from ears.core import characterize, construct_ears, irc_window, trim, verify_axioms
from ears.examples import (
    acceptance_suite,
    bc1_double_fixture,
    certificate_roots,
    certificate_word,
    even_system,
    kernel_word_roots,
    nullity2_roots,
    nullity2_system,
    nullity3_system,
    orbit_oracle_cases,
    product_even_semilattice,
    removable_root,
)
from ears.finite import build_finite, invariant_generating_subsets
from ears.linalg import Matrix, Vector, reflection_matrix, sorted_vectors, vec
from ears.presentation import (
    No,
    Obstruction,
    Yes,
    conjugation_obstruction,
    conjugation_relation,
    coxeter_presentation_decision,
    evaluate,
    line_relation,
    orbit_id,
    parity,
    square_relation,
)
from ears.semilattice import Semilattice, sum_condition, verify_semilattice
from ears.weyl import (
    Minimal,
    NotMinimal,
    anisotropic_orbits,
    extract_minimal,
    minimality,
    orbit_bfs,
    orbit_closed_form,
    word_element,
)

# Reflection matrices of the three basic roots of the rank-one nullity-two
# system, frozen from an independent transcription and cross-checked by
# direct computation.
FROZEN_R1 = Matrix([
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])
FROZEN_R2 = Matrix([
    [1, 0, -2, -2, 0],
    [0, 1, 0, 0, 0],
    [0, 0, -1, -2, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])
FROZEN_R3 = Matrix([
    [1, 0, 0, 0, 0],
    [0, 1, -2, 0, -2],
    [0, 0, -1, 0, -2],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])


def test_c01_reflection_matrices_and_twelve_letter_identity(nullity2):
    a1, a2, a3 = nullity2_roots()
    sp = nullity2.space
    assert reflection_matrix(sp, a1) == FROZEN_R1
    assert reflection_matrix(sp, a2) == FROZEN_R2
    assert reflection_matrix(sp, a3) == FROZEN_R3
    word = [a1, a2, a3, a1, a2, a3, a2, a1, a3, a2, a1, a3]
    assert word_element(sp, word).matrix.is_identity()


def test_c02_seven_reflection_certificate_and_consequences(nullity3):
    gamma = removable_root()
    sp = nullity3.space
    word = certificate_word()
    # the bundled word is an ordering of the seven certificate roots
    assert sorted(v.coords for v in word) == sorted(
        v.coords for v in certificate_roots()
    )
    assert word_element(sp, word).matrix == reflection_matrix(sp, gamma)

    verdict = minimality(nullity3)
    assert isinstance(verdict, NotMinimal)
    assert verdict.orbit.contains(gamma)

    ob = conjugation_obstruction(nullity3)
    assert isinstance(ob, Obstruction)
    assert ob.matrix.is_identity()
    assert ob.parity[orbit_id(nullity3, gamma)] == 1


def test_c03_kernel_word_fixes_the_unextended_coordinates(nullity2):
    m = word_element(nullity2.space, kernel_word_roots()).matrix
    for j in range(3):
        for i in range(5):
            assert m[i, j] == (1 if i == j else 0)
    assert not m.is_identity()


def test_c04_windowed_orbit_search_agrees_with_closed_form():
    # Reflections connect any two orbit members, so once the search from
    # one representative reaches the entire closed-form window that window
    # is connected and the search from any other member returns it too.
    for name, system in orbit_oracle_cases().items():
        window = system.anisotropic_window(4)
        remaining = set(window)
        orbits = []
        while remaining:
            alpha = min(remaining, key=lambda v: v.coords)
            orbit = orbit_closed_form(system, alpha)
            members = set(orbit.window(4))
            assert alpha in members
            assert members <= remaining, (name, alpha)
            remaining -= members
            orbits.append((alpha, members))
        for alpha, members in orbits:
            assert orbit_bfs(system, alpha, 4) == members, (name, alpha)


def test_c05_axiom_suite_on_window_four(suite):
    assert len(suite) == 16
    for name, system in suite.items():
        report = verify_axioms(system, 4)
        assert report.ok, (name, report.checks)


TRIM_CASES = [
    ("BC1 nu1", "A1"),
    ("BC1 nu2 shifted", "A1"),
    ("BC2 nu1", "B2"),
]


@pytest.mark.parametrize("key,expected_type", TRIM_CASES)
def test_c06_trim_halves_doubled_roots_and_keeps_reflections(suite, key, expected_type):
    system = suite[key]
    half = Fraction(1, 2)
    out = trim(system)
    assert out.finite_part.label == expected_type

    S = system.translations["short"]
    E = system.translations["extra"]
    half_e = E.scaled(half)
    s_prime = S.union(half_e)
    assert out.translations["short"] == s_prime
    assert verify_semilattice(s_prime).ok

    # the three closure chains, checked exactly on coset representatives
    assert sum_condition(s_prime, s_prime, 2)
    L = system.translations.get("long")
    if L is not None:
        assert sum_condition(L, s_prime, 2)
        assert sum_condition(s_prime, L, 1)

    # same reflections: each windowed set is inside the other, with the
    # window grown so halved roots are not cut off
    def reflections(R, bound):
        return frozenset(reflection_matrix(R.space, v) for v in R.anisotropic_window(bound))

    assert reflections(system, 2) <= reflections(out, 2)
    assert reflections(out, 2) <= reflections(system, 4)


def test_c07_isotropic_closure_recovers_the_full_window(suite):
    for name, system in suite.items():
        aniso = system.anisotropic_window(2)
        got = [v for v in irc_window(aniso, system.space) if v.max_norm() <= 2]
        assert got == sorted_vectors(system.anisotropic_window(2) + system.isotropic_window(2)), name


INVARIANT_SUBSETS = {
    ("BC", 1): ["BC1", "A1", "A1"],
    ("BC", 2): ["BC2", "B2", "B2"],
    ("BC", 3): ["BC3", "B3", "C3"],
    ("B", 2): ["B2"],
    ("C", 3): ["C3"],
    ("A", 2): ["A2"],
    ("G", 2): ["G2"],
}


def test_c08_invariant_generating_subset_classification():
    for (sym, rank), expected in sorted(INVARIANT_SUBSETS.items()):
        system = build_finite(sym, rank)
        subs = invariant_generating_subsets(system)
        assert [t for t, _ in subs] == expected, (sym, rank)


def test_c09_parity_vanishes_on_a_thousand_random_relations(nullity2):
    rng = random.Random(91)
    sp = nullity2.space
    roots = nullity2.anisotropic_window(2)
    for _ in range(1000):
        kind = rng.choice(("line", "square", "conjugation"))
        a = rng.choice(roots)
        if kind == "line":
            word = line_relation(a, -a)
        elif kind == "square":
            word = square_relation(a)
        else:
            word = conjugation_relation(sp, a, rng.choice(roots))
        assert evaluate(word, sp).matrix.is_identity()
        assert parity(word, nullity2).is_zero()


def test_c10_coxeter_decision_splits_at_nullity_two(nullity2, nullity3):
    nu0 = construct_ears("A2", Semilattice([], [[]]))
    assert coxeter_presentation_decision(nu0) == Yes(0)
    nu1 = construct_ears("A1", Semilattice([[1]], [[0], [1]]))
    assert coxeter_presentation_decision(nu1) == Yes(1)
    for system in (nullity2, nullity3):
        decision = coxeter_presentation_decision(system)
        assert isinstance(decision, No)
        assert len(decision.word) == 12
        assert evaluate(decision.word, system.space).matrix.is_identity()


def test_c11_minimal_extraction_in_one_removal(nullity3):
    ext = extract_minimal(nullity3)
    assert len(ext.removal_chain) == 1
    assert ext.finite_part.label == "A1"
    assert ext.translations["short"] == product_even_semilattice(3)

    report = characterize(ext.anisotropic_window(2), ext.space)
    assert report.ok, [c for c in report.checks if not c.passed]
    assert isinstance(minimality(ext), Minimal)

    window = set(ext.anisotropic_window(2))
    expected = {
        Vector((a, b, c, d, 0, 0, 0))
        for a in range(-2, 3)
        for b in range(-2, 3)
        for c in range(-2, 3)
        for d in (-1, 1)
        if a * b * c % 2 == 0
    }
    assert window == expected
