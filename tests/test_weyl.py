"""Orbits, generation certificates, minimality, extraction."""

import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

import ears.weyl
from ears.core import (
    _CLASS_TAGS,
    ConstraintViolation,
    EarsDescriptor,
    _as_finite,
    construct_ears,
    verify_axioms,
)
from ears.finite import FiniteRootSystem, InvalidRank, NotIrreducible, build_finite, length_classes
from ears.linalg import (
    AmbientSpace,
    BilinearForm,
    DimensionMismatch,
    Matrix,
    Vector,
    closure,
    line_key,
    reflect,
    reflection_matrix,
    reflector,
    scaled_ints,
    sorted_vectors,
    times_reflector,
    vec,
)
from ears.presentation import NoneFound, conjugation_obstruction
from ears.semilattice import Lattice, Semilattice
from ears.weyl import (
    Generates,
    Inconclusive,
    Minimal,
    NotAnOrbit,
    NotGenerates,
    NotMinimal,
    NotOverFinitePart,
    OrbitDescriptor,
    Stuck,
    Unknown,
    anisotropic_orbits,
    extract_minimal,
    generation_check,
    minimality,
    orbit_bfs,
    orbit_closed_form,
    word_element,
    _CarrierReducer,
    _Rank1Decider,
    _Setup,
    _check_certificate,
    _commutator,
    _expand,
    _finite_closure,
    _quotient_negative,
    _recenter,
    _remaining_translations,
    _removal_candidates,
    _removal_label,
    _pair,
    _power,
    _shear,
    _slice_decision,
    _times_power,
    _xgcd,
)

from ears.examples import (
    acceptance_suite,
    even_system,
    integer_lattice,
    nullity2_system,
    nullity3_system,
    odd_translated,
    orbit_oracle_cases,
    product_even_semilattice,
    removable_root,
)
from test_finite import reference_classify_subset

GAMMA = removable_root()
PRODUCT_EVEN3 = product_even_semilattice(3)
H = Fraction(1, 2)


def reflect_scaled(v: tuple, refl: tuple) -> tuple:
    """r_alpha(x / den) for the scaled vector v = (x, den), in lowest terms."""
    x, den = v
    a, p, st = refl
    c = sum(map(mul, p, x))
    if not c:
        return v
    if st == 1:  # an integral involution keeps x / den in lowest terms
        return tuple([u - c * w for u, w in zip(x, a)]), den
    y = [st * u - c * w for u, w in zip(x, a)]
    g = math.gcd(den * st, *y)
    return tuple([u // g for u in y]), den * st // g


def padded_generators(R, bound) -> list:
    """One reflector per line of the roots of max-norm at most bound + 2."""
    lines = {line_key(r): r for r in R.anisotropic_window(bound + 2)}
    return [reflector(R.space, r) for r in lines.values()]


def reference_bfs(gens, alpha, bound) -> frozenset:
    """The padded-window search orbit_bfs must reproduce: every generator
    applied to every member, keeping the images that stay within the box."""
    if alpha.max_norm() > bound:
        return frozenset()
    den, (x,) = scaled_ints([alpha.coords])
    start = (tuple(x), den)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = reflect_scaled(v, g)
                if w not in seen and max(map(abs, w[0])) <= bound * w[1]:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(Vector(Fraction(x, d) for x in v) for v, d in seen)


def orbit_reps(system, bound):
    """One member of each orbit meeting the window, from the closed form."""
    remaining = set(system.anisotropic_window(bound))
    while remaining:
        alpha = min(remaining, key=lambda v: v.coords)
        remaining -= set(orbit_closed_form(system, alpha).window(bound))
        yield alpha


def reference_lattice(R, dot):
    """T of dot before the class lattice: Fraction rows g * row over every
    class, g the gcd of the pairings of dot with the class."""
    rows = []
    for tag, sl in R.translations.items():
        g = math.gcd(*(abs(int(R.finite_part.cartan_int(dot, b))) for b in R.dot_classes[tag]))
        rows.extend(row * g for row in sl.lattice.rows)
    return Lattice(R.space.nu, rows)


def reference_orbit(R, alpha):
    """The per-root construction the closed form replaced: the finite orbit
    a BFS over root indices under the simple reflections, T from
    reference_lattice."""
    space, finite = R.space, R.finite_part
    dot = space.blocks(alpha)[1]
    if dot.is_zero():
        return OrbitDescriptor(space, alpha, dot, [dot], Lattice(space.nu, []))
    gens = [finite.perms[finite.index[s]] for s in finite.fundamental]
    reached = closure([finite.index[dot]], gens, lambda i, p: p[i])
    return OrbitDescriptor(
        space, alpha, dot, [finite.ordered[i] for i in reached], reference_lattice(R, dot))


def reference_cosets_mod(sl, finer):
    return [finer.reduce(c + r) for c in sl.cosets for r in sl.modulus.quotient_reps(finer)]


def reference_anisotropic_orbits(R):
    """The sample-orbit construction: T read off the orbit of one root per
    class, then the orbit of each coset of T that the class meets."""
    out = []
    for tag in _CLASS_TAGS:
        sl = R.translations.get(tag)
        if sl is None:
            continue
        dot = max(R.dot_classes[tag], key=lambda v: v.coords)
        sample = reference_orbit(R, R.space.assemble(min(sl.cosets, key=lambda v: v.coords), dot))
        t = sample.translation_lattice
        fine = sl.modulus.intersect(t)
        for rep in sorted({t.reduce(c).coords for c in reference_cosets_mod(sl, fine)}):
            out.append(reference_orbit(R, R.space.assemble(Vector(rep), dot)))
    return out


def reference_remaining_translations(R, orbit):
    """Removal by enumerating T modulo fine = modulus meet T, on every class
    that meets the orbit's finite part."""
    sigma0 = R.space.blocks(orbit.base)[0]
    t = orbit.translation_lattice
    out = {}
    for tag, sl in R.translations.items():
        if not (R.dot_classes[tag] & orbit.finite_orbit):
            out[tag] = sl
            continue
        fine = sl.modulus.intersect(t)
        removed = {fine.reduce(sigma0 + r) for r in t.quotient_reps(fine)}
        keep = [c for c in reference_cosets_mod(sl, fine) if c not in removed]
        translated = not any(fine.contains(c) for c in keep)
        out[tag] = Semilattice.from_cosets(keep, fine, translated) if keep else None
    return out


def test_closed_form_matches_per_root_reference():
    for name, R in removal_label_systems().items():
        window = 1 if R.nullity >= 3 else 2
        for alpha in R.anisotropic_window(window) + R.isotropic_window(1):
            got, want = orbit_closed_form(R, alpha), reference_orbit(R, alpha)
            assert got.finite_orbit == want.finite_orbit, (name, alpha)
            assert got.translation_lattice == want.translation_lattice, (name, alpha)
            assert got.key() == want.key(), (name, alpha)
        # the gcds are W-invariant: every dot of a class gives its lattice
        for tag, dots in R.dot_classes.items():
            t = R.class_lattice(tag)
            assert all(reference_lattice(R, d) == t for d in dots), (name, tag)


def test_removal_matches_quotient_reference():
    order = {"extra": 0, "long": 1, "short": 2}
    for name, R in removal_label_systems().items():
        orbits = anisotropic_orbits(R)
        want = reference_anisotropic_orbits(R)
        assert [(o.key(), o.base) for o in orbits] == [(o.key(), o.base) for o in want], name
        want.sort(key=lambda o: (order[R.class_of_dot(o.dot_part)],
                                 -sum(c * c for c in o.base_offset), tuple(-c for c in o.base_offset)))
        assert [(o.key(), o.base) for o in _removal_candidates(R)] == [
            (o.key(), o.base) for o in want], name
        for orbit in orbits:
            got = _remaining_translations(R, orbit)
            ref = reference_remaining_translations(R, orbit)
            assert list(got) == list(ref), (name, orbit)
            for tag, sl in ref.items():
                assert got[tag] == sl, (name, orbit, tag)
                if sl is not None:
                    assert (got[tag].translated, repr(got[tag])) == (sl.translated, repr(sl))


def reference_orbit_shrink(R, sub, removed_orbit):
    """The per-sample comparison: the removed base and the least root of
    each class of sub, finite orbits included."""
    samples = [removed_orbit.base]
    for tag, sl in sub.translations.items():
        dot = min(sub.dot_classes[tag], key=lambda v: v.coords)
        samples.append(sub.space.assemble(min(sl.cosets, key=lambda v: v.coords), dot))
    for alpha in samples:
        full, part = reference_orbit(R, alpha), reference_orbit(sub, alpha)
        ft, pt = full.translation_lattice, part.translation_lattice
        if pt != ft and pt.is_sublattice_of(ft):
            return (f"the orbit of {alpha} shrinks under the remaining roots, "
                    "so they generate a proper subgroup")
        if part.finite_orbit != full.finite_orbit:
            return f"the finite orbit of {alpha} shrinks under the remaining roots"
    return None


def test_orbit_shrink_matches_per_sample_reference(z2):
    # a strictly smaller orbit under the remaining roots proves them a
    # proper subgroup; the reference needs those roots as a descriptor of
    # their own.  Wherever it finds a shrink, the congruence quotient must
    # give the negative
    systems = {**removal_label_systems(), "C3 nu2": construct_ears("C3", z2, z2),
               "B2 2Z^2 4Z^2": construct_ears("B2", z2.scaled(2), z2.scaled(4))}
    shrinks, compared = [], 0
    for name, R in systems.items():
        if R.finite_part.rank == 1 or R.nullity == 0:
            continue
        for orbit in anisotropic_orbits(R):
            fams = _remaining_translations(R, orbit)
            if any(sl is None for sl in fams.values()):
                continue
            try:
                sub = construct_ears(R.finite_part, fams["short"], fams.get("long"), fams.get("extra"))
            except ConstraintViolation:
                continue
            compared += 1
            if reference_orbit_shrink(R, sub, orbit) is not None:
                verdict = generation_check(R, orbit)
                assert isinstance(verdict, NotGenerates) and REASONS["Q"] in verdict.reason, (name, orbit.base)
                shrinks.append(name)
    # every shrink is on the suite; C3 nu2 and B2 2Z^2 4Z^2 have none
    assert compared == 14
    assert shrinks == ["B2 nu1 matched", "B2 nu1 doubled", "B2 nu2 product-even", "B2 nu2 product-even"]


def test_orbit_equality_is_key_equality(suite):
    """Orbits compare on their integer parts; equal keys and equal orbits
    must be the same relation, and equal orbits must hash equal."""
    orbits = [orbit_closed_form(R, alpha) for R in suite.values()
              for alpha in R.anisotropic_window(1) + R.isotropic_window(1)]
    equal = 0
    for a in orbits:
        for b in orbits:
            assert (a == b) == (a.key() == b.key()), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
                equal += 1
    assert len(orbits) < equal < len(orbits) ** 2


def test_orbit_closed_form_basic(nullity2):
    alpha = nullity2.space.assemble(vec(0, 0), vec(1))
    ob = orbit_closed_form(nullity2, alpha)
    assert ob.translation_lattice == Lattice(2, [[2, 0], [0, 2]])
    assert len(ob.finite_orbit) == 2


def test_orbit_counts(nullity2, nullity3, even3):
    assert len(anisotropic_orbits(nullity2)) == 3
    assert len(anisotropic_orbits(nullity3)) == 8
    assert len(anisotropic_orbits(even3)) == 7


def test_gamma_orbit_membership(nullity3):
    ob = orbit_closed_form(nullity3, GAMMA)
    assert ob.translation_lattice == Lattice(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert ob.contains(vec(3, 1, -1, 1, 0, 0, 0))
    assert ob.contains(vec(1, 1, 1, -1, 0, 0, 0))
    assert not ob.contains(vec(2, 1, 1, 1, 0, 0, 0))


def test_isotropic_orbit_is_singleton(nullity3):
    ob = orbit_closed_form(nullity3, vec(1, 0, 0, 0, 0, 0, 0))
    assert ob.finite_orbit == frozenset([vec(0)])
    assert ob.translation_lattice.rank == 0
    assert ob.window(2) == [vec(1, 0, 0, 0, 0, 0, 0)]


def test_orbit_rejects_foreign_vector(nullity2):
    from ears.linalg import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        orbit_closed_form(nullity2, vec(1, 0, 1))
    with pytest.raises(NotOverFinitePart):
        orbit_closed_form(nullity2, vec(0, 0, 1, 1, 0))
    with pytest.raises(NotOverFinitePart):
        orbit_closed_form(nullity2, vec(0, 0, 2, 0, 0))


def test_bfs_rejects_foreign_vector(nullity2):
    # a vector of another dimension, or with a dual part that would enter
    # every pairing, is refused instead of searched
    with pytest.raises(DimensionMismatch):
        orbit_bfs(nullity2, vec(1, 0, 1), 2)
    with pytest.raises(DimensionMismatch):
        orbit_bfs(nullity2, vec(0, 0, 1, 0, 0, 0, 0), 2)
    with pytest.raises(NotOverFinitePart):
        orbit_bfs(nullity2, vec(0, 0, 1, 1, 0), 2)
    assert orbit_bfs(nullity2, vec(3, 0, 1, 0, 0), 2) == frozenset()


def test_bfs_rejects_bad_bound(nullity2):
    with pytest.raises(ValueError):
        orbit_bfs(nullity2, vec(0, 0, 1, 0, 0), 0)


def test_reflect_scaled_matches_reflect(suite):
    """The reference's vector kernel agrees with Fraction reflections on
    random roots, including half-integral ones, in lowest terms."""
    rng = random.Random(20062)
    for name, R in sorted(suite.items()):
        space = R.space
        roots = sorted(R.anisotropic_window(2), key=lambda v: v.coords)
        for _ in range(12):
            alpha, v = rng.choice(roots), rng.choice(roots) * rng.choice((1, H, 3 * H))
            den, (x,) = scaled_ints([v.coords])
            got = reflect_scaled((tuple(x), den), reflector(space, alpha))
            x, den = got
            assert math.gcd(den, *x) == 1, name
            assert Vector(Fraction(c, den) for c in x) == reflect(space, alpha, v), name


@pytest.mark.parametrize(
    "name, bound",
    [("oracle", 2), ("G2 nu1", 3), ("BC1 nu1", 3), ("BC2 nu1", 3), ("BC1 nu2 shifted", 3)],
)
def test_bfs_matches_reference(suite, name, bound):
    # the box-pruned search forms exactly the images the padded-window
    # search keeps; at bound 3 on G2 and BC, |c| = 1 lets translations
    # beyond bound + 2 into the shifted box, so the clip to bound + 2 runs
    systems = orbit_oracle_cases() if name == "oracle" else {name: suite[name]}
    for label, system in systems.items():
        gens = padded_generators(system, bound)
        for alpha in orbit_reps(system, bound):
            want = reference_bfs(gens, alpha, bound)
            assert orbit_bfs(system, alpha, bound) == want, (label, alpha)


@pytest.mark.parametrize(
    "coords",
    [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0)],
    ids=["base-root", "shifted-root"],
)
def test_bfs_matches_closed_form(nullity2, coords):
    alpha = vec(*coords)
    got = orbit_bfs(nullity2, alpha, 3)
    want = frozenset(orbit_closed_form(nullity2, alpha).window(3))
    assert got == want


def test_bfs_matches_closed_form_nullity3(nullity3):
    got = orbit_bfs(nullity3, GAMMA, 3)
    want = frozenset(orbit_closed_form(nullity3, GAMMA).window(3))
    assert got == want


def test_bfs_stays_in_the_padded_window():
    # on A1 with translations 8Z the half root (4, 1/2, 0) pairs to c = +-1
    # with every root; at bound 5 its images at iso -4 need the roots
    # +-(8 + e), beyond the padded window's norm 7, so the search omits them
    system = construct_ears("A1", Semilattice([[4]], [[0]]))
    alpha = vec(4, H, 0)
    got = orbit_bfs(system, alpha, 5)
    assert got == reference_bfs(padded_generators(system, 5), alpha, 5)
    assert got == {alpha, vec(4, -H, 0)}


@pytest.mark.parametrize("name", ["G2 nu1", "BC1 nu1", "BC2 nu1", "BC1 nu2 shifted"])
def test_bfs_matches_closed_form_non_simply_laced(suite, name):
    # systems whose pairing rows or roots are not all integral.  On G2 nu1
    # the long orbit's window-2 members connect only through roots of norm
    # 3, so each window's search runs in the box one larger and is cut back.
    system = suite[name]
    for window in (2, 3):
        for alpha in orbit_reps(system, window):
            want = frozenset(orbit_closed_form(system, alpha).window(window))
            assert orbit_bfs(system, alpha, window) <= want, (name, alpha)
            got = {v for v in orbit_bfs(system, alpha, window + 1) if v.max_norm() <= window}
            assert got == want, (name, window, alpha)


def test_seven_reflection_certificate(nullity3):
    # frozen from a brute-force search over reflection words; this ordering
    # of the seven roots multiplies out to the reflection in gamma
    from ears.examples import certificate_word

    prod = word_element(nullity3.space, certificate_word())
    assert prod.matrix == reflection_matrix(nullity3.space, GAMMA)


def test_gamma_orbit_generates(nullity3):
    ob = orbit_closed_form(nullity3, GAMMA)
    verdict = generation_check(nullity3, ob)
    assert isinstance(verdict, Generates)
    # the certificate actually writes the removed reflection
    m = word_element(nullity3.space, verdict.certificate).matrix
    assert m == reflection_matrix(nullity3.space, GAMMA)


def test_generation_check_validates_orbit(nullity3):
    from ears.weyl import OrbitDescriptor

    with pytest.raises(NotAnOrbit):
        generation_check(nullity3, "not an orbit")
    ob = orbit_closed_form(nullity3, GAMMA)
    fake = OrbitDescriptor(
        ob.space,
        ob.base,
        ob.dot_part,
        ob.finite_orbit,
        Lattice(3, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]),
    )
    with pytest.raises(NotAnOrbit):
        generation_check(nullity3, fake)


def test_minimality_verdicts(nullity2, nullity3, even3):
    m = minimality(nullity3)
    assert isinstance(m, NotMinimal)
    assert m.orbit.contains(GAMMA)
    assert isinstance(minimality(nullity2), Minimal)
    assert isinstance(minimality(even3), Minimal)


def test_extract_minimal(nullity3):
    ext = extract_minimal(nullity3)
    assert ext.finite_part.label == "A1"
    assert len(ext.removal_chain) == 1
    assert ext.translations["short"] == PRODUCT_EVEN3
    win = set(ext.anisotropic_window(2))
    want = {
        Vector((a, b, c, d, 0, 0, 0))
        for a in range(-2, 3)
        for b in range(-2, 3)
        for c in range(-2, 3)
        for d in (-1, 1)
        if a * b * c % 2 == 0
    }
    assert win == want
    assert verify_axioms(ext, 2).ok


def test_extract_minimal_idempotent(nullity2):
    ext = extract_minimal(nullity2)
    assert ext == nullity2
    assert ext.removal_chain == ()


def test_finite_a1_orbit_does_not_generate():
    a1f = construct_ears("A1", Semilattice([], [[]]))
    orbs = anisotropic_orbits(a1f)
    assert len(orbs) == 1
    assert isinstance(generation_check(a1f, orbs[0]), NotGenerates)


def test_finite_a2_minimal():
    a2f = construct_ears("A2", Semilattice([], [[]]))
    assert isinstance(minimality(a2f), Minimal)


def test_finite_words_on_a2_nu0():
    a2f = construct_ears("A2", Semilattice([], [[]]))
    for orbit in anisotropic_orbits(a2f):
        # the one orbit is every root, so nothing is left to close
        assert len(_finite_closure(a2f, _remaining_translations(a2f, orbit))[1]) == 1
        assert generation_check(a2f, orbit) == NotGenerates(
            "the remaining directions do not generate the finite Weyl group")


def test_extra_meeting_twice_short_is_refused_and_never_misjudged(z1):
    # the only inputs on which v and v/2 are both roots, or a nullity-zero
    # removal leaves a generating set: construct_ears refuses each of them,
    # so orbit_id has no line to halve and generation_check no nullity-zero path
    trivial = Semilattice([], [[]])
    nu0 = {rank: {t: trivial for t in (("short", "extra") if rank == 1 else _CLASS_TAGS)}
           for rank in (1, 2, 3)}
    for finite, sets in [*((f"BC{rank}", nu0[rank]) for rank in (1, 2, 3)),
                         ("BC1", {"short": z1, "extra": z1})]:
        with pytest.raises(ConstraintViolation, match=r"^extra ∩ 2\*short ≠ ∅$"):
            construct_ears(finite, **sets)
    # built directly anyway: a short or extra orbit gets a re-checked
    # Generates, and the long class is still needed
    for rank, sets in nu0.items():
        R = EarsDescriptor(build_finite("BC", rank), 0, sets)
        for orbit in anisotropic_orbits(R):
            verdict = generation_check(R, orbit)
            if R.class_of_dot(orbit.dot_part) == "long":
                assert isinstance(verdict, NotGenerates), (rank, orbit)
            else:
                assert isinstance(verdict, Generates), (rank, orbit, verdict)
                assert word_element(R.space, verdict.certificate).matrix == reflection_matrix(R.space, orbit.base)


def test_bc1_nothing_removable(bc1_shifted):
    # every orbit carries essential translations here
    for ob in anisotropic_orbits(bc1_shifted):
        assert isinstance(generation_check(bc1_shifted, ob), NotGenerates)
    assert extract_minimal(bc1_shifted) == bc1_shifted


# generation_check on each orbit of each suite
# system, in anisotropic_orbits order: G generates, I inconclusive, and the
# other letters are NotGenerates with the reason REASONS names
SUITE_VERDICTS = {
    "A1 nu1 doubled": "OO", "A1 nu1 full": "OO", "A1 nu2 full": "OOOO",
    "A1 nu2 product-even": "OOO", "A1 nu3 full": "GGGGGGGG",
    "A1 nu3 product-even": "OOOOOOO", "A2 nu0": "W", "A2 nu1": "W",
    "B2 nu1 doubled": "QQW", "B2 nu1 matched": "WQQ", "B2 nu2 matched": "QQQQW",
    "B2 nu2 product-even": "QQQW", "BC1 nu1": "OO", "BC1 nu2 shifted": "OOOO",
    "BC2 nu1": "QWQ", "G2 nu1": "WW",
}
REASONS = {
    "O": "is outside the subgroup generated by the remaining roots",
    "W": "the remaining directions do not generate the finite Weyl group",
    "Q": "is outside the image of the remaining reflections (congruence quotient)",
}


def check_suite_verdicts(suite, codes):
    for name, R in suite.items():
        orbits = anisotropic_orbits(R)
        assert len(orbits) == len(codes[name]), name
        for ob, code in zip(orbits, codes[name]):
            verdict = generation_check(R, ob)
            if code == "G":
                assert isinstance(verdict, Generates), (name, ob.base)
                assert word_element(R.space, verdict.certificate).matrix == reflection_matrix(R.space, ob.base)
            elif code == "I":
                assert verdict == Inconclusive(), (name, ob.base)
            else:
                assert isinstance(verdict, NotGenerates), (name, ob.base, verdict)
                assert REASONS[code] in verdict.reason, (name, ob.base, verdict.reason)


def test_generation_verdicts_on_the_suite(suite):
    check_suite_verdicts(suite, SUITE_VERDICTS)


def give_up_quotient(monkeypatch):
    """Make the congruence quotient give up, as past its kernel cap."""
    monkeypatch.setattr(ears.weyl, "_quotient_negative", lambda *args: None)


def test_generation_verdicts_without_the_quotient(suite, monkeypatch):
    # the orbits the quotient decides fall back to the slice, which never
    # generates where the quotient excludes r_base
    give_up_quotient(monkeypatch)
    check_suite_verdicts(suite, {name: codes.replace("Q", "I") for name, codes in SUITE_VERDICTS.items()})


def test_extract_minimal_stuck_on_undecided_orbits(suite, monkeypatch):
    for name in ("B2 nu2 matched", "BC2 nu1"):
        assert extract_minimal(suite[name]) == suite[name]
    give_up_quotient(monkeypatch)
    for name, count in (("B2 nu2 matched", 4), ("BC2 nu1", 2)):
        with pytest.raises(Stuck, match=rf"^{count} orbit\(s\) undecided$"):
            extract_minimal(suite[name])


QUOTIENT = re.compile(r"modulo (\d+), after scaling by D = (\d+),")


def rational_inverse(rows) -> list:
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def block_diagonal(*blocks) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return Matrix(rows)


def quotient_matrices(R, D):
    """root -> (finite permutation, the integer rows of its reflection_matrix
    conjugated by diag(D^2 H^-T, D I, H)), H the short class's lattice rows:
    the radical basis normalized to that lattice, then scaled; independent
    of weyl's closed form, packed integers and Schreier split."""
    nu, ell = R.space.nu, R.space.rank
    h = [list(r.coords) for r in R.translations["short"].lattice.rows]
    hinv_t = [list(col) for col in zip(*rational_inverse(h))]
    conj = block_diagonal([[D * D * x for x in r] for r in hinv_t],
                          [[D * (i == j) for j in range(ell)] for i in range(ell)], h)
    back = block_diagonal(*(rational_inverse(b) for b in (
        [[D * D * x for x in r] for r in hinv_t], [[D * (i == j) for j in range(ell)] for i in range(ell)], h)))
    finite, cache = R.finite_part, {}

    def matrix(root):
        if root not in cache:
            m = conj @ reflection_matrix(R.space, root) @ back
            assert m.den == 1, root
            cache[root] = finite.perms[finite.index[R.space.blocks(root)[1]]], m.ints
        return cache[root]
    return matrix


def quotient_images(R, k, D):
    """root -> (finite permutation, quotient_matrices's matrix mod k)."""
    matrix = quotient_matrices(R, D)

    def image(root):
        perm, m = matrix(root)
        return perm, tuple(tuple(x % k for x in r) for r in m)
    return image


def plain_group(gens, k) -> set:
    """Every (permutation, matrix mod k) product of the generators, by BFS."""
    n = len(gens[0][1])
    one = (tuple(range(len(gens[0][0]))), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    seen, frontier = {one}, [one]
    while frontier:
        nxt = []
        for p, m in frontier:
            for q, g in gens:
                prod = (tuple(p[i] for i in q),
                        tuple(tuple(sum(a * b for a, b in zip(row, col)) % k for col in zip(*g)) for row in m))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def quotient_generators(R, fams, k, image) -> list:
    """The images of the remaining reflections over a closed box that holds
    a whole period, k times each class's lattice, in every coordinate; the
    box's far faces add no image that the half-open box lacks."""
    gens, inner = {}, {}
    for tag, sl in fams.items():
        if sl is None:
            continue
        lat = R.translations[tag].lattice
        scale = math.lcm(sl.den, lat.den)
        hi = [k * r[i] * scale // lat.den for i, r in enumerate(lat.hnf)]
        for x in sl.points(scale, [0] * R.space.nu, hi):
            for d in R.dot_classes[tag]:
                g = image(R.space.assemble(Vector._of(x, scale), d))
                gens[g] = None
                if all(a < b for a, b in zip(x, hi)):
                    inner[g] = None
    assert set(gens) == set(inner)
    return list(gens)


def test_quotient_negatives_rechecked_by_plain_bfs(suite):
    checked = 0
    for name, R in suite.items():
        for ob in anisotropic_orbits(R):
            verdict = generation_check(R, ob)
            found = QUOTIENT.search(getattr(verdict, "reason", ""))
            if found is None:
                continue
            k, D = map(int, found.groups())
            image = quotient_images(R, k, D)
            gens = quotient_generators(R, _remaining_translations(R, ob), k, image)
            assert image(ob.base) not in plain_group(gens, k), (name, ob.base)
            checked += 1
    assert checked == 13


def test_closed_form_images_match_the_matrix_product(suite):
    # every period class and line of every class, at every modulus the
    # quotient tries (up to 16 at nullity two, where 64 has 4,096 period
    # classes per coset): _Setup.image, read off the root in closed form,
    # packs the conjugated reflection_matrix mod k; G2 nu1 needs D = 3 and
    # BC2 nu1 D = 2
    scales = {}
    for name, R in suite.items():
        if R.finite_part.rank < 2:
            continue
        setup, n = _Setup(R), R.space.dim
        scales[name] = D = setup.scale()
        matrix = quotient_matrices(R, D)
        for k in (4, 8, 16, 32, 64)[:3 if R.nullity > 1 else 5]:
            mod = ears.weyl._mod_k(R.space.nu, R.space.rank, k)
            for tag, sl in R.translations.items():
                finer = sl.modulus.intersect(sl.lattice.scaled(k))
                scale = math.lcm(sl.den, finer.den)
                for x in sl._residues(finer, scale):
                    for d in setup.lines(tag):
                        perm, m = matrix(R.space.assemble(Vector._of(x, scale), d))
                        packed = sum(v % k << (i * n + j) * mod.w for i, r in enumerate(m) for j, v in enumerate(r))
                        assert setup.image(x, scale, d, mod) == (perm, packed), (name, k, x, d)
    assert scales == {"A2 nu0": 1, "A2 nu1": 1, "B2 nu1 matched": 1, "B2 nu1 doubled": 1, "B2 nu2 matched": 1,
                      "B2 nu2 product-even": 1, "G2 nu1": 3, "BC2 nu1": 2}


def test_quotient_images_build_no_reflector_or_vector(suite, monkeypatch):
    # over the suite, _quotient_negative calls reflector zero times, and
    # _Setup.image builds no Vector once the setup has its scale
    calls, reflect_with, set_vector = Counter(), ears.weyl.reflector, Vector._set
    monkeypatch.setattr(ears.weyl, "reflector", lambda *args: calls.update(["reflector"]) or reflect_with(*args))
    negatives = 0
    for R in suite.values():
        if R.finite_part.rank < 2:
            continue
        setup = _Setup(R)
        for ob in anisotropic_orbits(R):
            if setup.finite_generates(fams := _remaining_translations(R, ob)):
                negatives += _quotient_negative(setup, ob, fams) is not None
        inputs = []
        for tag, sl in R.translations.items():
            finer = sl.modulus.intersect(sl.lattice.scaled(8))
            scale = math.lcm(sl.den, finer.den)
            inputs += [(x, scale, d) for x in sl._residues(finer, scale) for d in setup.lines(tag)]
        mod = ears.weyl._mod_k(R.space.nu, R.space.rank, 8)
        setup.scale()
        with monkeypatch.context() as m:
            m.setattr(Vector, "_set", lambda *args: calls.update(["Vector"]) or set_vector(*args))
            for x, scale, d in inputs:
                setup.image(x, scale, d, mod)
    assert calls == Counter() and negatives == 13


def test_quotient_gives_up_past_the_kernel_cap(suite, monkeypatch):
    # with room for one kernel state the quotient proves nothing: it gives
    # up, and the slice does not generate, so the orbit is Inconclusive
    # and never a false NotGenerates
    R = suite["B2 nu2 matched"]
    orbit = anisotropic_orbits(R)[0]
    assert QUOTIENT.search(generation_check(R, orbit).reason).groups() == ("4", "1")
    monkeypatch.setattr(ears.weyl, "_KERNEL_CAP", 1)
    assert _quotient_negative(_Setup(R), orbit, _remaining_translations(R, orbit)) is None
    assert generation_check(R, orbit) == Inconclusive()


def test_quotient_agrees_with_the_rank_one_decider(suite):
    # it never excludes a reflection the decider generates, and excludes
    # every one the decider rejects
    systems = {name: R for name, R in suite.items() if R.finite_part.rank == 1}
    assert len(systems) == 8
    for name, R in systems.items():
        setup = _Setup(R)
        for ob in anisotropic_orbits(R):
            exact = generation_check(R, ob, _setup=setup)
            negative = _quotient_negative(setup, ob, _remaining_translations(R, ob))
            assert (negative is None) == isinstance(exact, Generates), (name, ob.base)


def test_quotient_normalizes_the_radical_basis(suite, z2):
    # B2 over S = 2Z^2, L = 4Z^2 is B2 nu2 matched with its radical
    # coordinates doubled: read in the short lattice's basis, it gets the
    # matched system's verdicts at the same k and D
    def reasons(R):
        return sorted(re.sub(r"Vector\(\(.*?\)\)", "v", generation_check(R, ob).reason)
                      for ob in anisotropic_orbits(R))
    doubled = construct_ears("B2", z2.scaled(2), z2.scaled(4))
    matched = suite["B2 nu2 matched"]
    assert reasons(doubled) == reasons(matched)
    assert [QUOTIENT.search(r).groups() for r in reasons(matched) if "quotient" in r] == [("4", "1")] * 4
    assert minimality(doubled) == minimality(matched) == Minimal(5)


def change_radical_basis(R, g):
    """R with the radical coordinates of every translation set multiplied
    on the right by g in GL_nu(Z): cosets and modulus rows times g.  With
    the dual block moved by g^-T it is an isometry of the ambient space."""
    def times(v):
        return Vector([sum(v[i] * g[i][j] for i in range(len(g))) for j in range(len(g))])
    sets = {tag: Semilattice.from_cosets([times(c) for c in sl.cosets],
                                         Lattice(sl.ambient, [times(r) for r in sl.modulus.rows]), sl.translated)
            for tag, sl in R.translations.items()}
    return construct_ears(R.finite_part, sets["short"], sets.get("long"), sets.get("extra")), times


def verdict_kind(verdict):
    """The verdict's type, with the rule and, for the quotient, k and D
    that a negative cites."""
    reason = getattr(verdict, "reason", "")
    found = QUOTIENT.search(reason)
    return type(verdict).__name__, [code for code in "OWQ" if REASONS[code] in reason], found and found.groups()


def test_verdicts_survive_a_change_of_radical_basis(suite, z2):
    # the quotient reads the radical part in the short lattice's basis, so
    # an isomorphic image of a system must decide each orbit alike; on
    # Z x 2Z the shear moves that basis off the coordinate axes.  The rank-one
    # decider gets the same g at nullity 1 and 2, and at nullity 3 a signed
    # permutation and a shear; the suite's "A1 nu3 full" is nullity3_system()
    bases = {1: [[[-1]]], 2: [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]],
             3: [[[0, 1, 0], [0, 0, -1], [1, 0, 0]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]]}
    uneven = Semilattice.from_cosets([[0, 0]], Lattice(2, [[1, 0], [0, 2]]))
    systems = {**suite, "B2 2Z^2 4Z^2": construct_ears("B2", z2.scaled(2), z2.scaled(4)),
               "B2 Z x 2Z": construct_ears("B2", uneven, uneven.scaled(2))}
    images = 0
    for name, R in systems.items():
        if R.nullity == 0:
            continue
        want = {ob.base: verdict_kind(generation_check(R, ob)) for ob in anisotropic_orbits(R)}
        for g in bases[R.nullity]:
            image, times = change_radical_basis(R, g)
            seen = set()
            for base, kind in want.items():
                iso, dot, _ = R.space.blocks(base)
                orbit = orbit_closed_form(image, image.space.assemble(times(iso), dot))
                seen.add(orbit)
                assert verdict_kind(generation_check(image, orbit)) == kind, (name, g, base)
            # the orbits map one to one
            assert seen == set(anisotropic_orbits(image)), (name, g)
            images += 1
    assert images == 33


def elementary_maps(nu) -> list:
    """The sign flips, shears x_i -> x_i + x_j and transpositions of Z^nu as
    matrices on column vectors, built apart from _Setup.symmetries."""
    def eye():
        return [[int(a == b) for b in range(nu)] for a in range(nu)]

    out = []
    for i in range(nu):
        for j in range(nu):
            out.append(eye())
            out[-1][i][j] = -1 if i == j else 1
    for i, j in combinations(range(nu), 2):
        out.append(eye())
        out[-1][i], out[-1][j] = out[-1][j], out[-1][i]
    return [Matrix(m) for m in out]


def symmetry_systems() -> dict:
    """removal_label_systems() and three nullity-two systems of rank two and three."""
    z2 = integer_lattice(2)
    return {**removal_label_systems(), "B2 Z^2 2Z^2": construct_ears("B2", z2, z2.scaled(2)),
            "C3 Z^2 Z^2": construct_ears("C3", z2, z2), "G2 Z^2 3Z^2": construct_ears("G2", z2, z2.scaled(3))}


def test_symmetries_are_the_elementary_maps_that_keep_every_class_set(suite):
    # a candidate is kept exactly when it maps every point of every class
    # set's window 2 into the set; with g^-T on the dual block a kept one
    # keeps the form and maps the window's anisotropic roots to roots
    for name, R in symmetry_systems().items():
        kept, nu, rank = _Setup(R).symmetries(), R.space.nu, R.space.rank
        for g in elementary_maps(nu):
            keeps = all(sl.contains(g * p) for sl in R.translations.values() for p in sl.window(2))
            assert keeps == (g in kept), (name, g)
        for g in kept:
            inverse = rational_inverse(g.rows)
            m = block_diagonal(g.rows, [[int(i == j) for j in range(rank)] for i in range(rank)],
                               [list(col) for col in zip(*inverse)])
            assert m.transpose() @ R.space.form.gram @ m == R.space.form.gram, (name, g)
            assert all(R.classify(m * r) == "anisotropic" for r in R.anisotropic_window(2)), (name, g)
    assert {name: len(_Setup(R).symmetries()) for name, R in suite.items()} == {
        "A2 nu0": 0, "A1 nu1 full": 1, "A1 nu1 doubled": 1, "A1 nu2 full": 5, "A1 nu2 product-even": 3,
        "A1 nu3 full": 12, "A1 nu3 product-even": 6, "A2 nu1": 1, "B2 nu1 matched": 1, "B2 nu1 doubled": 1,
        "B2 nu2 matched": 5, "B2 nu2 product-even": 3, "G2 nu1": 1, "BC1 nu1": 1, "BC1 nu2 shifted": 3,
        "BC2 nu1": 1}


def test_symmetries_map_orbits_onto_orbits_with_the_same_verdict():
    # no skipping: generation_check on every orbit, then each kept map sends
    # each orbit onto an orbit of R with the same verdict type.  BC1 nu3 is
    # left out: its eight checks take about 10 s, and one passes the word cap
    systems = {**removal_label_systems(), "A1 Z^3": nullity3_system()}
    del systems["BC1 nu3"]
    pairs = 0
    for name, R in systems.items():
        kind = {ob: type(generation_check(R, ob)) for ob in anisotropic_orbits(R)}
        for g in _Setup(R).symmetries():
            for ob, want in kind.items():
                iso, dot, _ = R.space.blocks(ob.base)
                assert kind[orbit_closed_form(R, R.space.assemble(g * iso, dot))] is want, (name, g, ob.base)
                pairs += 1
    assert pairs == 342


def test_minimality_matches_the_unskipped_loop():
    # the skip changes no verdict, certificate or unresolved list
    systems = {**symmetry_systems(), "A1 nu2 product-even": nullity2_system(), "A1 Z^3": nullity3_system()}
    for name, R in systems.items():
        assert minimality(R) == unskipped_minimality(R), name


def test_minimality_checks_one_orbit_per_symmetry_class(suite, monkeypatch):
    # generation_check calls per minimality call: 36 on the suite, where
    # every orbit up to the first Generates takes 47
    calls, check = Counter(), ears.weyl.generation_check

    def counted(R, orbit, *args, **kw):
        calls[R] += 1
        return check(R, orbit, *args, **kw)

    monkeypatch.setattr(ears.weyl, "generation_check", counted)
    for R in suite.values():
        minimality(R)
    assert {name: calls[R] for name, R in suite.items()} == {
        "A2 nu0": 1, "A1 nu1 full": 2, "A1 nu1 doubled": 2, "A1 nu2 full": 2, "A1 nu2 product-even": 2,
        "A1 nu3 full": 1, "A1 nu3 product-even": 3, "A2 nu1": 1, "B2 nu1 matched": 3, "B2 nu1 doubled": 3,
        "B2 nu2 matched": 3, "B2 nu2 product-even": 3, "G2 nu1": 2, "BC1 nu1": 2, "BC1 nu2 shifted": 3,
        "BC2 nu1": 3}
    calls.clear()
    for R in suite.values():
        unskipped_minimality(R)
    assert sum(calls.values()) == 47


ROOT_SYSTEM_RULE = "the remaining roots are not a root system"


def test_a1_nu3_full_refutes_the_root_system_rule(nullity3):
    # removing the zero-coset orbit leaves a short set without 0, which
    # construct_ears refuses, and yet the exact decider generates r_base:
    # a remaining set that is no root system proves no negative
    orbit = anisotropic_orbits(nullity3)[0]
    assert nullity3.space.blocks(orbit.base)[0].is_zero()
    fams = _remaining_translations(nullity3, orbit)
    with pytest.raises(ConstraintViolation, match="^0 is missing from the short translation set$"):
        construct_ears(nullity3.finite_part, fams["short"])
    verdict = generation_check(nullity3, orbit)
    assert isinstance(verdict, Generates) and len(verdict.certificate) == 389
    _check_certificate(nullity3.space, orbit.base, verdict.certificate)


def test_no_verdict_cites_the_root_system_rule(suite, z2):
    # above rank one every negative is the finite check's or the
    # congruence quotient's
    systems = {**suite, "C3 nu2": construct_ears("C3", z2, z2)}
    for name, R in systems.items():
        for ob in anisotropic_orbits(R):
            verdict = generation_check(R, ob)
            reason = getattr(verdict, "reason", "")
            assert ROOT_SYSTEM_RULE not in reason, (name, ob.base)
            if R.finite_part.rank > 1 and reason:
                assert any(REASONS[code] in reason for code in "WQ"), (name, ob.base, reason)


def test_b2_nu3_slices_generate_eight_orbits():
    # short Z^3, long 2Z^3: on the first orbit the quotient mod 4 keeps
    # r_base in the image and mod 8 passes the kernel cap.  The slice of
    # each of eight orbits' lines generates, with words of up to 11,471
    # letters; the ninth fails the finite check.  minimality removes the
    # second candidate
    R = construct_ears("B2", integer_lattice(3), integer_lattice(3).scaled(2))
    orbits = anisotropic_orbits(R)
    assert _quotient_negative(_Setup(R), orbits[0], _remaining_translations(R, orbits[0])) is None
    verdicts = [generation_check(R, ob) for ob in orbits]
    assert verdicts[8:] == [NotGenerates(REASONS["W"])]
    assert [len(v.certificate) for v in verdicts[:8]] == [389, 121, 1697, 11471, 2133, 773, 3293, 317]
    verdict = minimality(R)
    assert isinstance(verdict, NotMinimal) and verdict.orbit == _removal_candidates(R)[1]
    assert verdict.certificate == verdicts[orbits.index(verdict.orbit)].certificate


def nullity3_systems() -> dict:
    z3 = integer_lattice(3)
    return {"B2 Z^3 2Z^3": construct_ears("B2", z3, z3.scaled(2)), "B2 Z^3 Z^3": construct_ears("B2", z3, z3),
            "C3 Z^3 Z^3": construct_ears("C3", z3, z3)}


def test_nullity3_systems_above_rank_one_are_not_minimal():
    # at default flags, each in well under a second; B2 over (Z^3, 2Z^3)
    # extracts to a minimal system with no conjugation obstruction, and
    # B2 over (Z^3, Z^3) leaves seven long orbits that no path decides
    systems = nullity3_systems()
    for name, R in systems.items():
        start = time.process_time()
        assert isinstance(minimality(R), NotMinimal), name
        assert time.process_time() - start < 1, name
    ext = extract_minimal(systems["B2 Z^3 2Z^3"])
    assert len(ext.removal_chain) == 1 and minimality(ext) == Minimal(8)
    assert conjugation_obstruction(ext) == NoneFound(orbits_checked=8)
    start = time.process_time()
    with pytest.raises(Stuck, match=r"^7 orbit\(s\) undecided$"):
        extract_minimal(systems["B2 Z^3 Z^3"])
    assert time.process_time() - start < 5


def test_verdicts_and_certificates_survive_a_shear_above_rank_one():
    # item 20 on B2 at nullity 3: the shear g (x_1 -> x_1 + x_2 on row
    # vectors) maps each orbit onto an orbit of the image with the same
    # verdict type, and each Generates certificate, mapped letter by letter
    # by the isometry m (g on the radical block, g^-T on the dual one),
    # re-multiplies to the reflection in the image of its base
    g = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    gt = [list(col) for col in zip(*g)]  # g on column vectors
    m = block_diagonal(gt, [[1, 0], [0, 1]], [list(col) for col in zip(*rational_inverse(gt))])
    systems = nullity3_systems()
    del systems["C3 Z^3 Z^3"]
    certificates = 0
    for name, R in systems.items():
        image, times = change_radical_basis(R, g)
        assert m.transpose() @ image.space.form.gram @ m == R.space.form.gram
        seen = set()
        for ob in anisotropic_orbits(R):
            verdict = generation_check(R, ob)
            orbit = orbit_closed_form(image, m * ob.base)
            assert image.space.blocks(orbit.base)[0] == times(R.space.blocks(ob.base)[0])
            seen.add(orbit)
            assert verdict_kind(generation_check(image, orbit)) == verdict_kind(verdict), (name, ob.base)
            if isinstance(verdict, Generates):
                mapped = word_element(image.space, [m * r for r in verdict.certificate])
                assert mapped.matrix == reflection_matrix(image.space, orbit.base), (name, ob.base)
                certificates += 1
        assert seen == set(anisotropic_orbits(image)), name
    assert certificates == 16


def test_minimality_builds_no_descriptor(suite, monkeypatch):
    built = []
    init = EarsDescriptor.__init__
    monkeypatch.setattr(EarsDescriptor, "__init__", lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    verdicts = [minimality(R) for R in suite.values()]
    assert built == []
    assert sum(isinstance(v, Minimal) for v in verdicts) == 15


def bc1_nu3():
    """BC1 over the product-even semilattice of Z^3, extra (2,2,2) + 4Z^3."""
    extra = Semilattice.from_cosets(
        [[2, 2, 2]], Lattice(3, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]), translated=True
    )
    return construct_ears("BC1", PRODUCT_EVEN3, extra=extra)


def removal_label_systems() -> dict:
    """The suite, one nullity-one system per type below, and BC1 nu3."""
    z1 = integer_lattice(1)
    systems = dict(acceptance_suite())
    for label in ("BC1", "BC2", "BC3", "B3", "C3", "F4", "G2", "D4", "A3"):
        if label.startswith("BC"):
            R = construct_ears(label, z1, None if label == "BC1" else z1, odd_translated(1))
        elif label[0] in "AD":
            R = construct_ears(label, z1)
        else:
            R = construct_ears(label, z1, z1)
        systems[f"{label} nu1"] = R
    systems["BC1 nu3"] = bc1_nu3()
    return systems


# class subsets whose remaining roots take a new label, with the old class
# each new class comes from; a system keeping every class keeps its label
# and classes, and every other subset (the empty one too) is Stuck
RELABELS = {
    ("BC1 nu1", ("short",)): ("A1", {"short": "short"}),
    ("BC1 nu2 shifted", ("short",)): ("A1", {"short": "short"}),
    ("BC1 nu3", ("short",)): ("A1", {"short": "short"}),
    ("BC2 nu1", ("short", "long")): ("B2", {"short": "short", "long": "long"}),
    ("BC3 nu1", ("short", "long")): ("B3", {"short": "short", "long": "long"}),
    ("BC3 nu1", ("long", "extra")): ("C3", {"short": "long", "long": "extra"}),
}


def test_removal_label_table():
    seen = set()
    for name, R in removal_label_systems().items():
        tags = list(R.translations)
        for mask in range(1 << len(tags)):
            kept = tuple(t for i, t in enumerate(tags) if mask >> i & 1)
            fams = {t: (t if t in kept else None) for t in tags}
            if kept == tuple(tags):
                want = (R.finite_part.label, {t: t for t in tags})
            else:
                want = RELABELS.get((name, kept))
            if want is None:
                with pytest.raises(Stuck):
                    _removal_label(R, fams)
                continue
            seen.add((name, kept))
            label, mapped = _removal_label(R, fams)
            assert (label, {t: c for t, c in mapped.items() if c}) == want, (name, kept)
            assert set(mapped) == {"short", "long", "extra"}
    assert set(RELABELS) <= seen


def reference_removal_label(R, fams):
    """_removal_label on the count-rule classifier, its label's realization
    built again by name."""
    finite = R.finite_part
    left = {R.dot_classes[tag]: tag for tag in _CLASS_TAGS if fams.get(tag) is not None}
    try:
        label = reference_classify_subset(finite, frozenset().union(*left))
        new = _as_finite(label)
    except (InvalidRank, NotIrreducible) as exc:
        raise Stuck(
            f"removal leaves classes {list(left.values())} of a {finite.label} "
            f"system, which are not an irreducible root system: {exc}"
        ) from exc
    classes = length_classes(new)
    if new.form != finite.form or {c for c in classes if c} != set(left):
        raise Stuck(
            f"removal leaves classes {list(left.values())} of a {finite.label} "
            f"system, which the standard {label} realization does not match"
        )
    return label, {tag: fams[left[c]] if c else None for tag, c in zip(_CLASS_TAGS, classes)}


def test_removal_label_stuck_where_the_reference_is():
    for name, R in removal_label_systems().items():
        tags = list(R.translations)
        for mask in range(1 << len(tags)):
            fams = {t: (t if mask >> i & 1 else None) for i, t in enumerate(tags)}
            outcomes = []
            for label_of in (reference_removal_label, _removal_label):
                try:
                    outcomes.append(label_of(R, fams))
                except Stuck:
                    outcomes.append(Stuck)
            assert outcomes[0] == outcomes[1], (name, fams)


def test_extract_minimal_relabels_bc1_as_a1():
    R = bc1_nu3()
    ext = extract_minimal(R)
    assert ext == even_system()
    ((base, certificate),) = ext.removal_chain
    assert base == (2, 2, 2, 2, 0, 0, 0)
    assert len(certificate) == 317
    word = tuple(Vector(c) for c in certificate)
    assert word_element(R.space, word).matrix == reflection_matrix(R.space, Vector(base))


def test_extract_minimal_reads_zero_off_the_short_cosets(z1, monkeypatch):
    # a caller may flag a short class that holds 0 as translated; that flag
    # does not mean a removal took 0 out, so both variants of B2 over Z
    # extract alike after the same long orbit is removed
    flagged = Semilattice.from_cosets(z1.cosets, z1.modulus, translated=True)
    got = []
    for short in (z1, flagged):
        R = construct_ears("B2", short, z1)
        orbit = next(ob for ob in _removal_candidates(R) if R.class_of_dot(ob.dot_part) == "long")
        calls = []

        def once(R):
            calls.append(R)
            return NotMinimal(orbit, ()) if len(calls) == 1 else minimality(R)

        with monkeypatch.context() as m:
            m.setattr(ears.weyl, "minimality", once)
            got.append(extract_minimal(R))
    assert got[0] == got[1] and got[0].removal_chain == got[1].removal_chain
    assert got[0].translations["long"] != z1 and len(got[0].removal_chain) == 1


@pytest.mark.parametrize("name", ["A1 nu2 full", "A1 nu3 full", "BC1 nu2 shifted"])
def test_recenter_after_zero_coset_removal(name):
    """Removing the short orbit through zero leaves a translated short
    class; _recenter moves it back by s -> s - x*s0 on each root x*e + s,
    s0 the least remaining short coset, and the extra class (x = 2) by 2*s0."""
    R = acceptance_suite()[name]
    orbit = next(ob for ob in anisotropic_orbits(R)
                 if R.class_of_dot(ob.dot_part) == "short" and ob.base_offset.is_zero())
    fams = _remaining_translations(R, orbit)
    assert fams["short"].translated
    out = _recenter(R, fams)
    assert out["short"].contains(Vector([0] * R.nullity))
    assert not out["short"].translated
    construct_ears(R.finite_part, out["short"], long=out.get("long"), extra=out.get("extra"))
    s0 = min(fams["short"].cosets, key=lambda v: v.coords)
    for tag, sl in fams.items():
        if sl is None:
            assert out[tag] is None
            continue
        for dot in R.dot_classes[tag]:
            shift = s0 * dot[0]
            assert all(out[tag].contains(s - shift) for s in sl.window(3)), (tag, dot)
            assert all(sl.contains(s + shift) for s in out[tag].window(3)), (tag, dot)


def reference_certificate_search(R, fams, target_root, depth, budget):
    """The certificate search with every window root as a generator, r and
    -r (and a BC double 2r) each multiplied in; their products coincide."""
    space = R.space
    bound = max(2, int(target_root.max_norm()) + 2)
    roots = []
    for tag in _CLASS_TAGS:
        sl = fams.get(tag)
        if sl is None or tag not in R.dot_classes:
            continue
        for d in R.dot_classes[tag]:
            roots += [space.assemble(s, d) for s in sl.window(bound)]
    gens = [(root, reflector(space, root)) for root in sorted_vectors(roots)]
    ident = Matrix.identity(space.dim)
    target = times_reflector(ident, reflector(space, target_root))
    seen = {ident}
    frontier = [(ident, ())]
    for _ in range(depth):
        nxt = []
        for m, w in frontier:
            for root, g in gens:
                p = times_reflector(m, g)
                if p in seen:
                    continue
                if p == target:
                    return w + (root,)
                seen.add(p)
                if len(seen) > budget:
                    return None
                nxt.append((p, w + (root,)))
        frontier = nxt
    return None


def oracle_systems() -> dict:
    """removal_label_systems() less BC1 nu3, whose words pass the cap, six
    systems at nullity two and B2 at nullity three with long Z^3 and 2Z^3."""
    z2, z3 = integer_lattice(2), integer_lattice(3)
    uneven = Semilattice.from_cosets([[0, 0]], Lattice(2, [[1, 0], [0, 2]]))
    systems = {**removal_label_systems(),
               "B2 Z^2 2Z^2": construct_ears("B2", z2, z2.scaled(2)), "C3 Z^2 Z^2": construct_ears("C3", z2, z2),
               "B3 Z^2 2Z^2": construct_ears("B3", z2, z2.scaled(2)), "G2 Z^2 3Z^2": construct_ears("G2", z2, z2.scaled(3)),
               "F4 Z^2 2Z^2": construct_ears("F4", z2, z2.scaled(2)), "B2 Z^2 Z x 2Z": construct_ears("B2", z2, uneven),
               "B2 Z^3 2Z^3": construct_ears("B2", z3, z3.scaled(2)), "B2 Z^3 Z^3": construct_ears("B2", z3, z3)}
    del systems["BC1 nu3"]
    return systems


def test_slice_generates_wherever_the_search_finds_a_word(monkeypatch):
    # the bounded search over every window root is the oracle: with the
    # quotient off, each removal and each base with nothing removed that it
    # writes as a word at depth 8 gets a slice Generates.  Of the 107
    # removals the slice generates 24, which need no oracle run, and the
    # oracle writes none of the other 83.  With nothing removed it writes
    # every base but one of F4 at nullity two, whose window has more roots
    # than the budget
    give_up_quotient(monkeypatch)
    systems = oracle_systems()
    assert len(systems) == 30
    found = Counter()
    for name, R in systems.items():
        for ob in anisotropic_orbits(R):
            for removed, fams in (("orbit", _remaining_translations(R, ob)), ("nothing", dict(R.translations))):
                with monkeypatch.context() as m:
                    m.setattr(ears.weyl, "_remaining_translations", lambda R, orbit: fams)
                    verdict = generation_check(R, ob)
                if removed == "orbit" and isinstance(verdict, Generates):
                    found[removed, "Generates"] += 1
                    continue
                word = reference_certificate_search(R, fams, ob.base, 8, 2_000)
                found[removed, word is not None, type(verdict).__name__] += 1
                assert word is None or isinstance(verdict, Generates), (name, removed, ob.base, verdict)
    assert found == {("orbit", "Generates"): 24, ("orbit", False, "Inconclusive"): 33,
                     ("orbit", False, "NotGenerates"): 50, ("nothing", True, "Generates"): 106,
                     ("nothing", False, "Generates"): 1}, found


def test_slice_never_contradicts_a_negative():
    # above rank one, the slice of an orbit's line never generates where the
    # quotient proves that the remaining roots do not.  A finite negative
    # leaves no root on the line, so it never reaches a slice; at rank one
    # the slice is the verdict
    systems = {**removal_label_systems(), **nullity3_systems()}
    checked = Counter()
    for name, R in systems.items():
        if R.finite_part.rank == 1:
            continue
        setup = _Setup(R)
        for ob in anisotropic_orbits(R):
            verdict = generation_check(R, ob, _setup=setup)
            fams = _remaining_translations(R, ob)
            kept = [fams[tag] for c in (H, 1, 2) if (tag := R.class_of_dot(ob.dot_part * c))]
            if isinstance(verdict, NotGenerates) and any(sl is not None for sl in kept):
                assert _slice_decision(R, ob, fams) is None, (name, ob.base)
                checked[verdict_kind(verdict)[1][0]] += 1
    assert checked == {"Q": 17}, checked


def test_rank_one_offsets_reduce_exactly_when_the_base_does():
    # the offsets 0, the basis and the basis pairs of T, whose reflections
    # stand for the whole orbit, reduce exactly when r_base does: the group
    # of the remaining roots is normal in W
    agree = Counter()
    for name, R in removal_label_systems().items():
        if R.finite_part.rank > 1:
            continue
        space = R.space
        for ob in anisotropic_orbits(R):
            fams = _remaining_translations(R, ob)
            decider = _Rank1Decider(space.nu, [(abs(next(iter(R.dot_classes[t]))[0]), sl) for t, sl in fams.items()])
            dot, sigma0 = ob.dot_part, space.blocks(ob.base)[0]
            if dot.ints[0] < 0:
                dot, sigma0 = -dot, -sigma0
            t = ob.translation_lattice
            offsets = [Vector([0] * space.nu), *t.rows, *(a + b for a, b in combinations(t.rows, 2))]
            reduced = [decider.reduce_reflection(space.assemble(sigma0 + off, dot)) is not None for off in offsets]
            assert len(set(reduced)) == 1, (name, ob.base, reduced)
            agree[reduced[0]] += 1
    assert agree == {True: 16, False: 24}, agree


def test_removal_order_builds_no_fraction(suite, monkeypatch):
    # the orbits are sorted on ints at their class's common scale; the
    # order itself is test_removal_matches_quotient_reference's
    saved, built = Fraction.__dict__["__new__"], Counter()

    def counted(cls, *args, **kwargs):
        built[cls] += 1
        return saved.__func__(cls, *args, **kwargs)

    for name, R in suite.items():
        orbits = anisotropic_orbits(R)
        monkeypatch.setattr(ears.weyl, "anisotropic_orbits", lambda R: list(orbits))
        Fraction.__new__ = staticmethod(counted)
        try:
            _removal_candidates(R)
        finally:
            Fraction.__new__ = saved
        assert not built, (name, built)


def test_f4_nu1_minimal(z1):
    assert isinstance(minimality(construct_ears("F4", z1, z1)), Minimal)


def test_bc1_lattice_case_minimal():
    bc1 = construct_ears(
        "BC1",
        Semilattice([[1]], [[0], [1]]),
        extra=Semilattice([[1]], [[1]], translated=True),
    )
    assert isinstance(minimality(bc1), Minimal)


def test_word_element_composes(nullity2):
    a = vec(0, 0, 1, 0, 0)
    b = vec(1, 0, 1, 0, 0)
    g = word_element(nullity2.space, [a, b, a])
    assert g.matrix == word_element(nullity2.space, [a]).matrix @ word_element(
        nullity2.space, [b, a]
    ).matrix
    assert word_element(nullity2.space, [a, a]).matrix == word_element(
        nullity2.space, []
    ).matrix


def _letters(space, shifts):
    # (root, shear) of the reflections in (s, 1, 0): every shear -2 s is
    # integral, so the scale is 1
    roots = [space.assemble(s, [1]) for s in shifts]
    return [(r, _shear(space.nu, r, 1)) for r in roots]


def _identity(nu):
    return [0] * (nu + nu * (nu - 1) // 2), ()


def _product(a, b, nu):
    """The reference product of even flat elements, (b1 + b2, w1 + w2 -
    b1^b2) over every entry, words concatenated; nu = 0 for w alone."""
    (e, u), (f, v) = a, b
    out = [x + y for x, y in zip(e, f)]
    for k, (i, j) in enumerate(combinations(range(nu), 2), nu):
        out[k] -= e[i] * f[j] - e[j] * f[i]
    return out, ("*", u, v)


def _inverse(el):
    return [-x for x in el[0]], ("~", el[1])


def _repeated_power(el, n, nu):
    base = el if n >= 0 else _inverse(el)
    out = [0] * len(el[0]), ()
    for _ in range(abs(n)):
        out = _product(out, base, nu)
    return out


def _state(el):
    return el[0], _expand(el[1])


def _even_elements(space):
    # r1 r2 is a shear and r1 r2 r1 r3 has a nonzero antisymmetric block
    r1, r2, r3 = _letters(space, ([0, 0, 0], [2, 0, 0], [1, 1, 1]))
    a, b = _pair(*r1, *r2), _pair(*r1, *r3)
    elements = [a, b, _product(a, b, 3), _product(_product(a, b, 3), _inverse(a), 3)]
    assert any(elements[2][0][3:])
    return elements


def test_affine_power_closed_form_matches_repeated_products(nullity3):
    for el in _even_elements(nullity3.space):
        for n in range(-6, 7):
            assert _state(_power(el, n)) == _state(_repeated_power(el, n, 3)), n


def test_times_power_matches_the_product(nullity3):
    # the closed form of a r^n against the reference product, on b||w and,
    # for the commutators (b = 0), on w alone
    elements = _even_elements(nullity3.space)
    central = [c for c in (_commutator(a, b, 3) for a, b in combinations(elements, 2)) if any(c[0])]
    assert len(central) >= 2
    for pool, nu in ((elements, 3), (central, 0)):
        for a in pool:
            for r in pool:
                for n in range(-6, 7):
                    want = _product(a, _repeated_power(r, n, nu), nu)
                    assert _state(_times_power(a, r, n, nu)) == _state(want), (nu, n)


RANK_ONE = [
    "A1 nu1 doubled", "A1 nu1 full", "A1 nu2 full", "A1 nu2 product-even",
    "A1 nu3 full", "A1 nu3 product-even", "BC1 nu1", "BC1 nu2 shifted",
]


@pytest.mark.parametrize("name", RANK_ONE)
def test_affine_normal_form_matches_matrices(suite, name):
    # flat b||w against the blocks of the product of the word's reflection
    # matrices: the finite diagonal entry is 1, b is the finite column of
    # the radical rows and w = B - B^T the radical-by-dual block, rescaled
    # by D and D^2; a commutator keeps w alone
    space = suite[name].space
    nu = space.nu
    roots = sorted_vectors(suite[name].anisotropic_window(2))
    scale = math.lcm(*(
        (2 * s / space.blocks(r)[1].coords[0]).denominator
        for r in roots for s in space.blocks(r)[0].coords
    ))
    matrices = {r: reflection_matrix(space, r) for r in roots}
    shears = {r: _shear(nu, r, scale) for r in roots}
    ident = Matrix.identity(space.dim)
    central = 0

    def check(el):
        nonlocal central
        word = _expand(el[1])
        e = el[0] if len(el[0]) == nu + nu * (nu - 1) // 2 else [0] * nu + el[0]
        m = ident
        for r in word:
            m = m @ matrices[r]
        b = [m[i, nu] * scale for i in range(nu)]
        w = [(m[i, nu + 1 + j] - m[j, nu + 1 + i]) * scale ** 2 for i, j in combinations(range(nu), 2)]
        assert m[nu, nu] == 1 and e == b + w, word
        assert (not any(e)) == (m == ident), word
        central += not any(e[:nu]) and any(e[nu:])

    def even_word(k):
        out = _identity(nu)
        for _ in range(k):
            r, s = rng.choice(roots), rng.choice(roots)
            out = _times_power(out, _pair(r, shears[r], s, shears[s]), 1, nu)
        return out

    rng = random.Random(name)
    for _ in range(30):
        u, v = even_word(rng.randint(0, 4)), even_word(rng.randint(1, 2))
        for el in (u, _power(u, -1), _times_power(u, u, -1, nu), _commutator(u, v, nu)):
            check(el)
        for n in range(-6, 7):
            check(_power(u, n))
    # the commutators reach the centre, where only w tells them apart
    assert central if nu >= 2 else not central


def test_rank_one_forms_other_than_one_decide_alike(suite):
    # (tau, y, delta) -> (tau, y, delta / g) carries the group over [g] onto
    # the group over [1] and fixes every root, so the verdicts are the same;
    # each Generates was re-checked in its own space.  The suite's
    # "A1 nu3 full" is nullity3_system().
    for name in RANK_ONE:
        R = suite[name]
        want = [generation_check(R, ob) for ob in anisotropic_orbits(R)]
        f = R.finite_part
        for g in (2, H):
            finite = FiniteRootSystem(f.type_symbol, 1, f.roots, BilinearForm(Matrix([[g]])), f.fundamental)
            Rg = construct_ears(finite, **R.translations)
            assert Rg.space.form.gram[R.nullity, R.nullity] == g
            assert [generation_check(Rg, ob) for ob in anisotropic_orbits(Rg)] == want, (name, g)


def test_negative_dot_bases_decide_as_their_orbits(suite):
    # 2 sigma0 lies in T, so -base names the same orbit; the rank-one
    # decision flips it to the member with a positive dot part, and the
    # verdict, certificate included, is the one on the orbit's own base
    for name in RANK_ONE:
        R = suite[name]
        for ob in anisotropic_orbits(R):
            flipped = orbit_closed_form(R, -ob.base)
            assert flipped == ob and flipped.dot_part.ints[0] < 0, (name, ob.base)
            assert generation_check(R, flipped) == generation_check(R, ob), (name, ob.base)


def test_search_found_certificates_are_rechecked(suite, monkeypatch):
    # above rank one a positive comes only from the slice: with nothing
    # removed it writes each base's own reflection, the re-check accepts
    # that word and refuses the empty one, and generation_check returns it
    R = suite["B2 nu1 matched"]
    for ob in anisotropic_orbits(R):
        verdict = _slice_decision(R, ob, dict(R.translations))
        assert isinstance(verdict, Generates) and verdict.certificate, ob.base
        _check_certificate(R.space, ob.base, verdict.certificate)
        with pytest.raises(AssertionError, match="re-verification"):
            _check_certificate(R.space, ob.base, ())
        with monkeypatch.context() as m:
            m.setattr(ears.weyl, "_remaining_translations", lambda R, orbit: dict(R.translations))
            assert generation_check(R, ob) == verdict, ob.base


def test_extract_minimal_over_rank_one_forms_other_than_one(nullity3):
    # the standard A1 left by the removal has the form [1], a positive
    # multiple of [g], so extraction goes the same way as over [1]
    want = extract_minimal(nullity3)
    f = nullity3.finite_part
    for g in (2, H):
        finite = FiniteRootSystem(f.type_symbol, 1, f.roots, BilinearForm(Matrix([[g]])), f.fundamental)
        got = extract_minimal(construct_ears(finite, **nullity3.translations))
        assert got == want, g
        assert got.space == want.space, g
        assert got.removal_chain == want.removal_chain, g


def reference_insert(self, el):
    """_CarrierReducer.insert with the full extended-gcd combination on
    every step, also where a pivot divides and one row is an identity,
    and the reference product in place of the closed-form step."""
    nu, queue = self.nu, [el]
    while queue:
        el = queue.pop()
        e = el[0]
        p = self._pivot(e)
        if p is None:
            if any(e):
                self.residuals.append(el)
            continue
        if p not in self.rows:
            self.rows[p] = _inverse(el) if e[p] < 0 else el
            continue
        row = self.rows[p]
        g, x, y = _xgcd(row[0][p], e[p])
        new = _product(_power(row, x), _power(el, y), nu)
        q1, q2 = row[0][p] // g, e[p] // g
        self.rows[p] = new
        queue.append(_product(row, _power(new, -q1), nu))
        queue.append(_product(el, _power(new, -q2), nu))


def _reducer_state(reducer):
    return ({p: _state(el) for p, el in reducer.rows.items()},
            [_state(el) for el in reducer.residuals])


def unskipped_minimality(R):
    """minimality without the symmetry skip: generation_check on every orbit
    in removal order, with one _Setup, up to the first Generates."""
    orbits, unresolved, setup = _removal_candidates(R), [], _Setup(R)
    for orbit in orbits:
        verdict = ears.weyl.generation_check(R, orbit, _setup=setup)
        if isinstance(verdict, Generates):
            return NotMinimal(orbit, verdict.certificate)
        if isinstance(verdict, Inconclusive):
            unresolved.append(orbit)
    return Unknown(tuple(unresolved)) if unresolved else Minimal(len(orbits))


def test_insert_matches_reference_on_minimality_deciders(suite, monkeypatch):
    built = []
    init = _Rank1Decider.__init__

    def spy(self, nu, families):
        built.append((nu, families))
        init(self, nu, families)

    with monkeypatch.context() as m:
        m.setattr(_Rank1Decider, "__init__", spy)
        for R in [suite[name] for name in RANK_ONE] + [nullity3_system()]:
            unskipped_minimality(R)
    assert len(built) == 26  # the loop stops at the first removable orbit
    for nu, families in built:
        got = _Rank1Decider(nu, families)
        with monkeypatch.context() as m:
            m.setattr(_CarrierReducer, "insert", reference_insert)
            want = _Rank1Decider(nu, families)
        for attr in ("_rows", "_kappa"):
            assert _reducer_state(getattr(got, attr)) == _reducer_state(getattr(want, attr))


def _random_element(rng, pairs, nu):
    out = _identity(nu)
    for el in rng.choices(pairs, k=rng.randint(1, 5)):
        out = _product(out, el, nu)
    return out


def test_insert_matches_reference_in_every_branch(nullity3, monkeypatch):
    letters = _letters(nullity3.space, ([0, 0, 0], [2, 0, 0], [1, 1, 1], [0, 2, 1]))
    pairs = [_pair(*a, *b) for a, b in combinations(letters, 2)]
    branches = Counter()

    def spy(a, b):
        g, x, y = _xgcd(a, b)
        branches["y == 0" if y == 0 else "x == 0" if x == 0 else "general"] += 1
        return g, x, y

    rng = random.Random(2021)
    for _ in range(60):
        # long gcd chains make words grow as powers of one another: up to 3
        # elements keep them short; the central reducer takes commutators
        els = [_random_element(rng, pairs, 3) for _ in range(rng.randint(1, 3))]
        nu = 3 if rng.randrange(2) else 0
        if nu == 0:
            els = [_commutator(a, b, 3) for a, b in combinations(els, 2)]
        got, want = _CarrierReducer(3, nu), _CarrierReducer(3, nu)
        with monkeypatch.context() as m:
            m.setattr(ears.weyl, "_xgcd", spy)
            for el in els:
                got.insert(el)
        for el in els:
            reference_insert(want, el)
        assert _reducer_state(got) == _reducer_state(want)
    assert min(branches.values()) >= 1 and len(branches) == 3, branches


# Closed-form steps (_times_power) and word expansions in one minimality
# call.  On A1 nu3 product-even the reducer ran the full extended-gcd
# combination on every step: 3,948 products of
# (sign, b, w) elements, with every word a flat tuple rebuilt on every
# product.  With one division when a pivot divides it took 401 products
# and 1,255 closed-form steps.  On flat even rows a pair of reflections
# and a commutator are closed forms too, so only steps are left, and
# since the verdict is Minimal no word is expanded.  On A1 nu3 full the
# one Generates expands its certificate.  Of the 7 orbits of A1 nu3
# product-even, minimality checks 3: the signed permutations of Z^3 carry
# the negatives to the other 4, and the steps fall from 1,299 to 551.
def test_rank_one_minimality_work(suite, monkeypatch):
    counts = Counter()
    step, expand = ears.weyl._times_power, ears.weyl._expand

    def counted_step(el, r, n, nu):
        counts["steps"] += 1
        return step(el, r, n, nu)

    def counted_expand(node):
        counts["expansions"] += 1
        return expand(node)

    monkeypatch.setattr(ears.weyl, "_times_power", counted_step)
    monkeypatch.setattr(ears.weyl, "_expand", counted_expand)
    assert isinstance(unskipped_minimality(suite["A1 nu3 product-even"]), Minimal)
    assert counts == {"steps": 1_299}, counts
    counts.clear()
    assert isinstance(minimality(suite["A1 nu3 product-even"]), Minimal)
    assert counts == {"steps": 551}, counts
    assert counts["steps"] <= 401 + 1_255
    counts.clear()
    assert isinstance(minimality(suite["A1 nu3 full"]), NotMinimal)
    assert counts["expansions"] == 1, counts


def _flat_power(word, n):
    """The flat word of a power: a negative n reverses."""
    return (word if n >= 0 else word[::-1]) * abs(n)


def test_word_nodes_expand_to_flat_words(nullity3):
    letters = _letters(nullity3.space, ([0, 0, 0], [2, 0, 0], [1, 1, 1]))
    pool = [(el, _expand(el[1])) for el in (_pair(*a, *b) for a, b in combinations(letters, 2))]
    pool.append((_identity(3), ()))
    rng = random.Random(12)
    for _ in range(400):
        (a, wa), (b, wb) = rng.choice(pool), rng.choice(pool)
        op, n = rng.randrange(3), rng.randint(-6, 6)
        if op == 0:
            el, want = _times_power(a, b, n, 3), wa + _flat_power(wb, n)
        elif op == 1:
            el, want = _commutator(a, b, 3), wa + wb + wa[::-1] + wb[::-1]
        else:
            el, want = _power(a, n), _flat_power(wa, n)
        assert _expand(el[1]) == want
        assert ears.weyl._length(el[1]) == len(want)
        if len(want) <= 500 and op != 1:  # shared nodes, met in both orientations
            pool.append((el, want))


def test_long_chains_expand_without_recursion(nullity3):
    # the longest suite certificate has 11,471 letters
    a, b, c = _letters(nullity3.space, ([0, 0, 0], [2, 0, 0], [1, 1, 1]))
    r, s = _pair(*a, *b), _pair(*a, *c)
    left, right, mixed = _identity(3), _identity(3), _identity(3)
    for _ in range(12_000):
        left = _times_power(left, r, 1, 3)
        right = _times_power(s, right, 1, 3)
        mixed = _power(_times_power(mixed, r, 1, 3), -1)
    wr, ws = _expand(r[1]), _expand(s[1])
    assert _expand(left[1]) == wr * 12_000
    assert _expand(right[1]) == ws * 12_000
    # (m r)^-1 twice is r^-1 m r
    assert _expand(mixed[1]) == wr[::-1] * 6_000 + wr * 6_000


def test_overlong_words_are_refused_before_expansion(nullity3):
    # the length is read off the node DAG: two billion letters are never built
    a, b = _letters(nullity3.space, ([0, 0, 0], [2, 0, 0]))
    r = _pair(*a, *b)
    with pytest.raises(RuntimeError, match="a word of 2000000000 letters exceeds the cap"):
        _expand(("^", r[1], 10**9))
    doubled = r
    for _ in range(20):  # shared nodes count once per use: 2 * 2**20 letters
        doubled = _times_power(doubled, doubled, 1, 3)
    assert ears.weyl._length(doubled[1]) == 2**21 > ears.weyl._WORD_CAP
    with pytest.raises(RuntimeError, match="exceeds the cap"):
        _expand(doubled[1])


def reference_decider_roots(nu, families):
    """The rank-one decider's generators as Vectors (sigma, x, 0): every
    coset plus offset, then sorted."""
    roots = []
    for x, sl in families:
        if sl is None:
            continue
        rows = sl.modulus.rows
        offsets = [Vector([0] * nu), *rows, *(a + b for a, b in combinations(rows, 2))]
        roots += [Vector([*(c + off), x, *[0] * nu]) for c in sorted_vectors(sl.cosets) for off in offsets]
    return sorted_vectors(roots)


def test_generators_match_the_vector_reference(suite, monkeypatch):
    # every decider that minimality, less its symmetry skip, builds on the
    # suite and on nullity3_system(): the same letters in the same order,
    # and the decider's integer tuples assemble no Vector.  The congruence
    # quotient gives up, so a slice is tried on the thirteen orbits it
    # decides otherwise, on top of the 26 rank-one decisions
    deciders = []
    init, shear = _Rank1Decider.__init__, _shear

    def spy_init(self, nu, families):
        deciders.append((nu, families))
        init(self, nu, families)

    with monkeypatch.context() as m:
        m.setattr(_Rank1Decider, "__init__", spy_init)
        give_up_quotient(m)
        for R in [*suite.values(), nullity3_system()]:
            unskipped_minimality(R)
    assert len(deciders) == 26 + 13

    letters, assembled, assemble = [], Counter(), AmbientSpace.assemble

    def spy_shear(nu, root, scale):
        letters.append(root)
        return shear(nu, root, scale)

    def no_assemble(space, *blocks):
        assembled["calls"] += 1
        return assemble(space, *blocks)

    for nu, families in deciders:
        letters.clear()
        with monkeypatch.context() as m:
            m.setattr(ears.weyl, "_shear", spy_shear)
            m.setattr(AmbientSpace, "assemble", no_assemble)
            _Rank1Decider(nu, families)
        assert letters == reference_decider_roots(nu, families)
    assert not assembled, assembled


def test_minimality_sets_up_once_per_call(suite, monkeypatch):
    # one finite Weyl group per minimality call, shared by its orbits and
    # dropped with it: a second call on the same descriptor builds its own
    calls = Counter()
    weyl_group, check = ears.weyl.finite_weyl, ears.weyl.minimality

    def counted_weyl_group(system):
        calls["finite_weyl"] += 1
        return weyl_group(system)

    def counted_check(R):
        calls["minimality"] += 1
        return check(R)

    monkeypatch.setattr(ears.weyl, "finite_weyl", counted_weyl_group)
    monkeypatch.setattr(ears.weyl, "minimality", counted_check)
    R = suite["B2 nu2 matched"]
    assert len(anisotropic_orbits(R)) > 1
    minimality(R)
    assert calls["finite_weyl"] == 1
    minimality(R)
    assert calls["finite_weyl"] == 2
    calls.clear()
    for _ in range(2):
        extract_minimal(nullity3_system())
    assert calls["finite_weyl"] == calls["minimality"] >= 4, calls


def test_finite_order_is_built_only_when_directions_are_left(suite, monkeypatch):
    # a simply-laced system over Z has one orbit, and its removal leaves no
    # direction, so its finite check needs no group order: E7's matrix
    # closure alone passes 2M states.  B2 nu1 matched closes W_fin once
    def refuse(system):
        raise AssertionError(f"finite_weyl({system.label})")

    with monkeypatch.context() as m:
        m.setattr(ears.weyl, "finite_weyl", refuse)
        for label in ("E6", "E7"):
            assert minimality(construct_ears(label, integer_lattice(1))) == Minimal(1), label
    calls, weyl_group = [], ears.weyl.finite_weyl
    monkeypatch.setattr(ears.weyl, "finite_weyl", lambda system: calls.append(system) or weyl_group(system))
    assert isinstance(minimality(suite["B2 nu1 matched"]), Minimal)
    assert calls == [suite["B2 nu1 matched"].finite_part]
