"""Words, parity, Coxeter order, presentation decisions, rewriting."""

import hashlib
import random
from fractions import Fraction

import pytest

from ears.core import construct_ears
from ears.linalg import DimensionMismatch, Vector, reflect, sorted_vectors, vec
from ears.presentation import (
    GeneratorWord,
    Infinite,
    No,
    NoneFound,
    NotARelation,
    Obstruction,
    ParityVector,
    UnknownRoot,
    Yes,
    conjugation_obstruction,
    conjugation_relation,
    conjugation_rewrite,
    coxeter_order,
    coxeter_presentation_decision,
    evaluate,
    line_relation,
    orbit_id,
    parity,
    square_relation,
    witness_word,
)
from ears.semilattice import Lattice, Semilattice
from ears.weyl import anisotropic_orbits, orbit_closed_form
from ears.examples import certificate_word, removable_root
from test_weyl import RADICAL_BASES, change_radical_basis, radical_basis_systems, removal_label_systems

A1 = vec(0, 0, 1, 0, 0)
A2 = vec(1, 0, 1, 0, 0)
A3 = vec(0, 1, 1, 0, 0)
GAMMA = removable_root()


@pytest.fixture(scope="module")
def word8(nullity3):
    w = GeneratorWord((GAMMA,) + tuple(reversed(certificate_word())))
    assert evaluate(w, nullity3.space).matrix.is_identity()
    return w


def test_generator_word_container():
    w = GeneratorWord((A1, A2))
    assert len(w) == 2
    assert list(w) == [A1, A2]
    with pytest.raises(ValueError):
        GeneratorWord((A1, vec(1, 0)))


def test_witness_word_shape():
    w = witness_word((A1, A2, A3))
    assert list(w.letters) == [A1, A2, A3, A1, A2, A3, A2, A1, A3, A2, A1, A3]


def test_evaluate_identities(nullity2):
    sp = nullity2.space
    assert evaluate(witness_word((A1, A2, A3)), sp).matrix.is_identity()
    assert evaluate((), sp).matrix.is_identity()
    assert evaluate((A1, A1), sp).matrix.is_identity()


def test_coxeter_order_same_line(nullity2):
    sp = nullity2.space
    assert coxeter_order(sp, A1, A1) == 1
    assert coxeter_order(sp, A1, A1 * -2) == 1


@pytest.mark.parametrize("pair", [(A1, A2), (A1, A3), (A2, A3)])
def test_coxeter_order_infinite(nullity2, pair):
    x, y = pair
    sp = nullity2.space
    for a, b in ((x, y), (y, x)):
        o = coxeter_order(sp, a, b)
        assert isinstance(o, Infinite)
        v, w = o.certificate
        m = evaluate((a, b), sp).matrix
        power = m
        witnessed = False
        for _ in range(o.cap):
            if power * v == v + w and power * w == w:
                witnessed = True
                break
            power = power @ m
        # some power translates v by a fixed nonzero w, so no power is 1
        assert witnessed
        assert not w.is_zero()


# SHA-256 of the newline-joined reprs in the test below: orders and Infinite
# certificates must stay the same, vector for vector
COXETER_PIN = "ad5620149a88ccbcb383757864da25123e9ef58b523e7f17eaaf1e6ac1d96ad2"


def test_coxeter_order_pinned_on_seeded_pairs(suite):
    rng = random.Random(2006)
    reprs = []
    for name in sorted(suite):
        R = suite[name]
        roots = R.anisotropic_window(2)
        for _ in range(6):
            a, b = rng.choice(roots), rng.choice(roots)
            reprs.append(repr(coxeter_order(R.space, a, b)))
    assert sum(r.startswith("Infinite(") for r in reprs) == 57
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == COXETER_PIN


def test_parity_zero_on_relations(nullity2):
    assert parity((), nullity2).is_zero()
    rel = conjugation_relation(nullity2.space, A1, A2)
    assert evaluate(rel, nullity2.space).matrix.is_identity()
    assert parity(rel, nullity2).is_zero()


def test_parity_detects_odd_orbit_use(nullity3, word8):
    pv = parity(word8, nullity3)
    gid = orbit_id(nullity3, GAMMA)
    assert pv[gid] == 1
    assert not pv.is_zero()
    # each of the eight letters lies in a different orbit, used once
    assert len(pv.support()) == 8
    assert gid in pv.support()


def reference_orbit_id(R, v):
    """orbit_id by classify and the closed form, for a descriptor that
    passes construct_ears's rules."""
    if R.classify(v) != "anisotropic":
        raise UnknownRoot(f"{v} is not an anisotropic root of {R.label}")
    return orbit_closed_form(R, v)


def per_letter_parity(word, R):
    counts = {}
    for letter in word:
        oid = reference_orbit_id(R, letter)
        counts[oid] = counts.get(oid, 0) + 1
    return ParityVector(counts)


def test_orbit_id_matches_two_classify_reference():
    # no letter's half is a root: the letter and its line share one orbit
    for name, R in removal_label_systems().items():
        for v in R.anisotropic_window(2):
            assert orbit_id(R, v).key() == reference_orbit_id(R, v).key(), (name, v)
            assert R.classify(v * Fraction(1, 2)) != "anisotropic", (name, v)


def signed_words(R, rng, count):
    """Seeded words of window-2 roots of R, each letter v often joined by -v."""
    roots = R.anisotropic_window(2)
    words = []
    for _ in range(count):
        letters = rng.choices(roots, k=rng.randint(1, 10))
        letters += [-v for v in letters if rng.random() < 0.5]
        rng.shuffle(letters)
        words.append(tuple(letters))
    return words


def bad_letters(R) -> dict:
    """One letter parity must refuse per kind, with the error it raises."""
    space, nu = R.space, R.nullity
    iso, dot, _ = space.blocks(sorted_vectors(R.anisotropic_window(2))[-1])
    bad = {"zero": (Vector([0] * space.dim), UnknownRoot),
           "dot not a finite root": (space.assemble(iso, dot * 3), UnknownRoot),
           "wrong dimension": (Vector([0] * (space.dim + 1)), DimensionMismatch)}
    if nu:  # no translation set has a den of 7
        offset = Vector([Fraction(1, 7)] + [0] * (nu - 1))
        bad["dual part"] = (space.assemble(iso, dot, offset), UnknownRoot)
        bad["iso outside the class set"] = (space.assemble(iso + offset, dot), UnknownRoot)
    return bad


def raised(f, *args):
    try:
        f(*args)
    except (UnknownRoot, DimensionMismatch) as e:
        return type(e), str(e)
    return None


def parity_systems() -> dict:
    """removal_label_systems(), BC1 nu3 among them, and two systems over
    Z/2, whose letters have den 2: A1 has two orbits there, told apart only
    at the scale of the halves."""
    half = Semilattice.from_cosets([[0]], Lattice(1, [[Fraction(1, 2)]]))
    return {**removal_label_systems(), "A1 half": construct_ears("A1", half),
            "G2 half": construct_ears("G2", half, half.scaled(3))}


def test_parity_matches_per_letter_count(suite, nullity2):
    words = []
    for name, R in suite.items():
        ob = conjugation_obstruction(R)
        if isinstance(ob, Obstruction):
            words.append((name, R, ob.word.letters))
    assert [name for name, _, _ in words] == ["A1 nu3 full"]
    assert (len(words[0][2]), len(set(words[0][2]))) == (318, 13)
    rng = random.Random(13)
    for name in sorted(suite):
        R = suite[name]
        roots = R.anisotropic_window(2)
        for _ in range(3):
            a, b = rng.choice(roots), rng.choice(roots)
            rel = conjugation_relation(R.space, a, b).letters
            words.append((name, R, rel + tuple(rng.choices(roots, k=rng.randint(0, 12)))))
    # 300 relations on the nullity-two system, each even on every orbit,
    # and a seeded prefix of each, which mostly is not
    space, roots = nullity2.space, nullity2.anisotropic_window(2)
    for i in range(300):
        kind, a, b = rng.choice(("line", "square", "conjugation")), rng.choice(roots), rng.choice(roots)
        if kind == "line":
            rel = line_relation(a, -a)
        elif kind == "square":
            rel = square_relation(a)
        else:
            rel = conjugation_relation(space, a, b)
        words += [(i, nullity2, rel.letters), (i, nullity2, rel.letters[:rng.randint(1, len(rel))])]
    # parity counts on integer orbit keys and builds an OrbitDescriptor for
    # an odd orbit only, the reference one per letter: seeded words with v
    # and -v, on systems whose letters can have a larger den than 1
    systems = parity_systems()
    assert {v.den for v in systems["G2 half"].anisotropic_window(2)} == {1, 2}
    assert len(anisotropic_orbits(systems["A1 half"])) == 2
    for name, R in systems.items():
        words += [(name, R, word) for word in signed_words(R, rng, 8)]
    assert sum(not parity(word, R).is_zero() for _, R, word in words) > 300
    for name, R, word in words:
        got, want = parity(word, R), per_letter_parity(word, R)
        assert got == want and hash(got) == hash(want), name
        assert [o.key() for o in got.support()] == sorted(o.key() for o in want.bits), name
        assert [o.base for o in got.support()] == [o.base for o in want.support()], name
        assert [o.base_offset.coords for o in got.support()] == \
            [o.base_offset.coords for o in want.support()], name
        assert repr(got) == repr(want), name


def test_parity_odd_orbits_follow_a_change_of_radical_basis(suite, z2):
    # map seeded words letter by letter through an isometry g of the radical
    # block: the odd orbits of each word's parity map one to one onto those
    # of the image word's parity in the image system
    rng = random.Random(3607)
    checked = 0
    for name, R in radical_basis_systems(suite, z2).items():
        if R.nullity == 0:
            continue
        for g in RADICAL_BASES[R.nullity]:
            image, times = change_radical_basis(R, g)

            def mapped(v):
                iso, dot, _ = R.space.blocks(v)
                return image.space.assemble(times(iso), dot)

            for word in signed_words(R, rng, 3):
                odd = parity(word, R).support()
                moved = {orbit_closed_form(image, mapped(ob.base)) for ob in odd}
                assert len(moved) == len(odd), (name, g)
                assert moved == set(parity(tuple(map(mapped, word)), image).bits), (name, g)
                checked += bool(odd)
    assert checked > 50


def test_parity_rejects_non_roots(nullity2):
    with pytest.raises(UnknownRoot):
        parity((vec(0, 0, 0, 0, 0),), nullity2)
    with pytest.raises(UnknownRoot):
        parity((vec(1, 0, 0, 0, 0),), nullity2)
    # each kind of bad letter, alone and inside a word, raises what the
    # per-letter reference raises
    rng = random.Random(3606)
    for name, R in parity_systems().items():
        good = signed_words(R, rng, 1)[0]
        for kind, (letter, error) in bad_letters(R).items():
            for word in ((letter,), good + (letter,) + good):
                assert raised(parity, word, R) == raised(per_letter_parity, word, R), (name, kind)
                assert raised(parity, word, R)[0] is error, (name, kind)


def test_orbit_id_constant_on_lines(nullity2):
    assert orbit_id(nullity2, A1) == orbit_id(nullity2, -A1)
    assert orbit_id(nullity2, A1) != orbit_id(nullity2, A2)


def test_decision_yes_low_nullity():
    nu1 = construct_ears("A1", Semilattice([[1]], [[0], [1]]))
    assert coxeter_presentation_decision(nu1) == Yes(1)
    nu0 = construct_ears("A2", Semilattice([], [[]]))
    assert coxeter_presentation_decision(nu0) == Yes(0)


def test_decision_no_with_verified_witness(nullity2, nullity3):
    for system in (nullity2, nullity3):
        d = coxeter_presentation_decision(system)
        assert isinstance(d, No)
        assert len(d.word) == 12
        assert evaluate(d.word, system.space).matrix.is_identity()
        for r in d.roots:
            assert system.classify(r) == "anisotropic"


def test_decision_no_on_b2_nullity2():
    b2 = construct_ears(
        "B2",
        Semilattice([[1, 0], [0, 1]], [[0, 0], [0, 1], [1, 0]]),
        long=Semilattice([[1, 0], [0, 1]], [[0, 0]]),
    )
    d = coxeter_presentation_decision(b2)
    assert isinstance(d, No)
    assert evaluate(d.word, b2.space).matrix.is_identity()


def test_obstruction_on_non_minimal(nullity3):
    ob = conjugation_obstruction(nullity3)
    assert isinstance(ob, Obstruction)
    assert ob.matrix.is_identity()
    assert ob.parity[orbit_id(nullity3, GAMMA)] == 1


def test_no_obstruction_on_minimal(nullity2):
    nf = conjugation_obstruction(nullity2)
    assert isinstance(nf, NoneFound)
    assert nf.orbits_checked == 3
    nu0 = construct_ears("A2", Semilattice([], [[]]))
    assert isinstance(conjugation_obstruction(nu0), NoneFound)


def test_rewrite_kills_conjugation_relation(nullity2):
    word = conjugation_relation(nullity2.space, A1, A2)
    red, steps = conjugation_rewrite(word, nullity2, [A1, A3])
    assert len(red) == 0
    assert [s[0] for s in steps] == ["swap", "cancel", "cancel"]


def test_rewrite_kills_conjugated_generator(nullity2):
    sp = nullity2.space
    x, y, ap = A2, A3, A1
    alpha = Vector(reflect(sp, x, reflect(sp, y, ap)))
    word = GeneratorWord((x, y, ap, y, x, alpha))
    assert evaluate(word, sp).matrix.is_identity()
    red, _ = conjugation_rewrite(word, nullity2, [x, y, alpha])
    assert len(red) == 0


def test_rewrite_cannot_kill_odd_parity(nullity3, word8):
    gid = orbit_id(nullity3, GAMMA)
    remaining = [v for v in nullity3.anisotropic_window(3) if orbit_id(nullity3, v) != gid]
    red, _ = conjugation_rewrite(word8, nullity3, remaining)
    assert len(red) > 0
    assert parity(red, nullity3)[gid] == 1
    assert evaluate(red, nullity3.space).matrix.is_identity()


def test_rewrite_rejects_non_relation(nullity2):
    with pytest.raises(NotARelation):
        conjugation_rewrite(GeneratorWord((A1, A2)), nullity2, [A1])


def test_rewrite_rejects_unknown_roots(nullity2):
    with pytest.raises(UnknownRoot):
        conjugation_rewrite(GeneratorWord((vec(1, 1, 0, 0, 0),)), nullity2, [A1])
