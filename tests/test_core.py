"""Construction, axiom checking, classification, irc, trim, characterize."""

import re
from fractions import Fraction
from itertools import product

import pytest

from ears.core import (
    AxiomCheck,
    CharacterizeReport,
    ConstraintViolation,
    EarsDescriptor,
    NotBCType,
    WrongArity,
    _as_finite,
    _check_semilattice,
    _dot_form,
    _finite_root_system_check,
    _require,
    characterize,
    construct_ears,
    descriptor_from_config,
    descriptor_to_config,
    irc,
    irc_window,
    is_root,
    trim,
    verify_axioms,
)
from ears.examples import doubled_lattice, integer_lattice, nullity2_system, odd_translated, product_even_semilattice
from ears.finite import InvalidRank, build_finite, length_classes
from ears.linalg import (
    AmbientSpace,
    DimensionMismatch,
    Matrix,
    Vector,
    reflect,
    reflection_matrix,
    scaled_ints,
    sorted_vectors,
    span_rank,
    vec,
)
from ears.semilattice import (
    Lattice,
    RankMismatch,
    Semilattice,
    sum_condition,
    verify_semilattice,
)
from ears.weyl import extract_minimal

H = Fraction(1, 2)

Z1 = Semilattice([[1]], [[0], [1]])
TWOZ1 = Semilattice([[1]], [[0]])
E_ODD1 = Semilattice([[1]], [[1]], translated=True)
S_EVEN2 = Semilattice([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]])


@pytest.fixture(scope="module")
def a1_sec2():
    return construct_ears("A1", S_EVEN2)


@pytest.fixture(scope="module")
def a1_nu1():
    return construct_ears("A1", Z1)


@pytest.fixture(scope="module")
def bc1_nu1():
    return construct_ears("BC1", Z1, extra=E_ODD1)


@pytest.fixture(scope="module")
def bc2_nu1():
    return construct_ears("BC2", Z1, Z1, E_ODD1)


# --- classification ---------------------------------------------------------


@pytest.mark.parametrize(
    "coords,kind",
    [
        ((0, 0, 1, 0, 0), "anisotropic"),
        ((1, 0, 1, 0, 0), "anisotropic"),
        ((1, 1, 1, 0, 0), "not_root"),
        ((1, 1, 0, 0, 0), "isotropic"),
        ((1, 0, 0, 0, 0), "isotropic"),
        ((0, 0, 2, 0, 0), "not_root"),
        ((0, 0, 1, 1, 0), "not_root"),
        ((0, 0, 1, 0, 1), "not_root"),
    ],
)
def test_classify(a1_sec2, coords, kind):
    assert is_root(a1_sec2, vec(*coords)) == kind


def test_window_sizes(a1_sec2):
    # anisotropic roots come in +-pairs over the short translation window
    assert len(a1_sec2.anisotropic_window(2)) == 42
    assert len(a1_sec2.isotropic_window(2)) == 25
    assert len(construct_ears("A1", Z1).anisotropic_window(2)) == 10


def test_bc2_window_membership(bc2_nu1):
    w = set(bc2_nu1.anisotropic_window(2))
    assert vec(1, 0, 2, 0) in w
    assert vec(0, 1, 1, 0) in w
    assert vec(1, 2, 0, 0) in w
    # doubled roots only occur over odd translations
    assert vec(2, 2, 0, 0) not in w


# --- axiom verification ------------------------------------------------------

AXIOM_CASES = [
    ("A1", (Z1,), {}, 4),
    ("A1", (S_EVEN2,), {}, 3),
    ("A2", (Z1,), {}, 3),
    ("B2", (Z1, TWOZ1), {}, 3),
    ("G2", (Z1, Z1), {}, 3),
    ("BC1", (Z1,), {"extra": E_ODD1}, 4),
    ("BC2", (Z1, Z1, E_ODD1), {}, 3),
]


@pytest.mark.parametrize("label,args,kwargs,bound", AXIOM_CASES)
def test_axioms_hold(label, args, kwargs, bound):
    rep = verify_axioms(construct_ears(label, *args, **kwargs), bound)
    assert rep.ok, rep.checks


def test_set_mode_flags_unreduced():
    # {0, +-a, +-2a} violates reducedness and nothing else
    sp = AmbientSpace(0, Matrix([[1]]))
    rep = verify_axioms([vec(0), vec(1), vec(-1), vec(2), vec(-2)], bound=2, space=sp)
    assert not rep.ok
    assert not rep.check("R4").passed
    for name in ("R1", "R2", "R3", "R5", "R6", "R7", "R8"):
        assert rep.check(name).passed


def test_failing_details_say_what_failed():
    sp = AmbientSpace(0, Matrix([[1]]))
    rep = verify_axioms([vec(1), vec(-1), vec(2), vec(-2)], bound=2, space=sp)
    assert rep.check("R1").detail == "0 missing from the given set"
    assert rep.check("R4").detail == "2*root in the set for 2 of 4 anisotropic vectors"
    sp = AmbientSpace(1, Matrix([[2]]))
    rep = verify_axioms([vec(0, 0, 0), vec(0, 1, 0), vec(0, -1, 0), vec(2, 0, 0), vec(-2, 0, 0)], bound=2, space=sp)
    assert (rep.check("R1").passed, rep.check("R1").detail) == (True, "0 in the given set")
    assert not rep.check("R8").passed
    assert rep.check("R8").detail == "2 of 3 isotropic vectors pair with no anisotropic one"
    # descriptor mode, built directly: construct_ears refuses both
    z1 = integer_lattice(1)
    c = verify_axioms(EarsDescriptor(build_finite("BC", 1), 1, {"short": z1, "extra": z1}), 2).check("R4")
    assert (c.passed, c.detail) == (False, "2*root is a root for 10 of 20 window roots (window 2)")
    two_z = Semilattice([[1]], [[0]])
    c = verify_axioms(EarsDescriptor(build_finite("A", 1), 1, {"short": two_z}, isotropic=z1), 2).check("R8")
    assert (c.passed, c.detail) == (False, "2 of 5 window isotropic roots pair with no anisotropic root (window 2)")


# --- root strings (R6) against a brute-force reference ----------------------

TWOZ2 = Semilattice([[1, 0], [0, 1]], [[0, 0]])
Z2 = Semilattice([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [1, 1]])
HALF_PLUS_Z1 = Semilattice.from_cosets([[H]], Lattice(1, [[1]]), translated=True)


def _raw(label, nullity, **translations):
    """A descriptor built without construct_ears's constraint checks."""
    return EarsDescriptor(_as_finite(label), nullity, translations)


def _string_failures(desc, bound):
    """Window pairs (a, b) whose string b + n*a, n in [-8, 8], is not one
    interval [-d, u] around 0 with d - u = 2(a,b)/(a,a); classify decides
    each b + n*a."""
    sp = desc.space
    bad = set()
    for a in desc.anisotropic_window(bound):
        for b in desc.anisotropic_window(bound) + desc.isotropic_window(bound):
            ns = [n for n in range(-8, 9) if desc.classify(b + a * n) != "not_root"]
            c = 2 * sp.pair(b, a) / sp.pair(a, a)
            interval = ns == list(range(ns[0], ns[-1] + 1))
            if not (0 in ns and interval and -ns[0] - ns[-1] == c):
                bad.add((a, b))
    return bad


# (descriptor, window, R6 witnesses: the first two failing window pairs of
# each family pair, in window order)
R6_CASES = [
    pytest.param(lambda: _raw("B2", 1, short=Z1, long=E_ODD1), 2, (), id="B2-Z-odd"),
    pytest.param(
        lambda: _raw("B2", 2, short=TWOZ2, long=Z2),
        1,
        (
            ((0, 0, -1, 0, 0, 0), (-1, -1, -1, -1, 0, 0)),
            ((0, 0, -1, 0, 0, 0), (-1, 0, -1, -1, 0, 0)),
            ((0, 0, -1, 0, 0, 0), (-1, -1, -1, 1, 0, 0)),
        ),
        id="B2-2Z2-Z2",
    ),
    pytest.param(
        lambda: _raw("A2", 1, short=E_ODD1),
        2,
        (
            ((-1, -1, -1, 0), (-1, -1, 0, 0)),
            ((-1, -1, -1, 0), (1, -1, 0, 0)),
            ((-1, -1, -1, 0), (-1, 0, -1, 0)),
        ),
        id="A2-odd",
    ),
    pytest.param(
        lambda: _raw("B2", 1, short=HALF_PLUS_Z1, long=Z1), 2, (), id="B2-half-Z"
    ),
    pytest.param(
        lambda: _raw("B2", 1, short=HALF_PLUS_Z1, long=TWOZ1),
        2,
        (
            (("-3/2", -1, 0, 0), ("-3/2", 0, -1, 0)),
            (("-3/2", -1, 0, 0), ("-1/2", 0, -1, 0)),
            (("-3/2", -1, 0, 0), ("-3/2", 0, 1, 0)),
        ),
        id="B2-half-2Z",
    ),
    pytest.param(
        lambda: construct_ears("A1", Semilattice([[H]], [[0], [H]])), 3, (), id="A1-halfZ"
    ),
    # one nu = 1 system per type of rank 3 and above, G2 (strings of length
    # 4) and BC3 (doubles), each with a failing descriptor, at window 1
    pytest.param(lambda: construct_ears("B3", Z1, Z1), 1, (), id="B3-Z-Z"),
    pytest.param(
        lambda: _raw("B3", 1, short=TWOZ1, long=Z1),
        1,
        (
            ((0, -1, 0, 0, 0), (-1, -1, -1, 0, 0)),
            ((0, -1, 0, 0, 0), (1, -1, -1, 0, 0)),
            ((0, -1, 0, 0, 0), (-1, -1, 0, -1, 0)),
        ),
        id="B3-2Z-Z",
    ),
    pytest.param(lambda: construct_ears("C3", Z1, TWOZ1), 1, (), id="C3-Z-2Z"),
    pytest.param(
        lambda: _raw("C3", 1, short=E_ODD1, long=Z1),
        1,
        (
            ((-1, -1, -1, 0, 0), (-1, -1, 0, -1, 0)),
            ((-1, -1, -1, 0, 0), (1, -1, 0, -1, 0)),
            ((-1, -1, -1, 0, 0), (-1, -1, 0, 1, 0)),
        ),
        id="C3-odd-Z",
    ),
    pytest.param(lambda: construct_ears("D4", Z1), 1, (), id="D4-Z"),
    pytest.param(
        lambda: _raw("D4", 1, short=E_ODD1),
        1,
        (
            ((-1, -1, -1, 0, 0, 0), (-1, -1, 0, -1, 0, 0)),
            ((-1, -1, -1, 0, 0, 0), (1, -1, 0, -1, 0, 0)),
            ((-1, -1, -1, 0, 0, 0), (-1, -1, 0, 0, -1, 0)),
        ),
        id="D4-odd",
    ),
    pytest.param(lambda: construct_ears("F4", Z1, Z1), 1, (), id="F4-Z-Z"),
    pytest.param(
        lambda: _raw("F4", 1, short=Z1, long=E_ODD1),
        1,
        (
            ((-1, -1, -1, 0, 0, 0), (-1, -1, 0, 0, 0, 0)),
            ((-1, -1, -1, 0, 0, 0), (1, -1, 0, 0, 0, 0)),
            ((-1, -1, -1, 0, 0, 0), (-1, 0, -1, 0, 0, 0)),
        ),
        id="F4-Z-odd",
    ),
    pytest.param(lambda: construct_ears("G2", Z1, Z1), 1, (), id="G2-Z-Z"),
    pytest.param(
        lambda: _raw("G2", 1, short=TWOZ1, long=Z1),
        1,
        (
            ((0, -1, -1, 0), (-1, 0, -1, 0)),
            ((0, -1, -1, 0), (1, 0, -1, 0)),
            ((0, -1, -1, 0), (-1, 0, 1, 0)),
        ),
        id="G2-2Z-Z",
    ),
    pytest.param(lambda: construct_ears("BC3", Z1, Z1, E_ODD1), 1, (), id="BC3-Z-Z-odd"),
    pytest.param(
        lambda: _raw("BC3", 1, short=TWOZ1, long=Z1, extra=Z1),
        1,
        (
            ((0, -1, 0, 0, 0), (-1, -1, -1, 0, 0)),
            ((0, -1, 0, 0, 0), (1, -1, -1, 0, 0)),
            ((0, -1, 0, 0, 0), (-1, -1, 0, -1, 0)),
        ),
        id="BC3-2Z-Z-Z",
    ),
]


@pytest.mark.parametrize("make,bound,expected", R6_CASES)
def test_root_strings_match_reference(make, bound, expected):
    desc = make()
    got = verify_axioms(desc, bound).check("R6")
    failures = _string_failures(desc, bound)
    assert got.passed == (not failures)
    assert all(w in failures for w in got.witnesses)
    assert [(a.coords, b.coords) for a, b in got.witnesses] == [
        (tuple(map(Fraction, a)), tuple(map(Fraction, b))) for a, b in expected
    ]


# --- construction error paths -------------------------------------------------


def test_simply_laced_rejects_long():
    with pytest.raises(WrongArity):
        construct_ears("A1", Z1, long=Z1)


def test_b2_needs_long():
    with pytest.raises(WrongArity):
        construct_ears("B2", Z1)


def test_long_closure_constraint():
    with pytest.raises(ConstraintViolation, match="long"):
        construct_ears("B2", Z1, Semilattice([[2]], [[0]]))


def test_short_must_span():
    with pytest.raises(ConstraintViolation, match="span"):
        construct_ears("A1", Semilattice([[1, 0]], [[0, 0]]))


def test_residue_tables_are_built_on_first_use(monkeypatch):
    # a set builds its table when membership is first asked of it, so a
    # construct that fails its constraints builds none; a None table (a
    # degenerate set or one over the cap) falls back to reduction modulo
    # the modulus.  Z is built here: a shared set may already hold its table.
    import ears.semilattice

    built = []
    monkeypatch.setattr(ears.semilattice, "residue_table", lambda s: built.append(s))
    with pytest.raises(ConstraintViolation, match="0 is missing from the short translation set"):
        construct_ears("A1", odd_translated(1))
    z = Semilattice([[1]], [[0], [1]])
    R = construct_ears("A1", z)
    assert built == []
    assert [R.classify(v) for v in (vec(1, 1, 0), vec(H, 1, 0), vec(3, -1, 0))] == [
        "anisotropic", "not_root", "anisotropic"]
    assert built == [z]
    assert [R.classify(v) for v in (vec(2, 0, 0), vec(1, 0, 0))] == ["isotropic", "isotropic"]
    assert built == [z, R.isotropic]


def test_a_refused_set_builds_no_table(monkeypatch):
    # verify_semilattice names the escaping pair on the reduced cosets, so
    # a construct refused for a set that is not closed builds no table
    import ears.semilattice

    built = []
    monkeypatch.setattr(ears.semilattice, "residue_table", lambda s: built.append(s))
    s = Semilattice.from_cosets([[0], [1]], Lattice(1, [[4]]))
    with pytest.raises(ConstraintViolation, match="^short translation set is not closed under x"):
        construct_ears("A1", s)
    assert verify_semilattice(s).problems == (
        "not closed under x + 2y: Vector((0)) + 2*Vector((1)) escapes",)
    assert built == []


def test_extra_disjoint_from_doubled_short():
    with pytest.raises(ConstraintViolation, match="extra"):
        construct_ears("BC1", Z1, extra=Semilattice([[2]], [[2]], translated=True))


def test_simply_laced_needs_lattice():
    with pytest.raises(ConstraintViolation, match="lattice"):
        construct_ears("A2", Semilattice([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]]))


# --- irc ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,args,kwargs",
    [
        ("A1", (S_EVEN2,), {}),
        ("BC2", (Z1, Z1, E_ODD1), {}),
        ("G2", (Z1, Z1), {}),
    ],
)
def test_irc_fixed_point(label, args, kwargs):
    desc = construct_ears(label, *args, **kwargs)
    closed = irc(desc)
    assert closed.isotropic == desc.isotropic
    assert closed == desc


def test_irc_window_recovers_isotropic(a1_sec2):
    aniso = a1_sec2.anisotropic_window(2)
    got = [v for v in irc_window(aniso, a1_sec2.space) if v.max_norm() <= 2]
    assert got == sorted_vectors(a1_sec2.anisotropic_window(2) + a1_sec2.isotropic_window(2))


# --- trim -----------------------------------------------------------------------


def test_trim_bc1(bc1_nu1):
    tr = trim(bc1_nu1)
    assert tr.finite_part.label == "A1"
    assert tr == construct_ears("A1", Semilattice([[H]], [[0], [H]]))
    assert verify_axioms(tr, 3).ok
    assert verify_semilattice(tr.translations["short"]).ok


def test_trim_bc2(bc2_nu1):
    tr = trim(bc2_nu1)
    assert tr.finite_part.label == "B2"
    assert tr.translations["short"] == Semilattice([[H]], [[0], [H]])
    assert tr.translations["long"] == Z1
    assert verify_axioms(tr, 2).ok


def test_trim_reflections_agree_up_to_dilation(bc1_nu1):
    tr = trim(bc1_nu1)

    def reflections(R, bound):
        return frozenset(reflection_matrix(R.space, v) for v in R.anisotropic_window(bound))

    assert reflections(bc1_nu1, 2) <= reflections(tr, 2)
    assert reflections(tr, 2) <= reflections(bc1_nu1, 4)


def test_trim_rejects_non_bc(bc1_nu1):
    with pytest.raises(NotBCType):
        trim(trim(bc1_nu1))
    with pytest.raises(NotBCType):
        trim(construct_ears("A1", Z1))


# --- characterize -----------------------------------------------------------------


def test_characterize_accepts_windows(a1_sec2, bc1_nu1):
    rep = characterize(a1_sec2.anisotropic_window(3), a1_sec2.space)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    rep = characterize(bc1_nu1.anisotropic_window(3), bc1_nu1.space)
    assert rep.ok, [c for c in rep.checks if not c.passed]


def test_characterize_flags_unreduced():
    sp = AmbientSpace(0, Matrix([[1]]))
    rep = characterize([vec(1), vec(-1), vec(2), vec(-2)], sp)
    assert not rep.check("reduced").passed
    assert rep.check("reflection_invariance").passed


def test_characterize_flags_missing_root(a1_sec2):
    w = [v for v in a1_sec2.anisotropic_window(2) if v != vec(1, 0, 1, 0, 0)]
    rep = characterize(w, a1_sec2.space)
    assert not rep.check("reflection_invariance").passed


def test_characterize_flags_isotropic_input(a1_sec2):
    rep = characterize(a1_sec2.anisotropic_window(2) + a1_sec2.isotropic_window(2), a1_sec2.space)
    assert not rep.check("reflection_invariance").passed


def test_characterize_flags_zero_dot_part():
    # not isotropic for the full form (its dual part pairs with its iso
    # part), but its dot part is zero, so it has no reflection in the check
    sp = AmbientSpace(1, Matrix([[2]]))
    rep = characterize([vec(1, 0, 1)], sp)
    check = rep.check("reflection_invariance")
    assert not check.passed
    assert check.witnesses == (vec(1, 0, 1),)


def test_characterize_full_lattice_names_the_dual_part():
    sp = AmbientSpace(1, Matrix([[2]]))
    rep = characterize([vec(0, 1, 0), vec(0, -1, 0), vec(1, 1, 1)], sp)
    check = rep.check("full_lattice")
    assert not check.passed
    assert "non-zero dual part" in check.detail


def _reference_reflection_check(window, space):
    """Brute force with linalg.reflect on every ordered pair, in the order
    and with the box rule and cut-off of characterize: pairs whose image
    has its dot part outside the box are not counted, and the search stops
    after three witnesses or at the end of the block of dot parts that
    gave the first one.  Returns (passed, count of pairs checked when
    passed, witnesses); valid on windows with zero dual parts."""
    vs = sorted(set(window), key=lambda v: v.coords)
    box = max(v.max_norm() for v in vs)
    members = set(vs)
    flat = [v for v in vs if space.blocks(v)[1].is_zero()]
    if flat:
        return False, None, tuple(flat[:3])
    groups = {}
    for v in vs:
        groups.setdefault(space.blocks(v)[1].coords, []).append(v)
    bad, checked = [], 0
    for alphas in groups.values():
        for betas in groups.values():
            for alpha in alphas:
                for beta in betas:
                    img = reflect(space, alpha, beta)
                    if space.blocks(img)[1].max_norm() > box:
                        continue
                    checked += 1
                    if img.max_norm() <= box and img not in members:
                        bad.append((alpha, beta, img))
                        if len(bad) == 3:
                            return False, None, tuple(bad)
            if bad:
                return False, None, tuple(bad)
    return True, checked, ()


def _reflection_summary(window, space):
    check = characterize(window, space).check("reflection_invariance")
    m = re.match(r"(\d+) reflection images", check.detail)
    return check.passed, int(m.group(1)) if m else None, check.witnesses


CHECKED_AT_WINDOW_TWO = {
    "A1 nu1 doubled": 36, "A1 nu1 full": 100, "A1 nu2 full": 2500,
    "A1 nu2 product-even": 1764, "A1 nu3 full": 62500,
    "A1 nu3 product-even": 54756, "A2 nu0": 36, "A2 nu1": 900,
    "B2 nu1 doubled": 1024, "B2 nu1 matched": 1600, "B2 nu2 matched": 18496,
    "B2 nu2 product-even": 14400, "BC1 nu1": 196, "BC1 nu2 shifted": 2500,
    "BC2 nu1": 2304, "G2 nu1": 1400,
}


@pytest.mark.parametrize("name", sorted(CHECKED_AT_WINDOW_TWO))
def test_characterize_matches_reference_on_suite(suite, name):
    R = suite[name]
    got = _reflection_summary(R.anisotropic_window(2), R.space)
    assert got == (True, CHECKED_AT_WINDOW_TWO[name], ())
    # the brute force costs a Fraction reflection per pair: 62,500 pairs on
    # A1 nu3 full at window 2, so the two nullity-three systems use window 1
    window = R.anisotropic_window(1 if R.nullity == 3 else 2)
    got = _reflection_summary(window, R.space)
    assert got == _reference_reflection_check(window, R.space)


A1_WINDOW = [vec(i, d, 0) for i in (-1, 0, 1) for d in (-1, 1)]
T = Fraction(1, 3)


@pytest.mark.parametrize(
    "window,expected",
    [
        (  # one root removed
            [v for v in A1_WINDOW if v != vec(1, 1, 0)],
            (False, None, ((vec(-1, -1, 0), vec(-1, -1, 0), vec(1, 1, 0)),
                        (vec(0, -1, 0), vec(1, -1, 0), vec(1, 1, 0)))),
        ),
        (  # a rescaled root: c = -4/3, divisible images
            A1_WINDOW + [vec(2 * T, 2 * T, 0)],
            (False, None, ((vec(-1, -1, 0), vec(2 * T, 2 * T, 0), vec(-2 * T, -2 * T, 0)),
                        (vec(0, -1, 0), vec(2 * T, 2 * T, 0), vec(2 * T, -2 * T, 0)))),
        ),
        (  # a rescaled dot part: c = 4/3, images off the scaled lattice
            A1_WINDOW + [vec(-1, -3 * H, 0), vec(1, 3 * H, 0)],
            (False, None, ((vec(-1, -3 * H, 0), vec(-1, -1, 0), vec(T, 1, 0)),
                        (vec(-1, -3 * H, 0), vec(0, -1, 0), vec(4 * T, 1, 0)))),
        ),
        (  # an isotropic member
            A1_WINDOW + [vec(1, 0, 0)],
            (False, None, (vec(1, 0, 0),)),
        ),
        (  # half-integer coordinates throughout
            [v * H for v in A1_WINDOW],
            (True, 36, ()),
        ),
        (  # one half-integer translate
            A1_WINDOW + [vec(H, 1, 0)],
            (False, None, ((vec(0, -1, 0), vec(H, 1, 0), vec(H, -1, 0)),)),
        ),
    ],
    ids=["removed", "rescaled-root", "rescaled-dot", "isotropic", "halved", "half-shift"],
)
def test_characterize_matches_reference_on_broken_windows(a1_nu1, window, expected):
    got = _reflection_summary(window, a1_nu1.space)
    assert got == _reference_reflection_check(window, a1_nu1.space)
    assert got == expected


# characterize as it was before the box index, verbatim: every pair is
# formed, and the pairs whose image leaves the window box are skipped one by one.
def _reference_characterize(window, space: AmbientSpace) -> CharacterizeReport:
    """Test a finite window of an alleged anisotropic root set.

    Four hypotheses: closure under its own reflections (images leaving the
    window box are ignored), the image in the dot space is an irreducible
    finite root system, the generated subgroup is a full lattice, and no
    root has its double in the set.  All verdicts are window-scale.

    Reflections use the form on the (iso, dot) part, for which a vector is
    isotropic exactly when its dot part is zero, and images have zero dual
    part.  The window is scaled to integers once: for each pair of dot
    parts the coefficient c = p/q is exact, and the image of beta in alpha
    has scaled iso part (q beta - p alpha) / q.
    """
    vs = sorted(set(window), key=lambda v: v.coords)
    checks = []
    box = max((v.max_norm() for v in vs), default=Fraction(0))
    members = {v.coords for v in vs}
    nu, ell = space.nu, space.rank

    scale, ints = scaled_ints(vs)
    groups: dict[tuple, list] = {}  # dot part -> (root, scaled iso part)
    targets: dict[tuple, set] = {}  # dot part -> scaled iso parts, dual zero
    for v, x in zip(vs, ints):
        dot = space.blocks(v)[1].coords
        groups.setdefault(dot, []).append((v, x[:nu]))
        if not any(x[nu + ell :]):
            targets.setdefault(dot, set()).add(tuple(x[:nu]))

    iso_members = [v for v in vs if space.blocks(v)[1].is_zero()]
    dot_form = _dot_form(space)
    bad = list(iso_members[:3])
    checked = 0
    if not bad:
        dots = {d: Vector(d) for d in groups}
        for da_key, alphas in groups.items():
            da = dots[da_key]
            caa = dot_form.evaluate(da, da)
            for db_key, betas in groups.items():
                db = dots[db_key]
                c = 2 * dot_form.evaluate(db, da) / caa
                img_dot = db - da * c
                if img_dot.max_norm() > box:
                    continue
                p, q = c.numerator, c.denominator
                edge = int(box * scale) * q
                target = targets.get(img_dot.coords, ())
                q_betas = [(beta, [q * t for t in xb]) for beta, xb in betas]
                for alpha, xa in alphas:
                    p_alpha = [p * t for t in xa]
                    for beta, q_beta in q_betas:
                        checked += 1
                        y = [u - w for u, w in zip(q_beta, p_alpha)]
                        if max(map(abs, y), default=0) > edge:
                            continue
                        if q == 1:
                            key = tuple(y)
                        else:
                            key = None if any(t % q for t in y) else tuple(t // q for t in y)
                        if key not in target:
                            img_iso = [Fraction(t, q * scale) for t in y]
                            bad.append((alpha, beta, space.assemble(img_iso, img_dot.coords)))
                            if len(bad) >= 3:
                                break
                    if len(bad) >= 3:
                        break
                if bad:
                    break
            if bad:
                break
    if not bad:
        detail = (
            f"{checked} reflection images inside the window box "
            f"(norm {box}) are all members"
        )
    elif iso_members:
        detail = "isotropic vector in an allegedly anisotropic set"
    else:
        detail = "reflection image escapes the set"
    checks.append(
        AxiomCheck("reflection_invariance", not bad, detail, tuple(bad[:3]))
    )

    dot_set = {space.blocks(v)[1] for v in vs}
    dot_set.discard(Vector([0] * ell))
    finite_ok, finite_detail = _finite_root_system_check(dot_set, space)
    checks.append(AxiomCheck("finite_image", finite_ok, finite_detail))

    rank = span_rank(vs)
    dual_zero = all(space.blocks(v)[2].is_zero() for v in vs)
    checks.append(
        AxiomCheck(
            "full_lattice",
            rank == space.nu + ell and dual_zero,
            f"generated subgroup has rank {rank}, expected {space.nu + ell}; "
            "finitely generated rational, so discrete"
            if dual_zero
            else "a vector has a non-zero dual part, outside the (iso, dot) span",
        )
    )

    doubles = [v for v in vs if (v * 2).coords in members]
    checks.append(
        AxiomCheck(
            "reduced",
            not doubles,
            f"no vector has its double in the set ({len(vs)} vectors)"
            if not doubles
            else "a vector and its double are both present",
            tuple(doubles[:3]),
        )
    )
    return CharacterizeReport(tuple(checks))


def _perturbed(window, space):
    """The window and broken copies of it: first, middle or last root
    dropped; a root scaled by 3/2 or doubled; every root halved; every
    third root shifted by 1/2 in each iso coordinate; 0 added."""
    w = sorted(window, key=lambda v: v.coords)
    mid, nu = len(w) // 2, space.nu
    half = vec(*([H] * nu + [0] * (space.dim - nu)))
    return {
        "window": w,
        "first dropped": w[1:],
        "middle dropped": w[:mid] + w[mid + 1 :],
        "last dropped": w[:-1],
        "scaled 3/2": w + [w[mid] * Fraction(3, 2)],
        "doubled": w + [w[mid] * 2],
        "halved": [v * H for v in w],
        "half-shifted": [v + half if i % 3 == 0 else v for i, v in enumerate(w)],
        "zero added": w + [vec(*[0] * space.dim)],
    }


@pytest.mark.parametrize("name", sorted(CHECKED_AT_WINDOW_TWO))
def test_characterize_matches_the_pair_loop_on_perturbed_windows(suite, name):
    R = suite[name]
    for n in (1,) if R.nullity == 3 else (1, 2):
        for label, window in _perturbed(R.anisotropic_window(n), R.space).items():
            got = repr(characterize(window, R.space))
            assert got == repr(_reference_characterize(window, R.space)), (n, label)


def test_characterize_counts_every_pair_on_the_extraction_window(nullity3):
    R = extract_minimal(nullity3)
    check = characterize(R.anisotropic_window(3), R.space).check("reflection_invariance")
    assert check.detail == "311364 reflection images inside the window box (norm 3) are all members"


# Packed keys: the box [-1, 1]^2 at dot parts +-e, whose in-box images
# reach +-edge in both iso coordinates; dot parts +-3e over [-3, 3]^2 with
# +-e over [-1, 1]^2, where the pairs (+-3e, +-e) have c = +-2/3 and give
# the first witnesses from negative coordinates, some at y_i = 9 = edge;
# the box less (1, 0, e), an escaping image whose key at radix 2 * edge
# would be that of the member (-1, 1, e).
_BOX = [vec(s, t, d, 0, 0) for s, t in product((-1, 0, 1), repeat=2) for d in (1, -1)]
_PACKING_EDGES = {
    "at the edge": _BOX,
    "q = 3": [vec(s, t, d, 0, 0) for s, t in product(range(-3, 4), repeat=2) for d in (3, -3)] + _BOX,
    "alias at radix 2 edge": [v for v in _BOX if v != vec(1, 0, 1, 0, 0)],
}


@pytest.mark.parametrize("label", sorted(_PACKING_EDGES))
def test_characterize_packs_keys_without_aliasing(label):
    space = AmbientSpace(2, Matrix([[2]]))
    got = characterize(_PACKING_EDGES[label], space)
    assert repr(got) == repr(_reference_characterize(_PACKING_EDGES[label], space))
    check = got.check("reflection_invariance")
    assert check.passed == (label == "at the edge")
    if label == "alias at radix 2 edge":
        assert {img for _, _, img in check.witnesses} == {vec(1, 0, 1, 0, 0)}


def test_characterize_refuses_the_wrong_dimension(nullity2):
    # a 7-dimensional vector used to be sliced as if it were 5-dimensional
    with pytest.raises(DimensionMismatch, match="vector dim 7, space dim 5"):
        characterize([vec(0, 0, 1, 0, 0), vec(0, 0, 1, 0, 0, 0, 0)], nullity2.space)


# --- config round trip --------------------------------------------------------------


def test_config_round_trip(a1_sec2, bc1_nu1, bc2_nu1):
    for desc in (a1_sec2, bc2_nu1, bc1_nu1, trim(bc1_nu1)):
        cfg = descriptor_to_config(desc)
        assert descriptor_from_config(cfg) == desc, cfg


def test_config_serializes_fractions(bc1_nu1):
    cfg = descriptor_to_config(trim(bc1_nu1))
    assert any("/" in str(x) for row in cfg["S"]["cosets"] for x in row)


def test_config_cosets_sorted(bc2_nu1):
    cfg = descriptor_to_config(bc2_nu1)
    rows = cfg["S"]["cosets"]
    assert rows == sorted(rows)


# --- construction rules against the hand-written reference --------------------


def _reference_construct_ears(x, short, long=None, extra=None, removal_chain=()) -> EarsDescriptor:
    """Build a descriptor from a finite type and per-length translation sets.

    short/long/extra hold the isotropic translations of the corresponding
    root-length class; which ones must be present depends on the type.
    Constraint failures raise ConstraintViolation naming the violated
    inclusion; a translation set supplied for an absent length class (or a
    missing one) raises WrongArity.
    """
    finite = _as_finite(x)
    t, rank = finite.type_symbol, finite.rank
    nu = short.ambient

    if t in ("A", "D", "E"):
        if long is not None or extra is not None:
            raise WrongArity(f"{finite.label} takes only a short translation set")
        _check_semilattice(short, "short", True, finite.label != "A1")
        trans = {"short": short}
    elif t in ("B", "C", "F", "G"):
        if long is None or extra is not None:
            raise WrongArity(f"{finite.label} takes short and long translation sets")
        if long.ambient != nu:
            raise RankMismatch("short and long translation sets differ in rank")
        k = 3 if t == "G" else 2
        s_lattice = (t == "C") or t in ("F", "G")
        l_lattice = (t == "B" and rank >= 3) or t in ("F", "G")
        _check_semilattice(short, "short", True, s_lattice)
        _check_semilattice(long, "long", True, l_lattice)
        _require(sum_condition(long, short, k), f"long + {k}*short ⊄ long")
        _require(sum_condition(short, long, 1), "short + long ⊄ short")
        trans = {"short": short, "long": long}
    elif t == "BC" and rank >= 2:
        if long is None or extra is None:
            raise WrongArity(
                f"{finite.label} takes short, long, and extra translation sets"
            )
        if long.ambient != nu or extra.ambient != nu:
            raise RankMismatch("translation sets differ in rank")
        _check_semilattice(short, "short", True, False)
        _check_semilattice(long, "long", True, rank >= 3)
        _check_semilattice(extra, "extra", False, False)
        _require(
            not extra.intersects(short.scaled(2)),
            "extra ∩ 2*short ≠ ∅",
        )
        _require(sum_condition(long, short, 2), "long + 2*short ⊄ long")
        _require(sum_condition(short, long, 1), "short + long ⊄ short")
        _require(sum_condition(extra, long, 2), "extra + 2*long ⊄ extra")
        _require(sum_condition(long, extra, 1), "long + extra ⊄ long")
        trans = {"short": short, "long": long, "extra": extra}
    elif t == "BC":
        if long is not None or extra is None:
            raise WrongArity(
                f"{finite.label} takes short and extra translation sets"
            )
        if extra.ambient != nu:
            raise RankMismatch("translation sets differ in rank")
        _check_semilattice(short, "short", True, False)
        _check_semilattice(extra, "extra", False, False)
        _require(
            not extra.intersects(short.scaled(2)),
            "extra ∩ 2*short ≠ ∅",
        )
        _require(sum_condition(extra, short, 4), "extra + 4*short ⊄ extra")
        _require(sum_condition(short, extra, 1), "short + extra ⊄ short")
        trans = {"short": short, "extra": extra}
    else:
        raise InvalidRank(f"unsupported type {finite.label}")

    return EarsDescriptor(finite, nu, trans, removal_chain)


def _reference_trim(r: EarsDescriptor) -> EarsDescriptor:
    if r.finite_part.type_symbol != "BC":
        raise NotBCType(f"trim needs a BC-type system, got {r.finite_part.label}")
    rank = r.finite_part.rank
    merged = r.translations["short"].union(
        r.translations["extra"].scaled(Fraction(1, 2))
    )
    rep = verify_semilattice(merged)
    _require(rep.ok, "short ∪ (1/2)extra is not a semilattice: " + "; ".join(rep.problems))
    if rank == 1:
        return _reference_construct_ears(build_finite("A", 1), merged)
    return _reference_construct_ears(build_finite("B", rank), merged, r.translations["long"])


def _outcome(build, finite, slots):
    try:
        return build(finite, *slots)
    except Exception as exc:  # the comparison is over exception types too
        return exc


def _lattice(rows) -> Semilattice:
    """The lattice the rows span, as the cosets of twice it."""
    sums = [[sum(r[j] for r, b in zip(rows, bits) if b) for j in range(len(rows[0]))]
            for bits in product((0, 1), repeat=len(rows))]
    return Semilattice(rows, sums)


def _candidates(nu: int) -> dict:
    """Translation sets for one slot: lattices, a translated set, a set that
    is not closed, one that does not span, one of the wrong rank, and none."""
    eye = [[int(i == j) for j in range(nu)] for i in range(nu)]
    return {
        "Z": integer_lattice(nu),
        "2Z": doubled_lattice(nu),
        "odd": odd_translated(nu),
        "index2": _lattice([[2]] if nu == 1 else [[1, 1], [0, 2]]),
        "product-even": product_even_semilattice(nu),
        "not closed": Semilattice.from_cosets(
            [[0] * nu] + eye, Lattice(nu, [[4 * x for x in row] for row in eye])),
        "not spanning": Semilattice(eye[:-1] or [[0]], [[0] * nu]),
        "wrong rank": integer_lattice(nu + 1),
        "none": None,
    }


# every ConstraintViolation message the reference can raise
_REFERENCE_MESSAGES = {
    *(f"{c} translation set {m}" for c in ("short", "long", "extra")
      for m in ("does not span the isotropic space", "is not closed under x + 2y")),
    *(f"0 is missing from the {c} translation set" for c in ("short", "long")),
    *(f"{c} translation set must be a full lattice for this type" for c in ("short", "long")),
    "extra ∩ 2*short ≠ ∅",
    "long + 2*short ⊄ long", "long + 3*short ⊄ long", "short + long ⊄ short",
    "extra + 2*long ⊄ extra", "long + extra ⊄ long",
    "extra + 4*short ⊄ extra", "short + extra ⊄ short",
}

_REFERENCE_LABELS = ("A1", "A2", "D4", "B2", "B3", "C3", "F4", "G2", "BC1", "BC2", "BC3")


def _reference_corpus():
    """(label, finite system, slots) at nullity 1 and 2: every candidate in
    each slot whose length class the type has, Z or none in the others; then
    the inputs that reach the messages this grid misses."""
    finites = {label: _as_finite(label) for label in _REFERENCE_LABELS}
    for nu in (1, 2):
        cands = _candidates(nu)
        few = {k: cands[k] for k in ("Z", "none")}
        for label, finite in finites.items():
            present = dict(zip(("short", "long", "extra"), length_classes(finite)))
            pools = [cands if roots else few for roots in present.values()]
            for names in product(*pools):
                yield label, finite, tuple(pool[n] for pool, n in zip(pools, names))
    z1 = integer_lattice(1)
    odd3 = Semilattice([[3]], [[3]], translated=True)  # 3 + 6Z, closed and avoiding 2Z
    yield "B2", finites["B2"], (z1, _lattice([[4]]), None)
    yield "BC1", finites["BC1"], (z1, None, odd3)
    yield "BC2", finites["BC2"], (z1, z1, odd3)


def test_construct_matches_the_reference_on_every_corpus_input():
    messages = set()
    for label, finite, slots in _reference_corpus():
        want = _outcome(_reference_construct_ears, finite, slots)
        got = _outcome(construct_ears, finite, slots)
        case = (label, slots)
        assert type(got) is type(want), (case, want, got)
        if isinstance(want, ConstraintViolation):
            assert str(got) == str(want), case
            messages.add(str(want))
        elif isinstance(want, EarsDescriptor):
            assert got == want and got.dot_classes == want.dot_classes, case
    assert messages == _REFERENCE_MESSAGES, _REFERENCE_MESSAGES ^ messages


def test_trim_matches_the_reference(suite, bc1_shifted):
    z1 = integer_lattice(1)
    bc3 = construct_ears("BC3", z1, z1, odd_translated(1))
    for r in (suite["BC1 nu1"], bc1_shifted, suite["BC2 nu1"], bc3):
        want, got = _reference_trim(r), trim(r)
        assert got == want and got.finite_part == want.finite_part, r


def test_descriptor_maps_are_read_only():
    # the hash is taken over translations, so neither map may change
    R = nullity2_system()
    h = hash(R)
    with pytest.raises(TypeError):
        R.translations["short"] = integer_lattice(2)
    with pytest.raises(TypeError):
        R.dot_classes["short"] = frozenset()
    assert hash(R) == h
    assert construct_ears(R.finite_part, **R.translations) == R
    assert dict(R.translations.items()) == dict(R.translations)


def test_construct_forms_no_sum_set(suite, monkeypatch):
    # the isotropic set short + short is built on first read, not by construct
    calls = []
    sum_set = Semilattice.sum_set
    monkeypatch.setattr(Semilattice, "sum_set", lambda s, t: calls.append(s) or sum_set(s, t))
    built = [construct_ears(R.finite_part, **R.translations) for R in suite.values()]
    assert built == list(suite.values())
    assert calls == []
    first = built[0].isotropic
    assert len(calls) == 1
    assert built[0].isotropic is first
    assert len(calls) == 1


def test_isotropic_on_first_read_is_short_plus_short(suite):
    for name, R in suite.items():
        fresh = construct_ears(R.finite_part, **R.translations)
        short = R.translations["short"]
        eager = short.sum_set(short)
        assert fresh.isotropic == eager, name
        assert (repr(fresh.isotropic), fresh.isotropic.translated) == (repr(eager), eager.translated), name


def test_irc_keeps_the_closure_it_passes(suite, monkeypatch):
    sum_set = Semilattice.sum_set
    for name, R in suite.items():
        closed = irc(R)
        want = None
        for trans in R.translations.values():
            diff = sum_set(trans, trans.scaled(-1))
            want = diff if want is None else want.union(diff)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(Semilattice, "sum_set", lambda s, t: calls.append(s) or sum_set(s, t))
            got = closed.isotropic
        assert calls == [], name
        assert got == want and repr(got) == repr(want), name


def test_length_classes_run_once_per_finite_system(suite):
    # equal finite systems share one partition, so descriptors built again
    # and again over one finite part partition its roots once
    length_classes.cache_clear()
    for _ in range(3):
        for R in suite.values():
            again = descriptor_from_config(descriptor_to_config(R))
            assert irc(again) == again
            if "extra" in again.dot_classes:
                trim(again)
    finite = {R.finite_part for R in suite.values()}
    finite |= {trim(R).finite_part for R in suite.values() if "extra" in R.dot_classes}
    info = length_classes.cache_info()
    assert info.misses == len(finite) and info.hits > 0, info
