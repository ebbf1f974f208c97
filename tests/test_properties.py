"""Property-based checks over randomly drawn roots, words, semilattices and
matrices."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from ears.cli import EXIT_CONSTRAINT, EXIT_OK, EXIT_PARSE, main
from ears.core import _vec_to_json, characterize, construct_ears, descriptor_to_config
from ears.examples import (
    acceptance_suite,
    integer_lattice,
    nullity2_system,
    odd_translated,
    product_even_semilattice,
)
from ears.finite import build_finite
from ears.linalg import (
    _DEN_BOUND,
    AmbientSpace,
    Matrix,
    Vector,
    line_key,
    preserves_form,
    reflect,
    reflection_matrix,
    reflector,
)
from ears.presentation import (
    Infinite,
    Undetermined,
    _translation_certificate,
    conjugation_relation,
    conjugation_rewrite,
    coxeter_order,
    evaluate,
    line_relation,
    parity,
    square_relation,
)
from ears.semilattice import Lattice, Semilattice, residue_table, sum_condition, verify_semilattice
from ears.weyl import orbit_bfs, orbit_closed_form, word_element
from test_core import _reference_characterize
from test_linalg import RefVector, fraction_product, ref_at, ref_line_key, ref_vec_to_json
from test_semilattice import assert_matches, assert_pair_matches, both, reference_residue_table

R2 = nullity2_system()
SP2 = R2.space
ANISO2 = R2.anisotropic_window(2)

SEMILATTICES = [
    integer_lattice(1),
    integer_lattice(2),
    product_even_semilattice(2),
    product_even_semilattice(3),
    odd_translated(1),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SEMILATTICES) - 1), st.data())
def test_semilattice_closure(idx, data):
    sl = SEMILATTICES[idx]
    members = sl.window(3)
    a = data.draw(st.sampled_from(members))
    b = data.draw(st.sampled_from(members))
    assert sl.contains(a + b * 2)


_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def _vector_pairs(draw):
    """Two coordinate lists of one length, denominators 1-6; the second is
    often a rational multiple of the first, so equal vectors and shared
    lines are drawn too."""
    dim = draw(st.integers(0, 4))
    xs = draw(st.lists(_RATIONALS, min_size=dim, max_size=dim))
    how = draw(st.sampled_from(["free", "same", "multiple"]))
    if how == "same":
        return xs, list(xs)
    if how == "multiple":
        k = draw(_RATIONALS.filter(bool))
        return xs, [k * x for x in xs]
    return xs, draw(st.lists(_RATIONALS, min_size=dim, max_size=dim))


def _assert_matches(got: Vector, want: RefVector, scale: int):
    assert isinstance(got.ints, tuple) and got.den > 0
    assert math.gcd(got.den, *got.ints) == 1
    assert got.coords == want.coords and list(got) == list(want)
    assert got == Vector(want.coords)
    assert hash(got) == hash(got.coords) == hash(want)
    assert repr(got) == repr(want)
    assert got.max_norm() == want.max_norm()
    assert got.is_zero() == want.is_zero()
    assert (got.den == 1) == want.is_integral()
    assert got.at(scale) == ref_at(want, scale)
    assert _vec_to_json(got) == ref_vec_to_json(want)


@settings(max_examples=300, deadline=None)
@given(_vector_pairs(), st.one_of(st.integers(-3, 3), _RATIONALS), st.integers(1, 72))
def test_vector_matches_the_fraction_reference(pair, scalar, scale):
    xs, ys = pair
    v, w, rv, rw = Vector(xs), Vector(ys), RefVector(xs), RefVector(ys)
    for got, want in ((v, rv), (w, rw), (v + w, rv + rw), (v - w, rv - rw), (-v, -rv),
                      (v * scalar, rv * scalar), (scalar * w, scalar * rw)):
        _assert_matches(got, want, scale)
    assert (v == w) == (rv == rw)
    assert (hash(v) == hash(w)) == (hash(rv) == hash(rw))
    assert (line_key(v) == line_key(w)) == (ref_line_key(rv) == ref_line_key(rw))
    assert line_key(v) == line_key(-v) == line_key(v * 3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reflection_properties(data):
    root = data.draw(st.sampled_from(ANISO2))
    coords = data.draw(
        st.lists(st.integers(-3, 3), min_size=SP2.dim, max_size=SP2.dim)
    )
    v = Vector([Fraction(c) for c in coords])
    w = Vector(reflect(SP2, root, v))
    assert Vector(reflect(SP2, root, w)) == v
    assert SP2.pair(w, w) == SP2.pair(v, v)
    assert Vector(reflect(SP2, root, root)) == -root
    assert preserves_form(SP2, reflection_matrix(SP2, root))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bfs_members_lie_in_closed_form(data):
    alpha = data.draw(st.sampled_from(ANISO2))
    orbit = orbit_closed_form(R2, alpha)
    for member in orbit_bfs(R2, alpha, 2):
        assert orbit.contains(member)
        assert member.max_norm() <= 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coxeter_order_is_symmetric(data):
    a = data.draw(st.sampled_from(ANISO2))
    b = data.draw(st.sampled_from(ANISO2))
    fwd = coxeter_order(SP2, a, b)
    bwd = coxeter_order(SP2, b, a)
    if isinstance(fwd, Infinite):
        assert isinstance(bwd, Infinite)
    else:
        assert fwd == bwd


def reference_coxeter_order(space, alpha, beta, cap):
    """The order of r_alpha r_beta by powers: the first identity power up
    to cap, else Infinite from the first power with a translation
    certificate, else Undetermined."""
    m = reflection_matrix(space, alpha) @ reflection_matrix(space, beta)
    powers = []
    p = m
    for n in range(1, cap + 1):
        if p.is_identity():
            return n
        powers.append(p)
        p = p @ m
    for p in powers:
        cert = _translation_certificate(p)
        if cert is not None:
            return Infinite(cap, cert)
    return Undetermined(cap)


@st.composite
def _reflection_pairs(draw):
    """A space, two anisotropic vectors in it and a cap.  The space has a
    random symmetric Gram block (indefinite and degenerate ones too), and
    the second vector is free, on the first one's line, or the first (with
    its dual part cleared) plus an isotropic one, which spans a degenerate
    plane; or the space is that of a finite type and both are its roots
    plus isotropic parts."""
    nu, rank = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    how = draw(st.sampled_from(["free", "line", "radical", "roots"]))
    if how == "roots":
        finite = build_finite(*draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("B", 3)])))
        space = AmbientSpace(nu, finite.form.gram)
        iso = st.lists(st.integers(-2, 2), min_size=nu, max_size=nu)
        alpha, beta = (space.assemble(draw(iso), draw(st.sampled_from(finite.ordered))) for _ in "ab")
        return space, alpha, beta, draw(st.integers(1, 24))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(rank) for j in range(i, rank)}
    space = AmbientSpace(nu, Matrix([[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]))
    coords = st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim)
    alpha = Vector(draw(coords))
    if how == "free":
        beta = Vector(draw(coords))
    elif how == "line":
        beta = alpha * draw(st.sampled_from([-2, -1, Fraction(1, 2), 3]))
    else:
        alpha = Vector(alpha.ints[: nu + rank] + (0,) * nu)
        shift = draw(st.lists(st.integers(-3, 3), min_size=nu, max_size=nu))
        beta = alpha * draw(st.sampled_from([-1, 1, 2])) + Vector(shift + [0] * (rank + nu))
    assume(space.pair(alpha, alpha) != 0 and space.pair(beta, beta) != 0)
    return space, alpha, beta, draw(st.integers(1, 24))


@settings(max_examples=80, deadline=None)
@given(_reflection_pairs())
def test_coxeter_order_matches_the_power_loop(case):
    space, alpha, beta, cap = case
    assert repr(coxeter_order(space, alpha, beta, cap)) == repr(reference_coxeter_order(space, alpha, beta, cap))


def random_relation(data):
    kind = data.draw(st.sampled_from(["line", "square", "conjugation"]))
    a = data.draw(st.sampled_from(ANISO2))
    if kind == "line":
        return line_relation(a, -a)
    if kind == "square":
        return square_relation(a)
    b = data.draw(st.sampled_from(ANISO2))
    return conjugation_relation(SP2, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relations_have_zero_parity(data):
    letters = []
    for _ in range(data.draw(st.integers(1, 4))):
        letters.extend(random_relation(data))
    assert evaluate(letters, SP2).matrix.is_identity()
    assert parity(letters, R2).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rewrite_preserves_parity_and_evaluation(data):
    letters = []
    for _ in range(data.draw(st.integers(1, 3))):
        letters.extend(random_relation(data))
    preferred = data.draw(
        st.lists(st.sampled_from(ANISO2), min_size=1, max_size=4, unique=True)
    )
    before = parity(letters, R2)
    word, _ = conjugation_rewrite(letters, R2, preferred)
    assert evaluate(word, SP2).matrix.is_identity()
    assert parity(word, R2) == before
    assert before.is_zero()


# -- integer translation sets against the Fraction reference ------------------

_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def _described_sets(draw):
    """A basis (possibly rank-deficient) and cosets with denominators 1-6."""
    n = draw(st.integers(1, 2))
    vector = st.lists(_RATIONALS, min_size=n, max_size=n)
    basis = draw(st.lists(vector, min_size=0, max_size=n + 1))
    cosets = draw(st.lists(vector, min_size=1, max_size=3))
    return basis, cosets, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_described_sets(), _described_sets())
def test_integer_sets_match_the_fraction_reference_on_random_input(x, y):
    built = []
    for basis, cosets, translated, given_modulus in (x, y):
        s, ref = both(basis, cosets, translated, modulus=basis if given_modulus else None)
        assert_matches(s, ref, (basis, cosets))
        built.append((s, ref))
    (a, ra), (b, rb) = built
    if a.ambient == b.ambient:
        assert_pair_matches(a, ra, b, rb, (x, y))


@settings(max_examples=80, deadline=None)
@given(_described_sets())
def test_residue_table_matches_the_closure_on_random_input(x):
    basis, cosets, translated, _ = x
    s = Semilattice.from_cosets(cosets, Lattice(len(cosets[0]), basis), translated)
    table = residue_table(s)
    assert table == reference_residue_table(s), x
    if s.modulus.rank < s.ambient:
        assert table is None
        return
    period = table.period
    size = s.coset_count * period ** (s.ambient - 1)
    assert len(table.residues) <= size
    assert residue_table(s, cap=size) == table
    assert residue_table(s, cap=size - 1) is None


@settings(max_examples=200, deadline=None)
@given(_described_sets())
def test_closed_under_x_plus_2y_exactly_when_canonical(x):
    # S keeps its canonical form exactly when S + 2<S> <= S, which is
    # S + 2S <= S, so verify_semilattice reads closed off canonical
    basis, cosets, translated, given_modulus = x
    if given_modulus:
        s = Semilattice.from_cosets(cosets, Lattice(len(cosets[0]), basis), translated)
    else:
        s = Semilattice(basis, cosets, translated)
    assert sum_condition(s, s, 2) == s.canonical == verify_semilattice(s).closed, x


# -- Matrix on integer rows against Fraction rows ------------------------------


@st.composite
def _square_pair(draw):
    """Two square Fraction matrices of one size, denominators 1-6 mixed."""
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)
    return [tuple(r) for r in draw(square)], [tuple(r) for r in draw(square)]


@settings(max_examples=80, deadline=None)
@given(_square_pair(), st.integers(1, 12))
def test_matrix_matches_fraction_rows(pair, k):
    a, b = pair
    m, n = Matrix(a), Matrix(b)
    assert m.den > 0 and math.gcd(m.den, *(x for row in m.ints for x in row)) == 1
    assert m.rows == tuple(a)
    assert all(m[i, j] == m.rows[i][j] for i in range(m.dim) for j in range(m.dim))
    assert Matrix(m.rows) == m
    assert (m @ n).rows == fraction_product(a, b)
    assert m.transpose().rows == tuple(zip(*a))
    # the same entries at another scale: k times the integers over k times den
    scaled = Matrix._of([[k * x for x in row] for row in m.ints], k * m.den)
    assert scaled == m and hash(scaled) == hash(m) and repr(scaled) == repr(m)
    strings = Matrix([[str(x) for x in row] for row in a])
    assert strings == m and hash(strings) == hash(m)


# -- the config loader answers every edited suite config with an exit code -----

_SUITE_CONFIGS = [descriptor_to_config(r) for r in acceptance_suite().values()]
_POOL = [None, True, False, 0, -1, 1.5, "x", "1/0", [], {}, [[]], [1]]


def _paths(node, at=()):
    """The path of every leaf and block below the top of a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


@st.composite
def _edited_configs(draw):
    """A suite config with one leaf or block replaced by a pool value."""
    cfg = copy.deepcopy(draw(st.sampled_from(_SUITE_CONFIGS)))
    *up, last = draw(st.sampled_from(list(_paths(cfg))))
    parent = cfg
    for key in up:
        parent = parent[key]
    parent[last] = draw(st.sampled_from(_POOL))
    return cfg


@settings(max_examples=150, deadline=None)
@given(_edited_configs())
def test_config_loader_exits_with_a_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edited.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["construct", "--in", path])
    assert code in (EXIT_OK, EXIT_CONSTRAINT, EXIT_PARSE), cfg


_SUITE_WINDOWS = [
    (sorted(R.anisotropic_window(1), key=lambda v: v.coords), R.space)
    for _, R in sorted(acceptance_suite().items())
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SUITE_WINDOWS), st.data())
def test_characterize_matches_the_pair_loop_on_random_edits(system, data):
    """Random deletions and half-shifts of a suite window at window 1."""
    window, space = system
    picks = st.sets(st.integers(0, len(window) - 1), max_size=4)
    dropped, shifted = data.draw(picks), data.draw(picks)
    halves = st.lists(st.sampled_from([0, Fraction(1, 2), Fraction(-1, 2)]), min_size=space.nu, max_size=space.nu)
    edited = []
    for i, v in enumerate(window):
        if i in shifted:
            v = v + Vector(data.draw(halves) + [0] * (space.dim - space.nu))
        if i not in dropped:
            edited.append(v)
    assert repr(characterize(edited, space)) == repr(_reference_characterize(edited, space))


# every suite type's window 2, with C3 over (Z, Z), whose long roots of odd
# translation have st = 2, as G2's long roots (3) and BC's extra roots (2)
# do; B2's long roots, of squared length 2 against the short roots' 1, never do
_WORD_SYSTEMS = [
    (name, sorted(R.anisotropic_window(2), key=lambda v: v.coords), R.space)
    for name, R in sorted({**acceptance_suite(),
                           "C3 Z Z": construct_ears("C3", integer_lattice(1), integer_lattice(1))}.items())
]


def _matmul_product(space, word):
    """The left-to-right Matrix @ product of the words' reflection matrices."""
    m = Matrix.identity(space.dim)
    for r in word:
        m = m @ reflection_matrix(space, r)
    return m


def test_word_systems_have_letters_that_scale_the_denominator():
    scaled = {name for name, roots, space in _WORD_SYSTEMS if any(reflector(space, r)[2] > 1 for r in roots)}
    assert scaled == {"BC1 nu1", "BC2 nu1", "C3 Z Z", "G2 nu1"}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_WORD_SYSTEMS), st.data())
def test_word_element_matches_the_matrix_product(system, data):
    """One accumulator over the whole word gives the Matrix @ product."""
    name, roots, space = system
    word = data.draw(st.lists(st.sampled_from(roots), max_size=14))
    assert word_element(space, word).matrix == _matmul_product(space, word), name


@pytest.mark.parametrize("name", ["C3 Z Z", "G2 nu1"])
def test_long_word_crosses_the_reduction_bound(name):
    # the letters' st multiply the accumulator's denominator past _DEN_BOUND,
    # where it is divided by its common factor and goes on
    _, roots, space = next(s for s in _WORD_SYSTEMS if s[0] == name)
    scaled = [r for r in roots if reflector(space, r)[2] > 1]
    word = [scaled[(i * 7) % len(scaled)] for i in range(90)] + roots[:5]
    assert math.prod(reflector(space, r)[2] for r in word) > _DEN_BOUND
    assert word_element(space, word).matrix == _matmul_product(space, word), name
