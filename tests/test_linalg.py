import math
import random
from fractions import Fraction
from operator import mul

import pytest

from ears.linalg import (
    AmbientSpace,
    DimensionMismatch,
    IsotropicRoot,
    Matrix,
    Vector,
    coroot,
    kernel,
    preserves_form,
    reflect,
    reflection_matrix,
    reflector,
    sorted_vectors,
    span_rank,
    times_reflector,
    vec,
)
from ears.presentation import evaluate
from ears.semilattice import Lattice
from test_weyl import removal_label_systems


def test_vector_arithmetic_is_exact():
    v = vec(Fraction(1, 3), 2)
    w = vec(Fraction(2, 3), -1)
    assert (v + w).coords == (Fraction(1), Fraction(1))
    assert (v - w).coords == (Fraction(-1, 3), Fraction(3))
    assert (v * 3).coords == (Fraction(1), Fraction(6))
    assert (-v).coords == (Fraction(-1, 3), Fraction(-2))
    assert v.max_norm() == 2
    assert v.den == 3
    assert (v * 3).den == 1


def test_vector_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vec(1, 2) + vec(1, 2, 3)


def test_booleans_are_not_coordinates():
    with pytest.raises(TypeError):
        Vector([True])


def test_vector_keeps_lowest_terms():
    h = Fraction(1, 2)
    v = vec(h, 1, -3)
    assert (v.ints, v.den) == ((1, 2, -6), 2)
    assert ((v + v).ints, (v + v).den) == ((1, 2, -6), 1)
    assert (v * 0).ints == (0, 0, 0) and (v * 0).den == 1
    assert Vector(["1/2", 1, Fraction(-3)]) == v
    assert hash(v) == hash((h, Fraction(1), Fraction(-3)))
    assert hash(v * 2) == hash((1, 2, -6))
    assert v.at(4) == (2, 4, -12)
    assert v.at(3) is None
    assert repr(v) == "Vector((1/2, 1, -3))"


class RefVector:
    """The former Vector, on Fraction coordinates: the reference the integer
    Vector is compared with."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(ref_frac(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RefVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other):
        return RefVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        return RefVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return RefVector(-a for a in self.coords)

    def __mul__(self, scalar):
        s = ref_frac(scalar)
        return RefVector(a * s for a in self.coords)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def max_norm(self) -> Fraction:
        return max((abs(c) for c in self.coords), default=Fraction(0))

    def __repr__(self) -> str:
        return "Vector((" + ", ".join(str(c) for c in self.coords) + "))"


def ref_frac(x) -> Fraction:
    if isinstance(x, (Fraction, str)) or (isinstance(x, int) and not isinstance(x, bool)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def ref_at(v: RefVector, den: int):
    """The coordinates of den * v as ints, or None when one is not integral."""
    out = []
    for x in v.coords:
        q, r = divmod(den, x.denominator)
        if r:
            return None
        out.append(x.numerator * q)
    return tuple(out)


def ref_line_key(r: RefVector) -> tuple:
    """r scaled to first nonzero coordinate 1."""
    nz = next((c for c in r.coords if c), 1)
    return tuple(c / nz for c in r.coords)


def ref_vec_to_json(v: RefVector) -> list:
    return [int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}" for x in v.coords]


def test_matrix_product_and_transpose():
    m = Matrix([[1, 2], [0, 1]])
    assert m @ Matrix([[1, -2], [0, 1]]) == Matrix.identity(2)
    assert m * vec(3, 4) == vec(11, 4)
    assert m.transpose() == Matrix([[1, 0], [2, 1]])


def test_identity_recognition():
    assert Matrix.identity(3).is_identity()
    assert not Matrix([[1, 0], [1, 1]]).is_identity()


@pytest.fixture(scope="module")
def space():
    # one finite direction of squared length 2, two isotropic directions
    return AmbientSpace(2, Matrix([[2]]))


def test_ambient_split_roundtrip(space):
    v = space.assemble([1, 2], [3], [4, 5])
    assert [b.coords for b in space.blocks(v)] == [(1, 2), (3,), (4, 5)]
    assert v.dim == 5


def test_pairing_ignores_isotropic_block(space):
    a = space.assemble([5, -7], [1])
    b = space.assemble([2, 9], [1])
    assert space.pair(a, b) == 2
    zero = space.assemble([1, 0], [0])
    assert space.pair(zero, zero) == 0


def test_pairing_couples_iso_and_dual(space):
    iso = space.assemble([1, 0], [0])
    dual = space.assemble([0, 0], [0], [1, 0])
    assert space.pair(iso, dual) == 1


def test_reflection_is_involution(space):
    alpha = space.assemble([1, 1], [1])
    m = reflection_matrix(space, alpha)
    assert (m @ m).is_identity()
    assert preserves_form(space, m)
    assert m * alpha == -alpha


def test_reflection_fixes_orthogonal_complement(space):
    alpha = space.assemble([0, 0], [1])
    v = space.assemble([3, 4], [0])
    assert reflect(space, alpha, v) == v


def test_reflection_of_isotropic_root_rejected(space):
    with pytest.raises(IsotropicRoot):
        reflect(space, space.assemble([1, 0], [0]), space.assemble([0, 0], [1]))
    with pytest.raises(IsotropicRoot):
        coroot(space, space.assemble([1, 0], [0]))


def test_coroot_normalization(space):
    alpha = space.assemble([0, 0], [1])
    assert space.pair(alpha, coroot(space, alpha)) == 2


def test_reflection_translation_part(space):
    # moving the same finite direction by an isotropic shift turns the
    # product of the two reflections into a shear, never the identity
    a = space.assemble([0, 0], [1])
    b = space.assemble([1, 0], [1])
    m = reflection_matrix(space, a) @ reflection_matrix(space, b)
    assert not m.is_identity()
    p = m
    for _ in range(20):
        p = p @ m
        assert not p.is_identity()


def fraction_product(m, n):
    """Row-by-column product of two Fraction row tuples."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*n)) for row in m)


def test_reflector_kernel_matches_fraction_products(suite):
    """Rank-one integer updates agree with Fraction products of reflection
    matrices on random words, and every product stays in lowest terms."""
    rng = random.Random(20061)
    for name, R in sorted(suite.items()):
        space = R.space
        roots = sorted(R.anisotropic_window(1), key=lambda v: v.coords)
        for _ in range(4):
            m, slow = Matrix.identity(space.dim), Matrix.identity(space.dim).rows
            for r in (rng.choice(roots) for _ in range(rng.randint(1, 10))):
                m = times_reflector(m, reflector(space, r))
                slow = fraction_product(slow, reflection_matrix(space, r).rows)
                assert math.gcd(m.den, *(x for row in m.ints for x in row)) == 1, name
                assert m.rows == slow, name
                assert m == Matrix(slow), name


def test_reflector_kernel_reduces_g2_denominators(suite):
    # G2 nu1 is the suite system whose pairing rows have a denominator
    space = suite["G2 nu1"].space
    roots = sorted(suite["G2 nu1"].anisotropic_window(1), key=lambda v: v.coords)
    thirds = [r for r in roots if reflector(space, r)[2] == 3]
    assert thirds
    r = reflector(space, thirds[0])
    once = times_reflector(Matrix.identity(space.dim), r)
    assert once.den > 1
    assert times_reflector(once, r) == Matrix.identity(space.dim)
    assert once == reflection_matrix(space, thirds[0])


def dense_times_reflector(m, refl):
    """The rank-one update m - (m a) p^T / st over every entry."""
    a, p, st = refl
    rows = [[st * x - sum(map(mul, row, a)) * y for x, y in zip(row, p)] for row in m.ints]
    return Matrix._of(rows, m.den * st)


def test_reflector_update_matches_the_dense_formula(suite):
    """times_reflector reads only the nonzero entries of a and p; on random
    words over every suite type it gives the dense formula's matrix."""
    rng = random.Random(20064)
    for name, R in sorted(suite.items()):
        space = R.space
        refls = [reflector(space, r) for r in sorted_vectors(R.anisotropic_window(2))]
        assert any(0 in a for a, _, _ in refls), name
        for _ in range(6):
            m = Matrix.identity(space.dim)
            for refl in rng.choices(refls, k=rng.randint(1, 8)):
                want = dense_times_reflector(m, refl)
                m = times_reflector(m, refl)
                assert (m.den, m.ints) == (want.den, want.ints), name


def dense_reflector(space, alpha):
    """reflector with p = 2 G a read off every entry of the Gram matrix."""
    a = alpha.ints
    p = [2 * sum(map(mul, row, a)) for row in space.form.gram.ints]
    st = sum(map(mul, a, p)) // 2
    g = math.gcd(st, *p) * (1 if st > 0 else -1)
    return a, tuple(x // g for x in p), st // g


def test_reflector_reads_the_block_form_of_the_gram_matrix():
    # every window-2 root of removal_label_systems(), A2 nu0 (no radical
    # block) among them, and seeded non-isotropic vectors with a dual part,
    # which no root has; an int m starts the product from identity rows
    systems = removal_label_systems()
    assert systems["A2 nu0"].nullity == 0
    rng = random.Random(3608)
    for name, R in systems.items():
        space = R.space
        roots = sorted_vectors(R.anisotropic_window(2))
        for alpha in roots:
            assert reflector(space, alpha) == dense_reflector(space, alpha), (name, alpha)
        for _ in range(20):
            v = Vector([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(space.dim)])
            if space.pair(v, v):
                assert reflector(space, v) == dense_reflector(space, v), (name, v)
        word = [reflector(space, r) for r in rng.choices(roots, k=6)]
        assert times_reflector(space.dim, *word) == times_reflector(Matrix.identity(space.dim), *word), name


def test_matrix_hash_is_computed_once(monkeypatch):
    m = Matrix([[1, Fraction(1, 2)], [0, 2]])
    calls = []
    identity = Matrix._identity
    monkeypatch.setattr(Matrix, "_identity", lambda self: calls.append(self) or identity(self))
    hashes = {hash(m) for _ in range(5)}
    assert hashes == {hash((m.den, m.ints))}
    assert len(calls) <= 1


def test_matrix_keeps_lowest_terms():
    h = Fraction(1, 2)
    m = Matrix([[h, 1], [0, Fraction(3, 2)]])
    assert (m.ints, m.den) == (((1, 2), (0, 3)), 2)
    assert m @ Matrix([[2, 0], [0, 2]]) == Matrix([[1, 2], [0, 3]])
    assert (m @ Matrix([[2, 0], [0, 2]])).den == 1
    assert Matrix([["1/3", 0], [0, 1]])[0, 0] == Fraction(1, 3)
    assert repr(m) == "Matrix([(1/2, 1); (0, 3/2)])"
    assert m * vec(2, 2) == vec(3, 3)
    with pytest.raises(ValueError):
        Matrix([[1, 2]])


def test_evaluate_rejects_isotropic_and_foreign_letters(space):
    alpha = space.assemble([0, 0], [1])
    with pytest.raises(IsotropicRoot):
        evaluate([alpha, space.assemble([1, 0], [0])], space)
    with pytest.raises(DimensionMismatch):
        evaluate([alpha, vec(1, 0)], space)


def reference_span_rank(vectors) -> int:
    """Gaussian elimination on Fractions, every vector processed."""
    pivoted = []
    for v in vectors:
        row = list(v.coords)
        for prow, pcol in pivoted:
            if row[pcol] != 0:
                f = row[pcol] / prow[pcol]
                row = [a - f * b for a, b in zip(row, prow)]
        pc = next((j for j, x in enumerate(row) if x != 0), None)
        if pc is not None:
            pivoted.append((row, pc))
    return len(pivoted)


H = Fraction(1, 2)
T = Fraction(1, 3)
SPAN_CASES = {
    "empty": [],
    "zero": [vec(0, 0, 0)],
    "zeros and duplicates": [vec(0, 0), vec(1, 2), vec(1, 2), vec(0, 0), vec(2, 4)],
    "rank-deficient": [vec(1, 2, 3), vec(2, 4, 6), vec(1, 0, 1), vec(3, 4, 7)],
    "fractional": [vec(H, T, 0), vec(1, Fraction(2, 3), 0), vec(0, 0, Fraction(5, 7))],
    "fractional deficient": [vec(H, T), vec(Fraction(3, 4), H), vec(-H, -T)],
    # rank 2 on the two coordinates used, reached before the last two vectors
    "early stop": [vec(1, 0, 0, 0), vec(0, T, 0, 0), vec(1, 1, 0, 0), vec(3, 5, 0, 0)],
    # three coordinates used but rank 2: no early stop
    "no early stop": [vec(1, 0, 0), vec(0, 1, 1), vec(1, 1, 1), vec(2, -1, -1)],
    # a later pivot clears entries of earlier pivot rows (back substitution)
    "back substitution": [vec(1, 2, 3), vec(0, 0, 0), vec(0, 3, 4), vec(2, 7, 10)],
    # every used column pivoted after two rows; the zero rows come after the stop
    "early stop, zero rows": [vec(2, 1, 0), vec(1, 1, 0), vec(0, 0, 0), vec(5, 7, 0)],
    # 19 collinear rows, then the one row that raises the rank: stopping
    # before every used column has a pivot gives 1
    "rank rises last": [vec(k, -2 * k, 3 * k) for k in range(1, 20)] + [vec(1, -2, 4)],
}


@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_span_rank_matches_fraction_elimination(name):
    vectors = SPAN_CASES[name]
    assert span_rank(vectors) == reference_span_rank(vectors)
    assert span_rank(iter(vectors)) == reference_span_rank(vectors)


def test_span_rank_is_the_lattice_rank_on_r3_windows(suite):
    # the window roots whose span axiom R3 checks, at window 2
    for name, R in suite.items():
        w = R.anisotropic_window(2) + R.isotropic_window(2)
        assert span_rank(w) == Lattice(R.space.dim, w).rank == reference_span_rank(w), name


def reference_solve_rows(rows, width):
    """Row-echelon kernel basis on Fractions: each vector is 1 at its free
    column, 0 at the other free columns."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_kernel_matches_fraction_elimination(name):
    rows = [list(v.coords) for v in SPAN_CASES[name]]
    width = len(rows[0]) if rows else 3
    got = kernel(rows, width)
    assert got == reference_solve_rows(rows, width)
    assert all(isinstance(x, Fraction) for v in got for x in v)
    assert len(got) == width - span_rank(SPAN_CASES[name])


def test_kernel_random_against_fraction_elimination():
    rng = random.Random(12)
    for _ in range(300):
        width, n = rng.randint(1, 7), rng.randint(0, 7)
        basis = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)]
                 for _ in range(rng.randint(1, width))]
        rows = []
        for _ in range(n):  # combinations of a few rows, so ranks fall short
            coeffs = [rng.randint(-2, 2) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(width)])
        want = reference_solve_rows(rows, width)
        assert kernel(rows, width) == want, rows
        for v in want:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_span_rank_random_against_fraction_elimination():
    rng = random.Random(11)
    for _ in range(300):
        dim, n = rng.randint(1, 6), rng.randint(0, 8)
        basis = [vec(*(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)))
                 for _ in range(rng.randint(1, dim))]
        vectors = []
        for _ in range(n):  # combinations of a few vectors, so ranks fall short
            v = vec(*[0] * dim)
            for b in basis:
                v = v + b * rng.randint(-2, 2)
            vectors.append(v)
        assert span_rank(vectors) == reference_span_rank(vectors), vectors
