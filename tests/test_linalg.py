import math
import random
from fractions import Fraction

import pytest

from ears.linalg import (
    AmbientSpace,
    DimensionMismatch,
    IsotropicRoot,
    Matrix,
    coroot,
    from_scaled,
    preserves_form,
    reflect,
    reflection_matrix,
    reflector,
    scaled_identity,
    times_reflector,
    vec,
)
from ears.presentation import evaluate


def test_vector_arithmetic_is_exact():
    v = vec(Fraction(1, 3), 2)
    w = vec(Fraction(2, 3), -1)
    assert (v + w).coords == (Fraction(1), Fraction(1))
    assert (v - w).coords == (Fraction(-1, 3), Fraction(3))
    assert (v * 3).coords == (Fraction(1), Fraction(6))
    assert (-v).coords == (Fraction(-1, 3), Fraction(-2))
    assert v.max_norm() == 2
    assert not v.is_integral()
    assert (v * 3).is_integral()


def test_vector_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vec(1, 2) + vec(1, 2, 3)


def test_matrix_product_and_inverse():
    m = Matrix([[1, 2], [0, 1]])
    assert (m @ m.inverse()).is_identity()
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
    assert space.iso_part(v) == (1, 2)
    assert space.dot_part(v) == (3,)
    assert space.dual_part(v) == (4, 5)
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


def test_reflector_kernel_matches_fraction_products(suite):
    """Rank-one integer updates agree with Fraction reflection matrices on
    random words, and every scaled product stays in lowest terms."""
    rng = random.Random(20061)
    for name, R in sorted(suite.items()):
        space = R.space
        roots = sorted(R.anisotropic_window(1), key=lambda v: v.coords)
        for _ in range(4):
            m, slow = scaled_identity(space.dim), Matrix.identity(space.dim)
            for r in (rng.choice(roots) for _ in range(rng.randint(1, 10))):
                m = times_reflector(m, reflector(space, r))
                slow = slow @ reflection_matrix(space, r)
                rows, den = m
                assert math.gcd(den, *(x for row in rows for x in row)) == 1, name
                assert from_scaled(m) == slow, name


def test_reflector_kernel_reduces_g2_denominators(suite):
    # G2 nu1 is the suite system whose pairing rows have a denominator
    space = suite["G2 nu1"].space
    roots = sorted(suite["G2 nu1"].anisotropic_window(1), key=lambda v: v.coords)
    thirds = [r for r in roots if reflector(space, r)[2] == 3]
    assert thirds
    r = reflector(space, thirds[0])
    once = times_reflector(scaled_identity(space.dim), r)
    assert once[1] > 1
    assert times_reflector(once, r) == scaled_identity(space.dim)
    assert from_scaled(once) == reflection_matrix(space, thirds[0])


def test_evaluate_rejects_isotropic_and_foreign_letters(space):
    alpha = space.assemble([0, 0], [1])
    with pytest.raises(IsotropicRoot):
        evaluate([alpha, space.assemble([1, 0], [0])], space)
    with pytest.raises(DimensionMismatch):
        evaluate([alpha, vec(1, 0)], space)
