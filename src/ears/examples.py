"""Bundled example systems and certificates.

Small constructors for the semilattices that appear throughout the tests,
the two rank-one showcase systems (nullity two and three), a kernel
element of the word-to-group map, and the named descriptor suite the
acceptance checks run over.
"""

from .core import EarsDescriptor, construct_ears
from .linalg import Vector, vec
from .semilattice import Lattice, Semilattice


def _mod2(nu: int, keep, translated: bool = False) -> Semilattice:
    """The 0/1 vectors of length nu that keep accepts, plus 2 Z^nu."""
    if nu < 1:
        raise ValueError("nu must be positive")
    basis = [[int(i == j) for j in range(nu)] for i in range(nu)]
    bits = ([(mask >> i) & 1 for i in range(nu)] for mask in range(2 ** nu))
    return Semilattice(basis, [b for b in bits if keep(b)], translated)


def integer_lattice(nu: int) -> Semilattice:
    """Z^nu as a semilattice: every residue class mod 2."""
    return _mod2(nu, lambda bits: True)


def doubled_lattice(nu: int) -> Semilattice:
    """2 Z^nu."""
    return _mod2(nu, lambda bits: not any(bits))


def product_even_semilattice(nu: int) -> Semilattice:
    """Vectors of Z^nu whose coordinate product is even.

    Equivalently: all residue classes mod 2 except all-ones.  The smallest
    proper semilattices in each rank; not a lattice for nu >= 2.
    """
    return _mod2(nu, lambda bits: not all(bits))


def odd_translated(nu: int = 1) -> Semilattice:
    """The translated semilattice 1 + 2Z (all-odd class for higher nu)."""
    return _mod2(nu, all, translated=True)


def trivial_semilattice() -> Semilattice:
    """The nullity-zero semilattice: the origin of a 0-dimensional space."""
    return Semilattice([], [[]])


# -- the nullity-two showcase system -----------------------------------------


def nullity2_system() -> EarsDescriptor:
    """Rank-one system over the product-even semilattice in two isotropic
    directions; the smallest system whose reflection presentation is not
    of Coxeter shape."""
    return construct_ears("A1", product_even_semilattice(2))


def nullity2_roots() -> tuple[Vector, Vector, Vector]:
    """Three roots sharing the finite direction, displaced by the two
    isotropic basis vectors; the triple behind the 12-letter relation."""
    return (vec(0, 0, 1, 0, 0), vec(1, 0, 1, 0, 0), vec(0, 1, 1, 0, 0))


def kernel_word_roots() -> tuple[Vector, Vector, Vector, Vector]:
    """Four roots of the nullity-two system whose reflection product acts
    as the identity on the span of the first three coordinates but not on
    the whole space: a nontrivial kernel element of the restriction."""
    return (
        vec(0, 0, 1, 0, 0),
        vec(2, 0, 1, 0, 0),
        vec(2, 1, 1, 0, 0),
        vec(0, 1, 1, 0, 0),
    )


# -- the nullity-three showcase system ----------------------------------------


def nullity3_system() -> EarsDescriptor:
    """Rank-one system over all of Z^3; not minimal."""
    return construct_ears("A1", integer_lattice(3))


def even_system() -> EarsDescriptor:
    """Rank-one system over the product-even semilattice in Z^3; minimal."""
    return construct_ears("A1", product_even_semilattice(3))


def removable_root() -> Vector:
    """A root of the nullity-three system whose whole orbit can be removed."""
    return vec(1, 1, 1, 1, 0, 0, 0)


def certificate_roots() -> tuple[Vector, ...]:
    """Seven roots of the even sub-system whose reflections recover the
    reflection in removable_root(), listed as a plain set of columns."""
    return (
        vec(0, -1, -1, 1, 0, 0, 0),
        vec(1, 0, -1, 1, 0, 0, 0),
        vec(0, 0, 1, 1, 0, 0, 0),
        vec(-1, 1, 0, 1, 0, 0, 0),
        vec(0, -1, 0, 1, 0, 0, 0),
        vec(-1, 0, 0, 1, 0, 0, 0),
        vec(0, 0, 0, 1, 0, 0, 0),
    )


# the product of the seven reflections is order-sensitive; this ordering
# of certificate_roots() is verified by direct multiplication
_CERTIFICATE_ORDER = (2, 3, 5, 4, 1, 0, 6)


def certificate_word() -> tuple[Vector, ...]:
    """The seven certificate roots in a product order that equals the
    reflection in removable_root() exactly."""
    cols = certificate_roots()
    return tuple(cols[i] for i in _CERTIFICATE_ORDER)


# -- second extra-class fixture ------------------------------------------------


def bc1_double_fixture() -> EarsDescriptor:
    """A rank-one system with an extra-long class over two isotropic
    directions: short translations product-even, extra translations on the
    shifted lattice (2,2) + 4 Z^2."""
    extra = Semilattice.from_cosets(
        [[2, 2]], Lattice(2, [[4, 0], [0, 4]]), translated=True
    )
    return construct_ears("BC1", product_even_semilattice(2), extra=extra)


# -- the named suite the acceptance checks run over ----------------------------


def acceptance_suite() -> dict:
    """Descriptors covering every length-class layout: simply laced, two
    lengths, BC1 and BC_l.

    Keys name the finite type, the nullity, and the translation choice;
    the dict order is stable.
    """
    z1 = integer_lattice(1)
    z2 = integer_lattice(2)
    two1 = doubled_lattice(1)
    two2 = doubled_lattice(2)
    return {
        "A2 nu0": construct_ears("A2", trivial_semilattice()),
        "A1 nu1 full": construct_ears("A1", z1),
        "A1 nu1 doubled": construct_ears("A1", two1),
        "A1 nu2 full": construct_ears("A1", z2),
        "A1 nu2 product-even": nullity2_system(),
        "A1 nu3 full": nullity3_system(),
        "A1 nu3 product-even": even_system(),
        "A2 nu1": construct_ears("A2", z1),
        "B2 nu1 matched": construct_ears("B2", z1, z1),
        "B2 nu1 doubled": construct_ears("B2", z1, two1),
        "B2 nu2 matched": construct_ears("B2", z2, two2),
        "B2 nu2 product-even": construct_ears(
            "B2", product_even_semilattice(2), two2
        ),
        "G2 nu1": construct_ears("G2", z1, z1),
        "BC1 nu1": construct_ears("BC1", z1, extra=odd_translated(1)),
        "BC1 nu2 shifted": bc1_double_fixture(),
        "BC2 nu1": construct_ears("BC2", z1, z1, odd_translated(1)),
    }


def orbit_oracle_cases() -> dict:
    """The descriptors the windowed-orbit oracle is checked against:
    both rank-one nullities one to three and B2 at nullities one and two,
    two translation choices each."""
    suite = acceptance_suite()
    keys = (
        "A1 nu1 full", "A1 nu1 doubled",
        "A1 nu2 full", "A1 nu2 product-even",
        "A1 nu3 full", "A1 nu3 product-even",
        "B2 nu1 matched", "B2 nu1 doubled",
        "B2 nu2 matched", "B2 nu2 product-even",
    )
    return {k: suite[k] for k in keys}
