"""Words in root reflections and the relations between them.

A word is a finite sequence of anisotropic roots standing for the ordered
product of their reflections.  This module evaluates words exactly, tracks
letter counts per orbit modulo two (reflections of linearly dependent roots
coincide, so the counts live on lines through the origin), reads the
order of a product of two reflections off the Gram matrix of their plane,
with a sound infinite-order certificate (its null spaces from
linalg.kernel, on the integer HNF), decides whether the reflection
presentation is of Coxeter shape, and rewrites identity words to
eliminate letters outside a preferred set of roots.
"""

from collections import Counter
from dataclasses import dataclass

from .core import EarsDescriptor
from .linalg import (
    AmbientSpace,
    Matrix,
    Value,
    Vector,
    kernel,
    line_key,
    reflect,
    reflection_matrix,
    sorted_vectors,
)
from .weyl import (
    GroupElement,
    Minimal,
    NotMinimal,
    OrbitDescriptor,
    Unknown,
    orbit_closed_form,
    minimality,
    word_element,
)


class UnknownRoot(ValueError):
    """A word letter is not a root of the system under discussion."""


class NotARelation(ValueError):
    """The word does not evaluate to the identity."""


@dataclass(frozen=True)
class GeneratorWord:
    """A sequence of anisotropic roots, read as a product of reflections."""

    letters: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "letters",
            tuple(v if isinstance(v, Vector) else Vector(v) for v in self.letters),
        )
        dims = {v.dim for v in self.letters}
        if len(dims) > 1:
            raise ValueError(f"letters of mixed dimension: {sorted(dims)}")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def _letters(word) -> tuple[Vector, ...]:
    if isinstance(word, GeneratorWord):
        return word.letters
    return tuple(v if isinstance(v, Vector) else Vector(v) for v in word)


def evaluate(word, space: AmbientSpace) -> GroupElement:
    """Exact left-to-right product of the letter reflections.

    The empty word gives the identity.  Raises IsotropicRoot on an
    isotropic letter and DimensionMismatch on a letter of the wrong size.
    """
    return word_element(space, _letters(word))


def orbit_id(R: EarsDescriptor, v: Vector) -> OrbitDescriptor:
    """The orbit tag under which a letter is counted.

    Linearly dependent roots define the same reflection, so they must
    share a tag.  R's translation sets must pass construct_ears's rules;
    its finite part may be any.  Then extra never meets 2*short, so the
    roots on v's line are v and -v = r_v(v), both in v's orbit.
    """
    if R.classify(v) != "anisotropic":
        raise UnknownRoot(f"{v} is not an anisotropic root of {R.label}")
    return orbit_closed_form(R, v)


class ParityVector(Value):
    """Letter counts modulo two, one bit per orbit of lines: bits is the
    frozenset of the orbits with an odd count."""

    __slots__ = ("bits",)

    def __init__(self, bits=None):
        self._fill(frozenset(orbit for orbit, bit in dict(bits or {}).items() if bit % 2))

    def _identity(self):
        return self.bits

    def __getitem__(self, orbit) -> int:
        return int(orbit in self.bits)

    def is_zero(self) -> bool:
        return not self.bits

    def support(self) -> tuple:
        return tuple(sorted(self.bits, key=lambda ob: ob.key()))

    def __repr__(self):
        if self.is_zero():
            return "ParityVector(0)"
        bases = [ob.base_offset.coords for ob in self.support()]
        return f"ParityVector(odd on {len(self.bits)} orbit(s): {bases})"


def parity(word, R: EarsDescriptor) -> ParityVector:
    """Per-orbit letter counts mod 2; raises UnknownRoot on a non-root.
    R's translation sets must pass construct_ears's rules; its finite part may be any."""
    counts = {}
    for letter, n in Counter(_letters(word)).items():  # one orbit_id per distinct letter
        oid = orbit_id(R, letter)
        counts[oid] = counts.get(oid, 0) + n
    return ParityVector(counts)


# -- order of a product of two reflections -----------------------------------


@dataclass(frozen=True)
class Infinite:
    """Certified infinite order; cap records how far powers were tried."""

    cap: int
    certificate: tuple[Vector, Vector] | None = None


@dataclass(frozen=True)
class Undetermined:
    """No identity power up to cap and no certificate either way."""

    cap: int


def _translation_certificate(m: Matrix):
    """A pair (v, w), w nonzero, with m v = v + w and m w = w, or None.

    Such a w makes m^k v = v + k w, so no power of m is the identity.
    """
    d, den = m.dim, m.den
    a = [[x - den * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.ints)]
    fixed = kernel(a, d)  # a = den (m - I) has the null space of m - I
    if not fixed:
        return None
    # w must also be a combination of columns of m - I: solve (m - I) v = w
    # by treating (v, coeffs of kernel basis) as unknowns of a v - den K t = 0
    cols = d + len(fixed)
    stacked = [a[i] + [-den * k[i] for k in fixed] for i in range(d)]
    for sol in kernel(stacked, cols):
        coeffs = sol[d:]
        if all(c == 0 for c in coeffs):
            continue
        w = [
            sum(c * k[i] for c, k in zip(coeffs, fixed))
            for i in range(d)
        ]
        if any(x != 0 for x in w):
            return Vector(sol[:d]), Vector(w)
    return None


def coxeter_order(space: AmbientSpace, alpha: Vector, beta: Vector, cap: int = 24):
    """Order of r_alpha r_beta: an integer <= cap, Infinite, or Undetermined.

    The product m fixes every vector orthogonal to alpha and beta, so the
    Gram matrix of their plane decides.  A degenerate plane makes m - I
    nilpotent and nonzero: Infinite, certified by a vector moved by a fixed
    nonzero translation.  Otherwise n = 4(a,b)^2/((a,a)(b,b)) = 0, 1, 2, 3
    gives the order 2, 3, 4, 6, and any other n no finite order and, as m
    fixes no nonzero vector of the plane, no certificate either.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    m = reflection_matrix(space, alpha) @ reflection_matrix(space, beta)
    if m.is_identity():
        return 1
    aa, bb, ab = space.pair(alpha, alpha), space.pair(beta, beta), space.pair(alpha, beta)
    if aa * bb == ab * ab:
        return Infinite(cap, _translation_certificate(m))
    order = {0: 2, 1: 3, 2: 4, 3: 6}.get(4 * ab * ab / (aa * bb))
    return order if order is not None and order <= cap else Undetermined(cap)


# -- Coxeter shape of the presentation ---------------------------------------


@dataclass(frozen=True)
class Yes:
    nullity: int


@dataclass(frozen=True)
class No:
    roots: tuple[Vector, Vector, Vector]
    word: GeneratorWord


_WITNESS_PATTERN = (0, 1, 2, 0, 1, 2, 1, 0, 2, 1, 0, 2)


def witness_word(roots) -> GeneratorWord:
    """The twelve-letter identity word over three roots that share a
    direction and differ by two independent translations."""
    a = tuple(roots)
    if len(a) != 3:
        raise ValueError("exactly three roots are required")
    return GeneratorWord(tuple(a[i] for i in _WITNESS_PATTERN))


def coxeter_presentation_decision(R: EarsDescriptor):
    """Can the reflection group carry a Coxeter presentation on the roots?

    Yes exactly when the nullity is zero or one.  At nullity two and above
    the answer is No, witnessed by three roots with a common direction and
    two independent translation displacements: the twelve-letter word over
    them evaluates to the identity while no Coxeter relation implies it.
    """
    if R.nullity <= 1:
        return Yes(R.nullity)
    space = R.space
    sl = R.translations["short"]
    dot = sorted_vectors(R.dot_classes["short"])[-1]
    lam = sl.lattice.rows
    shifts = [row * 2 for row in lam[:2]]
    zero = Vector([0] * R.nullity)
    roots = tuple(
        space.assemble(s, dot) for s in (zero, shifts[0], shifts[1])
    )
    for r in roots:
        if R.classify(r) != "anisotropic":
            raise AssertionError(f"witness root {r} fell outside the system")
    word = witness_word(roots)
    if not evaluate(word, space).matrix.is_identity():
        raise AssertionError("witness word failed to evaluate to the identity")
    return No(roots, word)


# -- obstruction to the presentation by conjugation ---------------------------


@dataclass(frozen=True)
class Obstruction:
    word: GeneratorWord
    parity: ParityVector
    matrix: Matrix


@dataclass(frozen=True)
class NoneFound:
    orbits_checked: int


def conjugation_obstruction(R: EarsDescriptor):
    """Identity word with odd letter count on some orbit, if one exists.

    Runs the minimality decision, which takes no search bound.  A removable
    orbit yields the word r_base r_dk ... r_d1 where r_base = r_d1 ... r_dk is
    the generation certificate: it evaluates to the identity but uses the
    base's orbit an odd number of times, so equality classes of words cannot
    be told apart by orbit counts alone.  A Minimal verdict reports NoneFound;
    an Unknown verdict is returned as-is.  R's translation sets must pass
    construct_ears's rules; its finite part may be any.
    """
    verdict = minimality(R)
    if isinstance(verdict, Minimal):
        return NoneFound(verdict.orbit_count)
    if isinstance(verdict, Unknown):
        return verdict
    assert isinstance(verdict, NotMinimal)
    letters = (verdict.orbit.base,) + tuple(reversed(verdict.certificate))
    word = GeneratorWord(letters)
    element = evaluate(word, R.space)
    if not element.matrix.is_identity():
        raise AssertionError("obstruction word failed to evaluate to the identity")
    pv = parity(word, R)
    if pv[orbit_id(R, verdict.orbit.base)] != 1:
        raise AssertionError("obstruction word has even count on the removed orbit")
    return Obstruction(word, pv, element.matrix)


# -- rewriting relations into a preferred alphabet ----------------------------


def _preferred_lines(preferred_subset) -> set:
    return {line_key(v if isinstance(v, Vector) else Vector(v))
            for v in preferred_subset}


def conjugation_rewrite(word, R: EarsDescriptor, preferred_subset):
    """Eliminate letters outside the preferred set from an identity word.

    Repeatedly (a) cancels adjacent letters on a common line and (b) moves
    the leftmost outside letter one step right using
    r_b r_a = r_a r_{r_a(b)}, which conjugates it while preserving both
    the evaluation and the per-orbit letter counts mod 2.  Outside letters
    annihilate in pairs when the walk brings two of them together; a
    letter with no reachable mate survives.  Returns the rewritten word
    and the step log.
    """
    space = R.space
    letters = list(_letters(word))
    for v in letters:
        if R.classify(v) != "anisotropic":
            raise UnknownRoot(f"{v} is not an anisotropic root of {R.label}")
    if not evaluate(letters, space).matrix.is_identity():
        raise NotARelation("the word does not evaluate to the identity")
    preferred = _preferred_lines(preferred_subset)
    steps = []
    fuel = 4 * (len(letters) + 2) ** 2
    changed = True
    while changed and fuel > 0:
        changed = False
        i = 0
        while i + 1 < len(letters):
            if line_key(letters[i]) == line_key(letters[i + 1]):
                steps.append(("cancel", i, letters[i], letters[i + 1]))
                del letters[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        for i, v in enumerate(letters):
            if line_key(v) in preferred or i + 1 >= len(letters):
                continue
            nxt = letters[i + 1]
            moved = reflect(space, nxt, v)
            steps.append(("swap", i, v, nxt, moved))
            letters[i], letters[i + 1] = nxt, moved
            changed = True
            break
        fuel -= 1
    if not evaluate(letters, space).matrix.is_identity():
        raise AssertionError("rewriting changed the evaluation")
    return GeneratorWord(tuple(letters)), tuple(steps)


# -- the defining relation families, as word builders -------------------------


def square_relation(alpha: Vector) -> GeneratorWord:
    """r_a r_a = 1."""
    return GeneratorWord((alpha, alpha))


def line_relation(alpha: Vector, beta: Vector) -> GeneratorWord:
    """r_a r_b = 1 for linearly dependent roots a, b."""
    if line_key(alpha) != line_key(beta):
        raise ValueError(f"{alpha} and {beta} span different lines")
    return GeneratorWord((alpha, beta))


def conjugation_relation(space: AmbientSpace, alpha: Vector,
                         beta: Vector) -> GeneratorWord:
    """r_a r_b r_a = r_{r_a(b)}, written as a four-letter identity word."""
    return GeneratorWord((alpha, beta, alpha, reflect(space, alpha, beta)))
