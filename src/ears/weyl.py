"""Extended affine Weyl groups as exact rational matrix groups.

Root orbits (closed form plus a windowed BFS oracle), generation
certificates for orbit removal, minimality of the anisotropic root set,
and extraction of a minimal subsystem.

Orbit structure: the orbit of alpha is alpha - dot(alpha) + (the length
class of dot(alpha), on which W_fin is transitive: Humphreys, 10.4, Lemma
C) + T, where T sums g_b <S_b> over the classes b, g_b the gcd of the
Cartan integers <dot(alpha), b^vee> over b.  That gcd is W-invariant in
dot(alpha), so each class has one lattice T, built once per descriptor
(EarsDescriptor.class_lattice).

Generation after removing an orbit is decided exactly when the finite
part has rank one.  With the finite form normalized to [1], each group
element then has a normal form (sign, shear vector b, isotropic block B)
with B + B^T = -b b^T.  The decider keeps even elements only, each one
flat int list b||(B - B^T) at one scale with its word; they form a group
nilpotent of class two (Azam 1999), where membership reduces to
Hermite-style integer reduction whose rows are slices of those lists,
with one division when a pivot divides.  Words are straight-line-program nodes,
plain tuples tagged by a str ("*", "~", "^") over leaves of letters,
expanded once per Generates (RuntimeError above _WORD_CAP letters,
before any is built) and re-checked by flat re-multiplication.  One
minimality call works out what depends on the system alone once for all
its orbits (_Setup): the finite Weyl order (closed only once a removal
leaves directions), the finite closure per set of remaining classes,
each reflection's image mod k and R's symmetries (sign flips,
transpositions and shears of the radical coordinates keeping every
class set).  Each maps R onto R and W onto W, so a NotGenerates carries
over to the orbit's images, which are not checked again.  For higher
ranks the verdict is three-valued.  Sound negatives come from the finite
quotient or from a congruence quotient (Mal'cev 1958), and no descriptor
is built for the remaining roots.  The quotient reads radical coordinates
in the short lattice's basis, conjugates by diag(D^2, D, 1) with D the
least scale making every reflection integral (1 on B2 nu2 matched, 2 on
BC2 nu1), reads each image off the root in closed form, reduces mod k =
4, 8, ..., 64 and splits over W_fin (Schreier).  Positives come from the
slice: the rank-one decider on the remaining roots of the base's line,
which form a rank-one system (W = W_fin x| H, Azam 1999), its word mapped
back into R.  What neither decides is Inconclusive.  Nothing searches,
so no call takes a search depth or budget.

Words multiply a Matrix by reflections as rank-one integer updates
(linalg.times_reflector); the windowed orbit search forms only the
reflected members that stay in its box, on integers at one scale
(Vector.at); certificates are re-checked against reflection_matrix,
built from linalg.reflect and not from those updates.
Finite generation runs on root permutations
(finite.reflection_closure).
Rank-one powers are closed form, and so is a reduction step (times_power:
one product).  Any positive rank-one form [g] is decided: scaling the dual
block by 1/g turns the form into [1] and fixes every root, so it carries
the group for [g] onto the group for [1], letter by letter.
Extraction takes the standard system with the length profile of what a
removal leaves (finite._classify_subset) and accepts it only when its form
is a positive multiple of the finite part's (the same scaling argument)
and its length classes are the remaining ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, count, product

from .core import (
    _CLASS_TAGS,
    ConstraintViolation,
    EarsDescriptor,
    characterize,
    construct_ears,
)
from .finite import (
    NotIrreducible,
    _classify_subset,
    finite_weyl,
    length_classes,
    reflection_closure,
)
from .linalg import (
    AmbientSpace,
    DimensionMismatch,
    Matrix,
    Value,
    Vector,
    closure,
    line_key,
    reflection_matrix,
    reflector,
    sorted_vectors,
    times_reflector,
)
from .semilattice import Lattice, Semilattice


class NotOverFinitePart(ValueError):
    """The vector does not reduce into the finite root system."""


class NotAnOrbit(ValueError):
    """The alleged orbit is not a reflection-group orbit of the system."""


class Stuck(RuntimeError):
    """Extraction hit an orbit whose removability could not be decided."""


@dataclass(frozen=True)
class GroupElement:
    """A Weyl-group element: exact matrix, optionally with a generating word."""

    matrix: Matrix
    word: tuple[Vector, ...] | None = None


def word_element(space: AmbientSpace, letters) -> GroupElement:
    """Ordered product of the reflections in the given anisotropic roots."""
    letters = tuple(letters)
    kernel = {r: reflector(space, r) for r in dict.fromkeys(letters)}
    m = Matrix.identity(space.dim)
    for root in letters:
        m = times_reflector(m, kernel[root])
    return GroupElement(m, letters)


class OrbitDescriptor(Value):
    """Closed-form orbit of a vector under the extended affine Weyl group."""

    __slots__ = ("space", "base", "dot_part", "finite_orbit", "translation_lattice",
                 "base_offset", "_key")

    def __init__(self, space, base, dot_part, finite_orbit, translation_lattice):
        # base_offset: the isotropic part shared by every orbit member, reduced mod T
        self._fill(space, base, dot_part, frozenset(finite_orbit), translation_lattice,
                   translation_lattice.reduce(space.blocks(base)[0]), None)

    def key(self):
        """Sort key of the orbit, in Fractions; built on first use, since
        only sorting needs it.  Two orbits have equal keys exactly when
        they are equal, and equality runs on the integer parts."""
        if self._key is None:
            object.__setattr__(self, "_key", (
                tuple(sorted(d.coords for d in self.finite_orbit)),
                tuple(r.coords for r in self.translation_lattice.rows),
                self.base_offset.coords,
            ))
        return self._key

    def _identity(self):
        return self.base_offset, self.translation_lattice, self.finite_orbit

    def __repr__(self) -> str:
        return f"<orbit of {self.base} ({len(self.finite_orbit)} directions)>"

    def contains(self, v: Vector) -> bool:
        space = self.space
        if v.dim != space.dim:
            raise DimensionMismatch(f"vector dim {v.dim}, space dim {space.dim}")
        iso, dot, dual = space.blocks(v)
        if not dual.is_zero() or dot not in self.finite_orbit:
            return False
        return self.translation_lattice.contains(iso - space.blocks(self.base)[0])

    def window(self, bound) -> list[Vector]:
        """All orbit members with max-norm at most bound, sorted."""
        space = self.space
        isos = Semilattice.from_cosets(
            [space.blocks(self.base)[0]], self.translation_lattice, translated=True
        ).window(bound)
        return sorted_vectors(
            space.assemble(s, d) for d in self.finite_orbit if d.max_norm() <= bound for s in isos
        )


def orbit_closed_form(R: EarsDescriptor, alpha: Vector) -> OrbitDescriptor:
    """Orbit of alpha as base + finite orbit + translation lattice: the
    length class of dot(alpha) and its class lattice, or {0} and the zero
    lattice for an isotropic alpha, which every reflection fixes."""
    space = R.space
    if alpha.dim != space.dim:
        raise DimensionMismatch(f"vector dim {alpha.dim}, space dim {space.dim}")
    _, dot, dual = space.blocks(alpha)
    if not dual.is_zero():
        raise NotOverFinitePart("nonzero dual coordinates")
    if dot.is_zero():
        return OrbitDescriptor(space, alpha, dot, [dot], Lattice(space.nu))
    tag = R.class_of_dot(dot)
    if tag is None:
        raise NotOverFinitePart(f"{dot} is not a finite root")
    return OrbitDescriptor(space, alpha, dot, R.dot_classes[tag], R.class_lattice(tag))


def orbit_bfs(R: EarsDescriptor, alpha: Vector, bound) -> frozenset[Vector]:
    """Windowed orbit oracle: reflection closure of alpha inside the box.

    Independent of the closed form.  The generators are the reflections in
    all roots of max-norm at most bound + 2, and images are kept while they
    stay within the box; only those are formed.  Reflecting a member v in
    the root sigma + d (sigma isotropic, d finite) gives iso(v) - c sigma +
    dot(v) - c d, where c = <dot(v), d^vee> involves the dot parts alone
    because the dual part of v is 0 (a non-zero one is refused).  So c = 0
    fixes v, and otherwise the image stays in the box exactly when dot(v) -
    c d does and sigma lies in the shifted box |iso(v) - c sigma| <= bound:
    per member and d, only those sigma of d's translation set are
    enumerated (Semilattice.points), on integers at one common scale.

    The result is a subset of orbit_closed_form(R, alpha).window(bound).
    It is the whole window only where the window's members connect through
    reflections in the padded window's roots without leaving the box.  On
    G2 nu1, orbit_bfs(R, (-2, 0, -1, 0), 2) returns 6 of the 10 members:
    the other four are reached only through members of norm 3, so a search
    at bound 3 cut back to norm 2 finds all ten.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    space = R.space
    if alpha.dim != space.dim:
        raise DimensionMismatch(f"vector dim {alpha.dim}, space dim {space.dim}")
    iso, dot, dual = space.blocks(alpha)
    if not dual.is_zero():
        raise NotOverFinitePart("nonzero dual coordinates")
    if alpha.max_norm() > bound:
        return frozenset()
    pad = bound + 2
    # the dot parts the box admits, each with its moves (c, image's dot, tag)
    dots = [dot]
    index = {dots[0]: 0}
    # sigma + d and -sigma - d give one reflection: on a symmetric set keep one sign
    sym = {t for t, sl in R.translations.items() if all(sl.contains(-c) for c in sl.cosets)}
    moves = []
    for u in dots:
        moves.append([])
        for tag, roots in R.dot_classes.items():
            for d in roots:
                if tag in sym and d.ints < (-d).ints:
                    continue
                c = R.finite_part.cartan_int(u, d)
                w = u - d * c
                if c and d.max_norm() <= pad and w.max_norm() <= bound:
                    if w not in index:
                        index[w] = len(dots)
                        dots.append(w)
                    moves[-1].append((c, index[w], tag))
    scale = math.lcm(
        *(v.den for v in (alpha, *dots)),
        *(sl.den for sl in R.translations.values()),
    ) * math.lcm(*(c.denominator for m in moves for c, _, _ in m))

    box, clip = math.floor(bound * scale), math.floor(pad * scale)
    moves = [
        [(abs(c.numerator), c.denominator, 1 if c > 0 else -1, j, R.translations[t]) for c, j, t in m]
        for m in moves
    ]
    start = (0, iso.at(scale))
    # not linalg.closure: each move yields all its images at once, from one box query
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for i, x in frontier:
            for p, q, e, j, sl in moves[i]:
                # sigma with |x - e p sigma / q| <= box, within the padded window
                lo = [max(-clip, -(q * (box - e * y) // p)) for y in x]
                hi = [min(clip, q * (box + e * y) // p) for y in x]
                for sigma in sl.points(scale, lo, hi):
                    w = (j, tuple([y - e * p * z // q for y, z in zip(x, sigma)]))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return frozenset(space.assemble(Vector._of(x, scale), dots[i]) for i, x in seen)


# -- exact membership for rank-one systems ----------------------------------
#
# With a single finite direction e, normalized to (e, e) = 1, every group
# element acts as sigma' = sigma + b x + B delta, x' = eps x + c.delta,
# delta' = delta with c = -eps b and B + B^T = -b b^T; a reflection in
# x e + sigma has eps = -1 and b = -2 sigma D / x at a shear scale D.  The
# decider holds even elements (eps = 1) only, each a pair (ints b||w, word
# node), w = B - B^T (upper-triangle pairs) at scale D^2: the product is
# (b1 + b2, w1 + w2 - b1^b2), (b1^b2)_ij = b1_i b2_j - b1_j b2_i, the n-th
# power is (n b, n w), a pair of reflections r_1 r_2 is (b_2 - b_1,
# b_1^b_2) and a commutator [a, b] is (0, -2 b_a^b_b).


@lru_cache(maxsize=64)
def _pairs(nu: int) -> tuple:
    """The index pairs i < j of w in nu coordinates, in w's order."""
    return tuple(combinations(range(nu), 2))


def _wedge(b1, b2):
    return [b1[i] * b2[j] - b1[j] * b2[i] for i, j in _pairs(len(b1))]


def _tag(node):
    """The tag of a word node, or None for a leaf.  A word is a node of a
    straight-line program (Holt, Eick and O'Brien 2005), a plain tuple:
    ("*", u, v) is u then v, ("~", u) is u reversed and ("^", u, n) is u
    n times; a tuple that does not start with a str is a leaf of letters."""
    return node[0] if node and type(node[0]) is str else None


_WORD_CAP = 1_000_000  # letters; the suite's longest certificate has 11,471


def _length(node) -> int:
    """The letter count of a word node, each node counted once, without recursion."""
    size, stack = {}, [node]
    while stack:
        top = stack.pop()
        kids = () if (tag := _tag(top)) is None else top[1:] if tag == "*" else top[1:2]
        if todo := [k for k in kids if id(k) not in size]:
            stack += [top, *todo]
        else:  # a leaf, or a node whose children are counted
            n = sum(size[id(k)] for k in kids) if kids else len(top)
            size[id(top)] = n * top[2] if tag == "^" else n
    return size[id(node)]


def _expand(node) -> tuple:
    """The letters of a word node, without recursion.  Each node is
    expanded once; a repeat copies the span of its first expansion.
    RuntimeError when there would be more than _WORD_CAP letters."""
    if (n := _length(node)) > _WORD_CAP:
        raise RuntimeError(f"a word of {n} letters exceeds the cap of {_WORD_CAP}")
    out, spans, stack = [], {}, [(node, False, None)]
    while stack:
        node, rev, start = stack.pop()
        if start is not None:  # the first expansion of node ends here
            spans[id(node)] = (start, len(out), rev)
        elif _tag(node) is None:
            out.extend(node[::-1] if rev else node)
        elif id(node) in spans:
            a, b, first = spans[id(node)]
            out.extend(out[a:b] if first == rev else out[a:b][::-1])
        elif node[0] == "~":
            stack.append((node[1], not rev, None))
        else:
            stack.append((node, rev, len(out)))
            # pushed last to first in the order they are emitted
            kids = [node[1]] * node[2] if node[0] == "^" else node[1:] if rev else node[:0:-1]
            stack += [(kid, rev, None) for kid in kids]
    return tuple(out)


def _shear(nu: int, root: Vector, scale: int):
    """The shear vector -2 sigma D / x of the reflection in root = (sigma,
    x, 0) at scale D, as ints; None when one is not an integer."""
    x, b = root.ints[nu], [-2 * scale * s for s in root.ints[:nu]]
    return None if any(v % x for v in b) else [v // x for v in b]


def _pair(r: Vector, br, s: Vector, bs):
    """The even element r_r r_s of two reflections, given their shears."""
    return [*(y - x for x, y in zip(br, bs)), *_wedge(br, bs)], ("*", (r,), (s,))


def _power(el, n: int):
    """el^n: (n b, n w), the word u^n, or u reversed |n| times for n < 0."""
    e, u = el
    return [n * x for x in e], ("^", u if n >= 0 else ("~", u), abs(n))


def _times_power(el, r, n: int, nu: int):
    """el r^n for even elements whose flat lists start with a shear of nu
    entries: (b + n b_r, w + n (w_r - b^b_r)).  nu = 0 for elements kept
    as w alone, since b = 0: then no wedge is formed."""
    (e, u), (f, v) = el, r
    out = [x + n * y for x, y in zip(e, f)]
    for k, (i, j) in enumerate(_pairs(nu), nu):
        out[k] -= n * (e[i] * f[j] - e[j] * f[i])
    return out, ("*", u, ("^", v if n >= 0 else ("~", v), abs(n)))


def _commutator(a, b, nu: int):
    """a b a^-1 b^-1 of even elements, kept as w alone: (0, -2 b_a^b_b)."""
    (e, u), (f, v) = a, b
    return [-2 * x for x in _wedge(e[:nu], f[:nu])], ("*", ("*", ("*", u, v), ("~", u)), ("~", v))


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _CarrierReducer:
    """Hermite-style row reduction on even elements: an element's row is
    the first dim entries of its flat list, b in the shear reducer (nu =
    dim), w in the central one, whose elements have b = 0 and keep w alone
    (nu = 0).  Row operations are group products, so a row stays its
    element's slice; fully reduced elements but the identity are residuals."""

    def __init__(self, dim: int, nu: int):
        self.dim, self.nu = dim, nu
        self.rows: dict[int, tuple[list[int], tuple]] = {}
        self.residuals: list[tuple[list[int], tuple]] = []

    def _pivot(self, e):
        for i in range(self.dim):
            if e[i]:
                return i
        return None

    def insert(self, el):
        nu, queue = self.nu, [el]
        while queue:
            el = queue.pop()
            e = el[0]
            p = self._pivot(e)
            if p is None:
                if any(e):
                    self.residuals.append(el)
                continue
            if p not in self.rows:  # an inverse keeps the pivot positive
                self.rows[p] = ([-x for x in e], ("~", el[1])) if e[p] < 0 else el
                continue
            row = self.rows[p]
            g, x, y = _xgcd(row[0][p], e[p])
            if y == 0:  # the pivot divides e[p]: one division, the row stays
                queue.append(_times_power(el, row, -(e[p] // g), nu))
                continue
            # x == 0 when e[p] divides the pivot: el's power takes the row's
            # place, and what is left of el, an identity, is not queued
            new = _times_power(_power(row, x), el, y, nu) if x else _power(el, y)
            q1, q2 = row[0][p] // g, e[p] // g
            self.rows[p] = new
            queue.append(_times_power(row, new, -q1, nu))
            if x:
                queue.append(_times_power(el, new, -q2, nu))

    def reduce(self, el):
        """Right-divide by the rows; None when el's row is outside their lattice."""
        for p in range(self.dim):
            if not (v := el[0][p]):
                continue
            if p not in self.rows:
                return None
            row = self.rows[p]
            q, rem = divmod(v, row[0][p])
            if rem:
                return None
            el = _times_power(el, row, -q, self.nu)
        return el


def _offsets(nu: int, rows):
    """0, the rows, then the sums of pairs of rows (int tuples): the
    translations whose reflections stand for all of a rank-one family."""
    return [(0,) * nu, *rows, *(tuple(x + y for x, y in zip(a, b)) for a, b in combinations(rows, 2))]


class _Rank1Decider:
    """Exact subgroup membership for reflections of a rank-one system of
    nullity nu, which is all it reads of a space.

    families: per length class, the finite-direction coefficient together
    with the translation semilattice of the remaining roots (None when
    none remain).
    """

    def __init__(self, nu: int, families):
        # any finite form [g] is decided as [1]: (tau, y, delta) -> (tau, y, delta / g)
        # scales the form by 1/g and fixes the roots, so it conjugates the two groups
        self.nu = nu
        # the roots (sigma, x, 0) as ints at one scale, in Vector order; one Vector each
        fams = [(x, sl) for x, sl in families if sl is not None]
        top = math.lcm(1, *(n for x, sl in fams for n in (x.denominator, sl.den)))
        ints = sorted(
            (*(a + b for a, b in zip(c.at(top), off)), int(x * top), *(0,) * nu)
            for x, sl in fams for off in _offsets(nu, sl.modulus.rows_at(top)) for c in sl.cosets)
        # the least scale at which every shear 2 sigma / x is integral
        self.scale = math.lcm(*(abs(r[nu]) // math.gcd(2 * s, r[nu]) for r in ints for s in r[:nu]))
        base, *rest = [Vector._of(r, top) for r in ints]
        self._base = base, _shear(nu, base, self.scale)
        self._rows = _CarrierReducer(nu, nu)
        for r in rest:
            self._rows.insert(_pair(r, _shear(nu, r, self.scale), *self._base))
        self._kappa = _CarrierReducer(nu * (nu - 1) // 2, 0)
        for e, u in self._rows.residuals:
            self._kappa.insert((e[nu:], u))
        # an identity among the commutators of the rows is dropped by insert
        pivots = [self._rows.rows[p] for p in sorted(self._rows.rows)]
        for a, b in combinations(pivots, 2):
            self._kappa.insert(_commutator(a, b, nu))

    def reduce_reflection(self, root: Vector):
        """The word node of r_root r_base multiplied to the identity by the
        generators, or None when r_root is outside; its word, less r_root
        and read backwards, is a certificate for r_root."""
        b = _shear(self.nu, root, self.scale)
        if b is None:
            return None
        el = self._rows.reduce(_pair(root, b, *self._base))
        if el is None:
            return None
        el = self._kappa.reduce((el[0][self.nu:], el[1]))
        return el[1] if el is not None and not any(el[0]) else None


# -- generation verdicts -----------------------------------------------------


@dataclass(frozen=True)
class Generates:
    certificate: tuple[Vector, ...]


@dataclass(frozen=True)
class NotGenerates:
    reason: str


@dataclass(frozen=True)
class Inconclusive:
    """No decision path decided the orbit; nothing searched."""


@dataclass(frozen=True)
class Minimal:
    orbit_count: int


@dataclass(frozen=True)
class NotMinimal:
    orbit: OrbitDescriptor
    certificate: tuple[Vector, ...]


@dataclass(frozen=True)
class Unknown:
    unresolved: tuple[OrbitDescriptor, ...]


def anisotropic_orbits(R: EarsDescriptor) -> list[OrbitDescriptor]:
    """All reflection-group orbits on the anisotropic roots, deterministic:
    per class, one per coset of its lattice T that the translation set
    meets, based at that coset's reduced representative."""
    out = []
    for tag in _CLASS_TAGS:
        sl = R.translations.get(tag)
        if sl is None:
            continue
        # the positive member of its line, so certificate words stay short
        dot = sorted_vectors(R.dot_classes[tag])[-1]
        t = R.class_lattice(tag)
        scale = math.lcm(sl.den, t.den)
        reps = {t.reduce_at(c, scale) for c in sl._residues(sl.modulus.intersect(t), scale)}
        for rep in sorted(reps):
            base = R.space.assemble(Vector._of(rep, scale), dot)
            out.append(OrbitDescriptor(R.space, base, dot, R.dot_classes[tag], t))
    return out


def _remaining_translations(R: EarsDescriptor, orbit: OrbitDescriptor):
    """Per-class translation sets of the roots kept after removing the orbit.

    Only the orbit's own class changes.  Its cosets c modulo fine = modulus
    meet T are kept when c - sigma0 lies outside T, sigma0 the base's
    isotropic part; if none is kept, the class maps to None.
    """
    own = R.class_of_dot(orbit.dot_part)
    sl, t = R.translations[own], orbit.translation_lattice
    sigma0 = R.space.blocks(orbit.base)[0]
    scale = math.lcm(sl.den, t.den, sigma0.den)
    s0 = sigma0.at(scale)
    fine = sl.modulus.intersect(t)
    keep = [c for c in sl._residues(fine, scale)
            if any(t.reduce_at([a - b for a, b in zip(c, s0)], scale))]
    out = dict(R.translations)
    # the cosets are reduced modulo fine, so only the zero one lies in it
    out[own] = Semilattice._of(fine, scale, keep, all(map(any, keep))) if keep else None
    return out


def _validate_orbit(R: EarsDescriptor, orbit: OrbitDescriptor):
    if not isinstance(orbit, OrbitDescriptor):
        raise NotAnOrbit("expected an OrbitDescriptor")
    if R.classify(orbit.base) != "anisotropic":
        raise NotAnOrbit(f"{orbit.base} is not an anisotropic root")
    if orbit_closed_form(R, orbit.base) != orbit:
        raise NotAnOrbit("descriptor does not match the orbit of its base")


def _finite_closure(R: EarsDescriptor, fams):
    """finite.reflection_closure of the remaining directions, in class
    order, then by root."""
    dots = [d for tag, sl in fams.items() if sl is not None
            for d in sorted_vectors(R.dot_classes[tag])]
    return reflection_closure(R.finite_part, dots)


class _Setup:
    """What generation_check needs of R alone, worked out once for all the
    orbits of one minimality call and dropped with it: the finite Weyl
    order, closed only once a removal leaves directions, whether the
    directions of a set of remaining classes generate that group, the
    congruence quotient's scaling D, Gram data and images, and the
    symmetries."""

    def __init__(self, R: EarsDescriptor):
        self.R, self._generates, self._classes, self._scale, self._maps = R, {}, {}, None, None

    def symmetries(self) -> list[Matrix]:
        """The sign flips, shears x_i -> x_i + x_j and transpositions g of the
        radical coordinates (v -> g * v) mapping each class set into itself,
        modulus rows and cosets alike.  With g^-T on the dual block, each is an
        isometry mapping R onto R (g is unimodular, the modulus of full rank)
        that fixes the finite part and each class's T."""
        if self._maps is None:
            eye, maps = [tuple(int(i == j) for j in range(self.R.space.nu)) for i in range(self.R.space.nu)], []
            for i, j in product(range(len(eye)), repeat=2):
                g, swap = eye[:], eye[:]
                g[i] = tuple(-x for x in eye[i]) if i == j else tuple(map(int.__add__, eye[i], eye[j]))
                swap[i], swap[j] = eye[j], eye[i]
                maps += [g, swap] if i < j else [g]
            self._maps = [g for g in (Matrix._of(m, 1) for m in maps) if all(
                all(sl.modulus.contains(g * r) for r in sl.modulus.rows)
                and all(sl.modulus.reduce(g * c) in sl.cosets for c in sl.cosets) for sl in self.R.translations.values())]
        return self._maps

    def finite_generates(self, fams) -> bool:
        key = tuple(tag for tag, sl in fams.items() if sl is not None)
        if key not in self._generates:
            letters, tree = _finite_closure(self.R, fams)
            self._generates[key] = bool(letters) and len(tree) == self.order
        return self._generates[key]

    @cached_property
    def order(self) -> int:
        return finite_weyl(self.R.finite_part).order

    def lines(self, tag) -> list[Vector]:
        """One direction per line of the class: r_(s + d) = r_(-s - d)."""
        return [d for d in self.R.dot_classes[tag] if next(filter(None, d.ints)) > 0]

    def scale(self) -> int:
        """D: the least scale making every reflection of R integral, tried on
        each class lattice's rows and their pairwise sums, which suffices as
        the entries are of degree at most 2 in t.  First it sets what image
        reads: the short lattice's basis, g, and per finite root d its
        permutation, F d and d^T F d, worked out once."""
        if self._scale is None:
            R, nu, lat = self.R, self.R.space.nu, self.R.translations["short"].lattice
            inv = [[Fraction(i == j) for j in range(nu)] for i in range(nu)]
            for j, row in enumerate(lat.hnf):  # inv h = I; h is upper triangular, as the set spans
                for t in inv:
                    t[j] = (t[j] - sum(t[m] * lat.hnf[m][j] for m in range(j))) / row[j]
            e, rank, gram = math.lcm(1, *(x.denominator for t in inv for x in t)), R.space.rank, R.space.form.gram
            self._basis = [[int(lat.den * e * t[j]) for t in inv] for j in range(nu)], e, gram.den
            self._dots = {}
            for d, perm in zip(R.finite_part.ordered, R.finite_part.perms):
                fd = [sum(map(int.__mul__, row[nu:nu + rank], d.ints)) for row in gram.ints[nu:nu + rank]]
                self._dots[d] = perm, fd, sum(map(int.__mul__, fd, d.ints))
            mod = _mod_k(nu, rank, 4)
            self._scale = next(D for D in count(1) if all(
                self.image(x, sl.lattice.den, d, mod, D)[1] is not None for tag, sl in R.translations.items()
                for x in _offsets(nu, sl.lattice.hnf)[1:] for d in self.lines(tag)))
        return self._scale

    def images(self, tag, sl, mod: _ModK) -> list:
        """image() of every reflection of a remaining set sl of the class tag:
        one per line and period class (_residues), since an image mod k
        depends on the translation only mod k times the class's lattice.
        Kept per set: R's own recurs for every orbit of another class."""
        if (key := (tag, mod.k, sl)) not in self._classes:
            finer = sl.modulus.intersect(self.R.translations[tag].lattice.scaled(mod.k))
            scale = math.lcm(sl.den, finer.den)
            self._classes[key] = [self.image(x, scale, d, mod) for x in sl._residues(finer, scale) for d in self.lines(tag)]
        return self._classes[key]

    def image(self, x, scale, d, mod: _ModK, D=None):
        """(finite permutation, image mod k) of the reflection in (x / scale,
        d), radical part in the short lattice's basis h (t = x / scale h^-1,
        dual block by h^T), conjugated by diag(D^2, D, 1): the reflection in
        (D^2 t, D d), the form being the old one over D^2.  In closed form,
        with the integer Gram rows [[0, 0, g I], [0, F, 0], [g I, 0, 0]], it
        is I - a p^T / st for a = (tau, delta, 0), p = 2 (0, F delta, g tau)
        and st = delta^T F delta.  The image is None when an entry is not integral."""
        D, (cols, e, g), n = D or self.scale(), self._basis, self.R.space.dim
        (perm, fd, dfd), c = self._dots[d], D * scale * e  # delta = c d, at the scale of tau
        tau = [D * D * d.den * sum(map(int.__mul__, x, col)) for col in cols]
        a, p = tau + [c * y for y in d.ints], [2 * c * y for y in fd] + [2 * g * y for y in tau]
        st, out = c * c * dfd, mod.one
        for i, u in enumerate(a):
            for j, v in enumerate(p if u else (), len(tau)):  # p is zero on the radical block
                if v:
                    q, r = divmod(-u * v, st)
                    if r:
                        return perm, None
                    out += q % mod.k << (i * n + j) * mod.w
        return perm, out & mod.mask


def _slice_decision(R: EarsDescriptor, orbit: OrbitDescriptor, fams):
    """Whether r_base lies in the group of the remaining roots on its line.

    With d the base's direction (the positive member of its line) and e
    the least positive finite root on that line, those roots sigma + x e
    form a rank-one system (A1, or BC1 where a BC class doubles the line)
    whose reflections act on radical + <e> + dual as on its own space, so
    _Rank1Decider decides membership in their group.  Its word, each
    letter (sigma, x) mapped back to sigma + x e, is re-checked in R's
    space.  Only r_base is reduced: the remaining roots are W-invariant,
    so their group is normal in W and holds the whole orbit once it holds
    r_base.  At rank one the slice is R, and a failure is an exact
    NotGenerates; above it the slice's group may be smaller: None.
    """
    space, nu = R.space, R.space.nu
    dot, sigma0 = orbit.dot_part, space.blocks(orbit.base)[0]
    if next(filter(None, dot.ints)) < 0:
        # reflections are attached to lines; use the positive-dot member
        dot, sigma0 = -dot, -sigma0
    line = [(c, tag) for c in (Fraction(1, 2), Fraction(1), Fraction(2)) if (tag := R.class_of_dot(dot * c))]
    least = line[0][0]
    e = dot * least
    decider = _Rank1Decider(nu, [(c / least, fams.get(tag)) for c, tag in line])
    # the base in the slice's own space: (sigma0, 1 / least, 0)
    node = decider.reduce_reflection(Vector._of((*sigma0.ints, int(sigma0.den / least), *(0,) * nu), sigma0.den))
    root = space.assemble(sigma0, dot)
    if node is None:
        return None if R.finite_part.rank > 1 else NotGenerates(
            f"the reflection in {root} is outside the subgroup generated "
            "by the remaining roots (rank-one membership is decided exactly)")
    word = _expand(node)  # the only word a decision expands
    back = {r: space.assemble(Vector._of(r.ints[:nu], r.den), e * Fraction(r.ints[nu], r.den)) for r in set(word)}
    assert back[word[0]] == root
    certificate = tuple(back[r] for r in word[:0:-1])
    _check_certificate(space, orbit.base, certificate)
    return Generates(certificate)


def _check_certificate(space, base, word):
    target = reflection_matrix(space, base)
    if word_element(space, word).matrix != target:
        raise AssertionError("certificate failed re-verification")


class _ModK:
    """n x n integer matrices mod k = 2^m, packed into one int, entry (i, j)
    in the w-bit field i n + j, where a sum of n products of entries fits.
    A reflection I - a p^T / st is the identity on the radical columns and
    the dual rows (a is zero on the dual block, p on the radical one), and
    so is every product of them.  So A B sums B's radical rows and A's dual
    columns (masks) and, over the finite block's columns j, A's column j (a
    mask, a shift) times B's row j; one & reduces."""

    def __init__(self, nu: int, rank: int, k: int):
        n, top = nu + rank + nu, nu + rank
        self.k, self.w = k, (n * (k - 1) ** 2).bit_length()
        self.row, field = (1 << n * self.w) - 1, [[k - 1 << (i * n + j) * self.w for j in range(n)] for i in range(n)]
        self.cols = [(sum(r[j] for r in field), j * self.w, j * n * self.w) for j in range(nu, top)]
        self.mask, self.one = sum(map(sum, field)), sum(1 << i * (n + 1) * self.w for i in range(n))
        self.lead, self.tail = sum(map(sum, field[:nu])), sum(sum(r[top:]) for r in field)

    def mul(self, a: int, b: int) -> int:
        out = (b & self.lead) + (a & self.tail)
        for m, s, t in self.cols:
            out += ((a & m) >> s) * (b >> t & self.row)
        return out & self.mask


_mod_k = lru_cache(maxsize=64)(_ModK)  # one _ModK per (nu, rank, k)
_KERNEL_CAP = 4096  # kernel states per modulus; past it the quotient gives up


def _in_image(gens, base, mod: _ModK) -> bool:
    """Whether base, a (perm, image) pair, is in the group the involutions
    gens generate.  Schreier split over W_fin: a transversal rep(s) with
    inverses along the closure over the distinct permutations p, each with
    its first image first[p]; off the tree's edges (where it is 1) each
    rep(p s)^-1 g rep(s) outside the kernel extends it (RuntimeError past _KERNEL_CAP)."""
    mul, one, first = mod.mul, mod.one, dict(reversed(gens))
    tree = closure([tuple(range(len(base[0])))], first, lambda s, p: tuple(map(p.__getitem__, s)))
    reps = {}
    for s, link in tree.items():
        (r, v), g = (reps[link[0]], first[link[1]]) if link else ((one, one), one)
        reps[s] = mul(g, r), mul(v, g)
    kernel, used = {one}, []
    for (s, (r, _)), (p, g) in product(reps.items(), gens):
        t = tuple(map(p.__getitem__, s))
        if (tree[t] != (s, p) or g != first[p]) and (h := mul(reps[t][1], mul(g, r))) not in kernel:
            used.append(h)
            kernel = closure(kernel, used, lambda x, h: mul(h, x), _KERNEL_CAP)
    return base[0] in reps and mul(reps[base[0]][1], base[1]) in kernel


def _quotient_negative(setup: _Setup, orbit: OrbitDescriptor, fams):
    """NotGenerates when a congruence quotient excludes r_base, else None.
    The generators are _Setup.images, never a window; k doubles while the
    kernel fits."""
    R, (iso, dot, _) = setup.R, setup.R.space.blocks(orbit.base)
    for k in (4, 8, 16, 32, 64):
        mod = _mod_k(R.space.nu, R.space.rank, k)
        gens = dict.fromkeys(g for tag, sl in fams.items() if sl is not None for g in setup.images(tag, sl, mod))
        try:
            if not _in_image(list(gens), setup.image(iso.ints, iso.den, dot, mod), mod):
                return NotGenerates(
                    f"the image of the reflection in {orbit.base} modulo {k}, after scaling by D = "
                    f"{setup.scale()}, is outside the image of the remaining reflections (congruence quotient)")
        except RuntimeError:
            return None
    return None


def generation_check(R: EarsDescriptor, removed_orbit: OrbitDescriptor, *, _setup: _Setup | None = None):
    """Do the reflections of the roots outside the orbit still generate?
    R's translation sets must pass construct_ears's rules; its finite part may be any.
    minimality passes one _Setup of R for all its orbits, each built by
    itself; without one the call validates the orbit and builds its own.
    In turn: the finite quotient, the congruence quotient (above rank
    one), the slice of the base's line, which decides rank one exactly,
    then Inconclusive.  Nothing searches, so nothing takes a search bound."""
    if (setup := _setup) is None:
        _validate_orbit(R, removed_orbit)
        setup = _Setup(R)
    fams = _remaining_translations(R, removed_orbit)
    if not setup.finite_generates(fams):
        return NotGenerates("the remaining directions do not generate the finite Weyl group")
    if R.finite_part.rank > 1 and (negative := _quotient_negative(setup, removed_orbit, fams)):
        return negative
    return _slice_decision(R, removed_orbit, fams) or Inconclusive()


def _removal_candidates(R: EarsDescriptor) -> list[OrbitDescriptor]:
    """Anisotropic orbits in the order removal is attempted.

    Outermost material first: extra class, then long, then short, and
    within a class the representative farthest from zero first.  That way
    a successful removal usually keeps the zero coset, so the remainder
    is already in descriptor normal form.  Offsets are compared as ints
    at their class's common scale, which keeps their order.
    """
    order, scale = {"extra": 0, "long": 1, "short": 2}, {}
    tagged = [(R.class_of_dot(ob.dot_part), ob) for ob in anisotropic_orbits(R)]
    for tag, ob in tagged:
        scale[tag] = math.lcm(scale.get(tag, 1), ob.base_offset.den)

    def key(item):
        tag, ob = item
        off = ob.base_offset.at(scale[tag])
        return order[tag], -sum(c * c for c in off), tuple(-c for c in off)

    return [ob for _, ob in sorted(tagged, key=key)]


def minimality(R: EarsDescriptor):
    """Minimal / NotMinimal(orbit, certificate) / Unknown(unresolved).
    R's translation sets must pass construct_ears's rules; its finite part may be any."""
    orbits = _removal_candidates(R)
    unresolved, negatives = [], set()
    setup = _Setup(R)
    for orbit in orbits:
        # skipped when a symmetry of R maps an orbit that does not generate onto it
        if (key := (R.class_of_dot(orbit.dot_part), orbit.base_offset)) in negatives:
            continue
        verdict = generation_check(R, orbit, _setup=setup)
        if isinstance(verdict, Generates):
            return NotMinimal(orbit, verdict.certificate)
        if isinstance(verdict, Inconclusive):
            unresolved.append(orbit)
        else:  # the keys of the orbit's images under the symmetries
            negatives.update(closure([key], setup.symmetries(),
                                     lambda k, g: (k[0], R.class_lattice(k[0]).reduce(g * k[1]))))
    if unresolved:
        return Unknown(tuple(unresolved))
    return Minimal(len(orbits))


def _removal_label(R: EarsDescriptor, fams) -> tuple[str, dict]:
    """Label and class mapping for the descriptor left after a removal.

    The standard system with the length profile of the remaining roots
    (finite._classify_subset) is accepted when its form is a positive
    multiple of R's finite form and its non-empty length classes are
    exactly the remaining dot classes; each new class takes the
    translation set of the class it equals.  Anything else raises Stuck.
    Scaling the dual block by 1/c carries the form over c * G onto the
    form over G and fixes every root, so the factor changes nothing.
    """
    finite = R.finite_part
    left = {R.dot_classes[tag]: tag for tag in _CLASS_TAGS if fams.get(tag) is not None}
    try:
        new = _classify_subset(finite, frozenset().union(*left))
    except NotIrreducible as exc:
        raise Stuck(
            f"removal leaves classes {list(left.values())} of a {finite.label} "
            f"system, which are not an irreducible root system: {exc}"
        ) from exc
    classes = length_classes(new)
    # equal line keys of the flattened Grams mean a positive factor, since a
    # positive definite Gram has a positive first entry
    same_form = line_key(sum(new.form.gram.ints, ())) == line_key(sum(finite.form.gram.ints, ()))
    if not same_form or {c for c in classes if c} != set(left):
        raise Stuck(
            f"removal leaves classes {list(left.values())} of a {finite.label} "
            f"system, which the standard {new.label} realization does not match"
        )
    return new.label, {tag: fams[left[c]] if c else None for tag, c in zip(_CLASS_TAGS, classes)}


def extract_minimal(R: EarsDescriptor) -> EarsDescriptor:
    """Remove generating orbits until the system is minimal.

    Each step re-validates the smaller system and records the removal in
    the descriptor's removal_chain.  Raises Stuck when a verdict is
    Inconclusive or the result is not representable.  R's translation
    sets must pass construct_ears's rules; its finite part may be any.
    """
    current = R
    while True:
        verdict = minimality(current)
        if isinstance(verdict, Minimal):
            return current
        if isinstance(verdict, Unknown):
            raise Stuck(f"{len(verdict.unresolved)} orbit(s) undecided")
        orbit, certificate = verdict.orbit, verdict.certificate
        fams = _remaining_translations(current, orbit)
        short = fams.get("short")
        # the cosets are reduced, so 0 is a member iff the zero coset is; the
        # translated flag is no test, since a caller may set it on a set with 0
        if short is not None and (0,) * short.ambient not in short.ints:
            if current.finite_part.rank == 1:
                fams = _recenter(current, fams)
            else:
                raise Stuck(
                    "removal takes the zero coset out of the short class; "
                    "no descriptor normal form above rank one"
                )
        label, mapped = _removal_label(current, fams)
        entry = (
            orbit.base.coords,
            tuple(v.coords for v in certificate),
        )
        try:
            sub = construct_ears(
                label,
                mapped["short"],
                long=mapped["long"],
                extra=mapped["extra"],
                removal_chain=current.removal_chain + (entry,),
            )
        except ConstraintViolation as exc:
            raise Stuck(f"remaining roots have no descriptor form: {exc}")
        report = characterize(sub.anisotropic_window(3), sub.space)
        if not report.ok:
            raise Stuck(f"removal produced an invalid system: {report.checks}")
        current = sub


def _recenter(R: EarsDescriptor, fams):
    """Shift the isotropic coordinates so the short class regains zero.

    On a rank-one system the map sending the root x*e + s to
    x*e + (s - x*s0) is induced by an isometry of the ambient space, so
    the shifted set is isomorphic to the one actually left behind.
    """
    short = fams["short"]
    s0 = sorted_vectors(short.cosets)[0]  # already reduced mod the modulus
    out = {}
    for tag, sl in fams.items():
        if sl is None:
            out[tag] = None
            continue
        coeff = abs(next(iter(R.dot_classes[tag]))[0])
        moved = [c - s0 * coeff for c in sl.cosets]
        translated = not any(sl.modulus.contains(c) for c in moved)
        out[tag] = Semilattice.from_cosets(moved, sl.modulus, translated)
    return out
