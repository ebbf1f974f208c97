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
with B + B^T = -b b^T, so it is stored on integers as (sign, b, B - B^T)
at one scale per decider; the even-word subgroup is nilpotent of class
two, and membership reduces to Hermite-style integer reduction carried
out on group elements, with one division when a pivot divides.  Its
generators are integer tuples at one scale, one Vector per letter, and
the wedge's index pairs are computed once per nullity.  Words are
straight-line-program nodes, plain tuples tagged by a str ("*", "~",
"^") over leaves of letters, expanded once per Generates (RuntimeError
above _WORD_CAP letters, before any is built) and re-checked by flat
re-multiplication.  For higher ranks the verdict
is three-valued: sound negatives come from the finite quotient, from the
remaining set failing to be a root system, or from a class lattice that
shrinks under the remaining roots; sound positives come from a bounded
certificate search; otherwise Inconclusive is reported honestly.

Words and the certificate search multiply a Matrix by reflections as
rank-one integer updates (linalg.times_reflector); the search keys its
window roots' lines on integer tuples at one scale and builds a Vector
per kept line only; the windowed orbit
search forms only the reflected members that stay in its box, on integers
at one scale (Vector.at); certificates are re-checked against
reflection_matrix, built from linalg.reflect and not from those updates.
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
from functools import lru_cache
from itertools import combinations

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
# delta' = delta with c = -eps b and B + B^T = -b b^T.  Only the sign, the
# shear vector b and w = B - B^T (upper-triangle pairs) are stored, as ints
# at scales D and D^2 for one D per decider; then the product is
# (e1,b1,w1)(e2,b2,w2) = (e1 e2, b2 + e2 b1, w1 + w2 - e2 b1^b2), with
# (b1^b2)_ij = b1_i b2_j - b1_j b2_i, and a reflection in x e + sigma is
# (-1, -2 sigma D / x, 0).


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


class _AffineElement:
    __slots__ = ("eps", "b", "w", "node")

    def __init__(self, eps, b, w, node):
        self.eps = eps
        self.b = b
        self.w = w
        self.node = node

    @property
    def word(self) -> tuple:
        return _expand(self.node)

    @classmethod
    def reflection(cls, space: AmbientSpace, root: Vector, scale: int):
        """The reflection at shear scale `scale`; None when its shear
        vector is not integral at that scale."""
        nu = space.nu
        x, b = root.ints[nu], [-2 * scale * s for s in root.ints[:nu]]
        if any(v % x for v in b):
            return None
        return cls(-1, tuple(v // x for v in b), (0,) * (nu * (nu - 1) // 2), (root,))

    def __matmul__(self, other: "_AffineElement") -> "_AffineElement":
        wedge = _wedge(self.b, other.b)
        if other.eps == 1:
            b = tuple([x + y for x, y in zip(self.b, other.b)])
            w = tuple([x + y - z for x, y, z in zip(self.w, other.w, wedge)])
        else:
            b = tuple([y - x for x, y in zip(self.b, other.b)])
            w = tuple([x + y + z for x, y, z in zip(self.w, other.w, wedge)])
        return _AffineElement(self.eps * other.eps, b, w, ("*", self.node, other.node))

    def inverse(self) -> "_AffineElement":
        b = self.b if self.eps == -1 else tuple([-x for x in self.b])
        return _AffineElement(self.eps, b, tuple([-x for x in self.w]), ("~", self.node))

    def power(self, n: int) -> "_AffineElement":
        """(1, b, w)^n = (1, n b, n w); eps = -1 squares first."""
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        if base.eps == -1:
            half = (base @ base).power(n // 2)
            return half @ base if n % 2 else half
        return _AffineElement(
            1, tuple([n * x for x in base.b]), tuple([n * x for x in base.w]), ("^", base.node, n)
        )

    def times_power(self, r: "_AffineElement", n: int) -> "_AffineElement":
        """self @ r.power(n), in closed form when r.eps == 1:
        (eps, b + n b_r, w + n (w_r - b^b_r)), with the same word node."""
        if r.eps == -1:
            return self @ r.power(n)
        b = tuple([x + n * y for x, y in zip(self.b, r.b)])
        w = tuple([x + n * (y - z) for x, y, z in zip(self.w, r.w, _wedge(self.b, r.b))])
        base = r.node if n >= 0 else ("~", r.node)
        return _AffineElement(self.eps, b, w, ("*", self.node, ("^", base, abs(n))))

    def is_identity(self) -> bool:
        return self.eps == 1 and not any(self.b) and not any(self.w)


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
    """Hermite-style row reduction where each row carries a group element.

    Rows are integer vectors; row operations are mirrored by group
    multiplication, so the carried element always maps to its row under
    the relevant abelianization.  Fully reduced carriers (row zero) are
    collected as residuals.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, tuple[list[int], _AffineElement]] = {}
        self.residuals: list[_AffineElement] = []

    @staticmethod
    def _pivot(v):
        for i, x in enumerate(v):
            if x:
                return i
        return None

    def insert(self, v, element):
        queue = [(list(v), element)]
        while queue:
            v, el = queue.pop()
            p = self._pivot(v)
            if p is None:
                if not el.is_identity():
                    self.residuals.append(el)
                continue
            if p not in self.rows:
                if v[p] < 0:
                    v = [-x for x in v]
                    el = el.inverse()
                self.rows[p] = (v, el)
                continue
            rv, rel = self.rows[p]
            g, x, y = _xgcd(rv[p], v[p])
            if y == 0:  # the pivot divides v[p]: one division, the row stays
                q = v[p] // g
                queue.append(([a - q * b for a, b in zip(v, rv)], el.times_power(rel, -q)))
                continue
            # x == 0 when v[p] divides the pivot: v's row takes its place,
            # and what is left of v, an identity, is not queued
            nv = [x * a + y * b for a, b in zip(rv, v)]
            nel = rel.power(x) @ el.power(y) if x else el.power(y)
            q1, q2 = rv[p] // g, v[p] // g
            self.rows[p] = (nv, nel)
            queue.append(([a - q1 * b for a, b in zip(rv, nv)], rel.times_power(nel, -q1)))
            if x:
                queue.append(([a - q2 * b for a, b in zip(v, nv)], el.times_power(nel, -q2)))

    def reduce(self, v, element):
        """Right-divide by basis rows; None when v is outside the row lattice."""
        v = list(v)
        for p in range(self.dim):
            if not v[p]:
                continue
            if p not in self.rows:
                return None
            rv, rel = self.rows[p]
            q, rem = divmod(v[p], rv[p])
            if rem:
                return None
            v = [a - q * b for a, b in zip(v, rv)]
            element = element.times_power(rel, -q)
        return element


def _offsets(nu: int, rows):
    """0, the rows, then the sums of pairs of rows (int tuples): the
    translations whose reflections stand for all of a rank-one family."""
    return [(0,) * nu, *rows, *(tuple(x + y for x, y in zip(a, b)) for a, b in combinations(rows, 2))]


class _Rank1Decider:
    """Exact subgroup membership for reflections of a rank-one system.

    families: per length class, the finite-direction coefficient together
    with the translation semilattice of the remaining roots.
    """

    def __init__(self, space: AmbientSpace, families):
        # any finite form [g] is decided as [1]: (tau, y, delta) -> (tau, y, delta / g)
        # scales the form by 1/g and fixes the roots, so it conjugates the two groups
        self.space = space
        self.nu = nu = space.nu
        # the roots (sigma, x, 0) as ints at one scale, in Vector order; one Vector each
        fams = [(x, sl) for x, sl in families if sl is not None]
        top = math.lcm(1, *(n for x, sl in fams for n in (x.denominator, sl.den)))
        ints = sorted(
            (*(a + b for a, b in zip(c.at(top), off)), int(x * top), *(0,) * nu)
            for x, sl in fams for off in _offsets(nu, sl.modulus.rows_at(top)) for c in sl.cosets)
        # the least scale at which every shear 2 sigma / x is integral
        self.scale = math.lcm(*(abs(r[nu]) // math.gcd(2 * s, r[nu]) for r in ints for s in r[:nu]))
        self._base, *rest = [_AffineElement.reflection(space, Vector._of(r, top), self.scale) for r in ints]
        self._rows = _CarrierReducer(nu)
        for r in rest:
            g = r @ self._base
            self._rows.insert(g.b, g)
        pivots = [self._rows.rows[p][1] for p in sorted(self._rows.rows)]
        # the commutators have b = 0, and an identity among them is dropped by insert
        kappa_gens = [*self._rows.residuals,
                      *(a @ b @ a.inverse() @ b.inverse() for a, b in combinations(pivots, 2))]
        self._kappa = _CarrierReducer(nu * (nu - 1) // 2)
        for g in kappa_gens:
            self._kappa.insert(g.w, g)

    def reduce_reflection(self, root: Vector):
        """r_root multiplied to the identity by the generators, or None when
        r_root is outside; its word, less r_root and read backwards, is a
        certificate for r_root."""
        el = _AffineElement.reflection(self.space, root, self.scale)
        if el is None:
            return None
        el = el @ self._base  # a reflection has eps = -1
        el = self._rows.reduce(el.b, el)
        if el is None:
            return None
        el = self._kappa.reduce(el.w, el)
        return el if el is not None and el.is_identity() else None


# -- generation verdicts -----------------------------------------------------


@dataclass(frozen=True)
class Generates:
    certificate: tuple[Vector, ...]


@dataclass(frozen=True)
class NotGenerates:
    reason: str


@dataclass(frozen=True)
class Inconclusive:
    depth: int


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


def _rank1_decision(R: EarsDescriptor, orbit: OrbitDescriptor, fams):
    """Complete generation decision when the finite part has rank one.

    The removed reflections are r_{x e + sigma0 + tau} for tau in T.  It
    suffices to test tau over 0, the basis of T, and basis pairs: every
    other removed reflection is a product of tested ones with central
    corrections that are themselves products of tested ones.
    """
    space = R.space
    dot, sigma0 = orbit.dot_part, space.blocks(orbit.base)[0]
    if dot.ints[0] < 0:
        # reflections are attached to lines; use the positive-dot member
        dot, sigma0 = -dot, -sigma0
    families = [(abs(next(iter(R.dot_classes[tag]))[0]), sl) for tag, sl in fams.items()]
    decider = _Rank1Decider(space, families)
    for off in _offsets(space.nu, orbit.translation_lattice.hnf):
        root = space.assemble(sigma0 + Vector._of(off, orbit.translation_lattice.den), dot)
        el = decider.reduce_reflection(root)
        if el is None:
            return NotGenerates(
                f"the reflection in {root} is outside the subgroup generated "
                "by the remaining roots (rank-one membership is decided exactly)"
            )
        if not any(off):
            zero = el
    word = zero.word  # the only word a decision expands
    assert word[0] == space.assemble(sigma0, dot)
    certificate = word[:0:-1]
    _check_certificate(space, orbit.base, certificate)
    return Generates(certificate)


def _check_certificate(space, base, word):
    target = reflection_matrix(space, base)
    if word_element(space, word).matrix != target:
        raise AssertionError("certificate failed re-verification")


def _certificate_search(R, fams, target_root, depth, budget):
    """Breadth-first word search over remaining-root reflections.

    Deterministic: generators sorted by root, frontier in insertion
    order, so the first hit is the lexicographically least among the
    shortest certificates.  Not linalg.closure: the search is bounded by
    depth and stops at the first hit.
    """
    space = R.space
    bound = max(2, int(target_root.max_norm()) + 2)
    # the window roots as ints at one scale, sorted as tuples (Vector order)
    pairs = [(sl, d) for tag, sl in fams.items() if sl is not None for d in R.dot_classes.get(tag, ())]
    top = math.lcm(1, *(n for sl, d in pairs for n in (sl.den, d.den)))
    lim, zero = bound * top, (0,) * space.nu
    ints = {(*p, *d.at(top), *zero) for sl, d in pairs
            for p in sl.points(top, [-lim] * space.nu, [lim] * space.nu)}
    lines = {}  # r, -r and a BC double 2r give one reflection: keep the first
    for r in sorted(ints):
        lines.setdefault(line_key(r), r)
    gens = [(root, reflector(space, root)) for root in (Vector._of(r, top) for r in lines.values())]
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
                word = w + (root,)
                if p == target:
                    return word
                seen.add(p)
                if len(seen) > budget:
                    return None
                nxt.append((p, word))
        frontier = nxt
    return None


def generation_check(
    R: EarsDescriptor, removed_orbit: OrbitDescriptor, depth: int = 8,
    budget: int = 1_000_000,
):
    """Do the reflections of the roots outside the orbit still generate?
    R's translation sets must pass construct_ears's rules; its finite part may be any."""
    _validate_orbit(R, removed_orbit)
    fams = _remaining_translations(R, removed_orbit)
    finite = R.finite_part
    letters, tree = _finite_closure(R, fams)
    if not letters or len(tree) != finite_weyl(finite).order:
        return NotGenerates(
            "the remaining directions do not generate the finite Weyl group"
        )
    if finite.rank == 1:
        return _rank1_decision(R, removed_orbit, fams)
    if any(sl is None for sl in fams.values()):
        return Inconclusive(depth)
    try:  # every class is left, so the remaining roots keep R's class pattern
        sub = construct_ears(finite, fams["short"], long=fams.get("long"), extra=fams.get("extra"))
    except ConstraintViolation as exc:
        return NotGenerates(
            f"the remaining roots are not a root system ({exc}), so the "
            "removed orbit cannot be generated back"
        )
    shrunk = _orbit_shrink(R, sub, removed_orbit)
    if shrunk is not None:
        return NotGenerates(shrunk)
    word = _certificate_search(R, fams, removed_orbit.base, depth, budget)
    if word is not None:
        _check_certificate(R.space, removed_orbit.base, word)
        return Generates(word)
    return Inconclusive(depth)


def _orbit_shrink(R, sub, removed_orbit):
    """Reason string when some orbit of the remaining system is strictly
    smaller than under the full group; None when all compared orbits agree.

    A strictly smaller orbit proves the subgroup proper.  sub keeps R's
    finite part, so the finite orbits agree and only the class lattices
    can shrink.  Compared: the removed base's class, named by the base,
    then each class of sub, named by its least root.
    """
    own = R.class_of_dot(removed_orbit.dot_part)
    for tag in dict.fromkeys((own, *sub.translations)):
        ft, pt = R.class_lattice(tag), sub.class_lattice(tag)
        if pt != ft and pt.is_sublattice_of(ft):
            alpha = removed_orbit.base if tag == own else sub.space.assemble(
                sorted_vectors(sub.translations[tag].cosets)[0],
                sorted_vectors(sub.dot_classes[tag])[0])
            return (
                f"the orbit of {alpha} shrinks under the remaining roots, "
                "so they generate a proper subgroup"
            )
    return None


def _removal_candidates(R: EarsDescriptor) -> list[OrbitDescriptor]:
    """Anisotropic orbits in the order removal is attempted.

    Outermost material first: extra class, then long, then short, and
    within a class the representative farthest from zero first.  That way
    a successful removal usually keeps the zero coset, so the remainder
    is already in descriptor normal form.
    """
    order = {"extra": 0, "long": 1, "short": 2}

    def key(ob):
        off = ob.base_offset.coords
        tag = R.class_of_dot(ob.dot_part)
        return (order[tag], -sum(c * c for c in off), tuple(-c for c in off))

    return sorted(anisotropic_orbits(R), key=key)


def minimality(R: EarsDescriptor, depth: int = 8, budget: int = 1_000_000):
    """Minimal / NotMinimal(orbit, certificate) / Unknown(unresolved).
    R's translation sets must pass construct_ears's rules; its finite part may be any."""
    orbits = _removal_candidates(R)
    unresolved = []
    for orbit in orbits:
        verdict = generation_check(R, orbit, depth, budget)
        if isinstance(verdict, Generates):
            return NotMinimal(orbit, verdict.certificate)
        if isinstance(verdict, Inconclusive):
            unresolved.append(orbit)
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


def extract_minimal(R: EarsDescriptor, depth: int = 8, budget: int = 1_000_000) -> EarsDescriptor:
    """Remove generating orbits until the system is minimal.

    Each step re-validates the smaller system and records the removal in
    the descriptor's removal_chain.  Raises Stuck when a verdict is
    Inconclusive or the result is not representable.  R's translation
    sets must pass construct_ears's rules; its finite part may be any.
    """
    current = R
    while True:
        verdict = minimality(current, depth, budget)
        if isinstance(verdict, Minimal):
            return current
        if isinstance(verdict, Unknown):
            raise Stuck(
                f"{len(verdict.unresolved)} orbit(s) undecided at depth {depth}"
            )
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
