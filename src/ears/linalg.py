"""Exact rational vectors, matrices, bilinear forms and reflections.

Everything here is immutable and hashable; arithmetic is exact, there is
no floating point anywhere in this package's numeric core.  The package's
value classes derive from Value: slots filled once by _fill, one guard
against assignment, and equality (same type) and hash on _identity().
Vector keeps its own equality and a hash cached once, equal to
hash(coords); a Matrix caches Value's hash, as searches hash each one.

A Vector holds integers over one denominator, and so does a Matrix, row
by row; other modules read a Vector as ints at a scale (Vector.at,
common_ints) and build one back with Vector._of, and its Fractions
(coords) are only a view.  A product of reflections is a run of rank-one
integer updates on one mutable accumulator (times_reflector), which
builds one Matrix per product.

The package's one elimination routine and its shared breadth-first search
live here, so every other module can use them.  The elimination is the
integer Hermite normal form (_hnf_int, unimodular row operations): Lattice
keeps its rows, span_rank feeds it vectors one at a time until the pivots
cover every coordinate in use, and kernel solves the pivot entries upward
through its rows.  The search is closure, for orbits, cosets and
generated groups; weyl.orbit_bfs keeps its own loop, for a reason
given at the loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Sequence

Rational = int | Fraction
_setattr = object.__setattr__


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class IsotropicRoot(ValueError):
    """Raised when a reflection is requested for a vector of zero length."""


class DimensionMismatch(ValueError):
    """Raised when operand dimensions disagree."""


class Value:
    """Base of the package's immutable values: slotted, filled once by
    _fill (in slot order), equal exactly when of the same type with equal
    _identity(), and hashed by that identity (kept in a _hash slot if any)."""

    __slots__ = ()
    _hash = None  # read through a subclass's _hash slot where it has one

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._identity() == other._identity()

    def __hash__(self) -> int:
        if (h := self._hash) is None:
            h = hash(self._identity())
            if "_hash" in self.__slots__:
                _setattr(self, "_hash", h)
        return h


class Vector(Value):
    """Immutable vector with exact rational coordinates: integers ints over
    one positive denominator den with no common factor (as in Matrix), so
    equal vectors have equal (ints, den); coords is the Fraction view, built
    when first read, and the hash is hash(coords), computed once."""

    __slots__ = ("ints", "den", "_coords", "_hash")

    def __init__(self, coords: Iterable[Rational]):
        xs = [x if type(x) is int else _frac(x) for x in coords]
        den = math.lcm(1, *(x.denominator for x in xs))  # of lowest terms: no common factor left
        self._set(tuple(x.numerator * (den // x.denominator) for x in xs), den)

    @classmethod
    def _of(cls, ints, den: int = 1) -> "Vector":
        """The vector ints / den, for a sequence ints and den > 0."""
        g = math.gcd(den, *ints) if den > 1 else 1
        return object.__new__(cls)._set(tuple(x // g for x in ints) if g > 1 else tuple(ints), den // g)

    def _set(self, ints: tuple, den: int) -> "Vector":
        _setattr(self, "ints", ints)
        _setattr(self, "den", den)
        _setattr(self, "_coords", None)
        _setattr(self, "_hash", None)
        return self

    @property
    def coords(self) -> tuple[Fraction, ...]:
        if self._coords is None:
            _setattr(self, "_coords", tuple(Fraction(x, self.den) for x in self.ints))
        return self._coords

    def at(self, scale: int) -> tuple[int, ...] | None:
        """The coordinates of scale * v as ints, or None when one is not an
        integer, that is when den does not divide scale."""
        q, r = divmod(scale, self.den)
        if r:
            return None
        return self.ints if q == 1 else tuple(q * x for x in self.ints)

    @property
    def dim(self) -> int:
        return len(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:  # not Value's: built once, as hash(coords)
        if self._hash is None:  # hash(Fraction(x)) == hash(x)
            _setattr(self, "_hash", hash(self.ints if self.den == 1 else self.coords))
        return self._hash

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        d = math.lcm(self.den, other.den)
        return Vector._of([a + b for a, b in zip(self.at(d), other.at(d))], d)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        d = math.lcm(self.den, other.den)
        return Vector._of([a - b for a, b in zip(self.at(d), other.at(d))], d)

    def __neg__(self) -> "Vector":
        return object.__new__(Vector)._set(tuple(-a for a in self.ints), self.den)

    def __mul__(self, scalar: Rational) -> "Vector":
        s = scalar if type(scalar) is int else _frac(scalar)
        return Vector._of([a * s.numerator for a in self.ints], self.den * s.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.ints)

    def max_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.ints), default=0), self.den)

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector) or other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {getattr(other, 'dim', '?')}")

    def __repr__(self) -> str:
        return "Vector((" + ", ".join(str(c) for c in self.coords) + "))"


def vec(*coords: Rational) -> Vector:
    return Vector(coords)


class Matrix(Value):
    """Immutable square matrix with exact rational entries: integer rows
    ints over one positive denominator den with no common factor (as in
    Lattice), so equal entries give equal matrices; rows is the Fraction
    view, built when first read, and the hash is computed once."""

    __slots__ = ("ints", "den", "_rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        rs = [[_frac(x) for x in row] for row in rows]
        if any(len(r) != len(rs) for r in rs):
            raise ValueError("matrix must be square")
        self._set(*scaled_ints(rs))

    @classmethod
    def _of(cls, ints, den: int) -> "Matrix":
        """The matrix with integer rows ints over den > 0."""
        return object.__new__(cls)._set(den, ints)

    def _set(self, den: int, ints) -> "Matrix":
        g = math.gcd(den, *(x for row in ints for x in row)) if den > 1 else 1
        ints = tuple(tuple(x // g for x in row) for row in ints) if g > 1 else tuple(map(tuple, ints))
        return self._fill(ints, den // g, None, None)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(tuple(Fraction(x, self.den) for x in r) for r in self.ints))
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.ints)

    def _identity(self):
        return self.den, self.ints

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.ints[i][j], self.den)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        cols = list(zip(*other.ints))
        return Matrix._of([[sum(map(mul, r, c)) for c in cols] for r in self.ints], self.den * other.den)

    def __mul__(self, v: Vector) -> Vector:
        if v.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {v.dim}")
        return Vector._of([sum(map(mul, row, v.ints)) for row in self.ints], self.den * v.den)

    def transpose(self) -> "Matrix":
        return Matrix._of(list(zip(*self.ints)), self.den)

    def is_identity(self) -> bool:
        return self.den == 1 and all(x == (i == j) for i, r in enumerate(self.ints) for j, x in enumerate(r))

    def __repr__(self) -> str:
        body = "; ".join("(" + ", ".join(str(x) for x in row) + ")" for row in self.rows)
        return f"Matrix([{body}])"


class BilinearForm(Value):
    """Symmetric bilinear form given by an exact Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        if gram != gram.transpose():
            raise ValueError("gram matrix must be symmetric")
        self._fill(gram)

    def _identity(self):
        return self.gram

    @property
    def dim(self) -> int:
        return self.gram.dim

    def evaluate(self, v: Vector, w: Vector) -> Fraction:
        if v.dim != self.dim or w.dim != self.dim:
            raise DimensionMismatch("form dimension mismatch")
        g = self.gram
        total = sum(x * sum(map(mul, row, w.ints)) for x, row in zip(v.ints, g.ints) if x)
        return Fraction(total, v.den * g.den * w.den)


class AmbientSpace(Value):
    """Ambient space split into (radical, definite part, dual of radical).

    The basis is ordered (radical block of size nu, definite block of size
    rank, dual block of size nu).  The Gram matrix is
    [[0, 0, I], [0, G, 0], [I, 0, 0]] with G the positive definite form of
    the definite block; the radical block is totally isotropic and pairs
    with the dual block by the identity.
    """

    __slots__ = ("nu", "rank", "form")

    def __init__(self, nu: int, finite_gram: Matrix):
        if nu < 0:
            raise ValueError("nu must be >= 0")
        rank = finite_gram.dim
        dim = nu + rank + nu
        den = finite_gram.den
        rows = [[0] * dim for _ in range(dim)]
        for i in range(nu):
            rows[i][nu + rank + i] = rows[nu + rank + i][i] = den
        for i, row in enumerate(finite_gram.ints):
            rows[nu + i][nu : nu + rank] = row
        self._fill(nu, rank, BilinearForm(Matrix._of(rows, den)))

    def _identity(self):
        return self.nu, self.form

    @property
    def dim(self) -> int:
        return self.nu + self.rank + self.nu

    @property
    def split(self) -> tuple[int, int, int]:
        return (self.nu, self.rank, self.nu)

    def pair(self, v: Vector, w: Vector) -> Fraction:
        return self.form.evaluate(v, w)

    def blocks(self, v: Vector) -> tuple[Vector, Vector, Vector]:
        """The isotropic, dot and dual blocks of v, as Vectors."""
        a, b = self.nu, self.nu + self.rank
        return Vector._of(v.ints[:a], v.den), Vector._of(v.ints[a:b], v.den), Vector._of(v.ints[b:], v.den)

    def assemble(self, iso, dot, dual=None) -> Vector:
        """The vector with these blocks (Vectors or sequences); dual defaults to 0."""
        parts = [p if isinstance(p, Vector) else Vector(p) for p in ((iso, dot, dual) if dual else (iso, dot))]
        if tuple(p.dim for p in parts) != self.split[: len(parts)]:
            raise DimensionMismatch("assemble: block sizes do not match the split")
        den = math.lcm(*(p.den for p in parts))
        ints = sum((p.at(den) for p in parts), ())
        return Vector._of(ints if dual else ints + (0,) * self.nu, den)

    def is_isotropic(self, v: Vector) -> bool:
        return self.pair(v, v) == 0


def coroot(space: AmbientSpace, alpha: Vector) -> Vector:
    """The coroot 2*alpha/(alpha,alpha)."""
    n = space.pair(alpha, alpha)
    if n == 0:
        raise IsotropicRoot(f"coroot of isotropic vector {alpha!r}")
    return alpha * (Fraction(2) / n)


def reflect(space: AmbientSpace, alpha: Vector, v: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    n = space.pair(alpha, alpha)
    if n == 0:
        raise IsotropicRoot(f"reflection in isotropic vector {alpha!r}")
    c = 2 * space.pair(v, alpha) / n
    return v - alpha * c


def reflection_matrix(space: AmbientSpace, alpha: Vector) -> Matrix:
    """Matrix of reflect(space, alpha, .) in the standard basis."""
    n = space.pair(alpha, alpha)
    if n == 0:
        raise IsotropicRoot(f"reflection in isotropic vector {alpha!r}")
    images = [reflect(space, alpha, Vector._of(e)) for e in Matrix.identity(space.dim).ints]
    den, cols = common_ints(images)
    return Matrix._of(list(zip(*cols)), den)


def line_key(r) -> tuple[int, ...]:
    """Key of the line through r (a Vector, or ints at any scale): the ints
    over their gcd, first nonzero one positive, so r and -r share it."""
    ints = r.ints if isinstance(r, Vector) else r
    g = math.gcd(*ints) or 1
    sign = -1 if next((x for x in ints if x), 0) < 0 else 1
    return tuple(x // (sign * g) for x in ints)


def common_ints(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator of the vectors and each one at it."""
    den = math.lcm(1, *(v.den for v in vectors))
    return den, [v.at(den) for v in vectors]


def sorted_vectors(vectors) -> list[Vector]:
    """The vectors sorted by coords, compared as ints at their common
    denominator, a positive scale that keeps the order."""
    vs = list(vectors)
    den = math.lcm(1, *(v.den for v in vs))
    return sorted(vs, key=lambda v: v.at(den))


def _hnf_int(mat: Sequence[Sequence[int]], ncols: int, aug: int = 0):
    """Row-style Hermite normal form of an integer matrix, pivoting on the
    first ncols columns, by unimodular row operations.

    Returns (echelon, leftover): echelon rows have strictly increasing pivot
    columns with positive pivots and reduced entries above each pivot;
    leftover rows vanish on the first ncols columns (nonempty only if aug>0,
    where rows carry aug extra bookkeeping columns on the right).
    """
    pool = [list(r) for r in mat if any(r)]
    echelon = []
    for col in range(ncols):
        sel = [r for r in pool if r[col] != 0]
        pool = [r for r in pool if r[col] == 0]
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            r0 = sel[0]
            nxt = [r0]
            for r in sel[1:]:
                q = r[col] // r0[col]
                rr = [a - q * b for a, b in zip(r, r0)]
                if rr[col] != 0:
                    nxt.append(rr)
                elif any(rr):
                    pool.append(rr)
            sel = nxt
        if sel:
            r0 = sel[0]
            if r0[col] < 0:
                r0 = [-a for a in r0]
            echelon.append((col, r0))
    # top down: reducing by row i changes no column left of its pivot
    for i in range(len(echelon)):
        col, ri = echelon[i]
        p = ri[col]
        for j in range(i):
            cj, rj = echelon[j]
            q = rj[col] // p
            if q:
                echelon[j] = (cj, [a - q * b for a, b in zip(rj, ri)])
    return [r for _, r in echelon], pool if aug else []


def span_rank(vectors) -> int:
    """Rank of the rational span: the vectors' numerators (each a positive
    multiple of its vector) enter the HNF one at a time until its pivots
    cover every coordinate some vector uses; no later one can raise the rank."""
    rows = [v.ints for v in vectors]
    used = sum(1 for j in range(len(rows[0]) if rows else 0) if any(map(itemgetter(j), rows)))
    hnf = []
    for row in rows:
        if len(hnf) == used:
            break
        hnf = _hnf_int(hnf + [row], len(row))[0]
    return len(hnf)


def kernel(rows, width: int) -> list[list[Fraction]]:
    """Basis of the rational null space of the matrix with the given rows
    (each of length width): one vector per free column of the HNF, 1 there
    and 0 at the other free columns, its pivot entries solved upward
    through the HNF rows."""
    hnf = _hnf_int(scaled_ints(rows)[1], width)[0]
    pivots = [next(j for j, x in enumerate(r) if x) for r in hnf]
    basis = []
    for fc in range(width):
        if fc not in pivots:
            v = [Fraction(fc == j) for j in range(width)]
            for row, pc in zip(reversed(hnf), reversed(pivots)):
                v[pc] = -sum((a * x for a, x in zip(row[pc + 1:], v[pc + 1:])), Fraction(0)) / row[pc]
            basis.append(v)
    return basis


def closure(starts, generators, act, cap: int = 2_000_000) -> dict:
    """Breadth-first closure of hashable states under act(state, generator).

    Returns a dict mapping each state reached to (parent, generator) on the
    first path to it, found in generator order per state and in frontier
    order (None for the starts).  More than cap states raise RuntimeError.
    """
    tree = dict.fromkeys(starts)
    frontier = list(tree)
    while frontier:
        nxt = []
        for state in frontier:
            for g in generators:
                image = act(state, g)
                if image not in tree:
                    tree[image] = (state, g)
                    nxt.append(image)
                    if len(tree) > cap:
                        raise RuntimeError(f"closure exceeded {cap} states")
        frontier = nxt
    return tree


# -- reflections as rank-one updates --------------------------------------------
#
# A reflector (a, p, st) holds integer vectors a, p and an integer st > 0 with
# r_alpha = I - a p^T / st.


def scaled_ints(vectors):
    """Common denominator and the integer-scaled copies of rows of
    Fractions (common_ints does this for Vectors)."""
    d = math.lcm(1, *(x.denominator for v in vectors for x in v))
    return d, [[x.numerator * (d // x.denominator) for x in v] for v in vectors]


def reflector(space: AmbientSpace, alpha: Vector) -> tuple:
    """Rank-one data of the reflection in alpha, from the integer Gram rows
    G: with a = alpha.ints, p = 2 G a and st = a^T G a (the scales of
    alpha and G cancel), then divided by their common factor.  G is [[0, 0,
    cI], [0, F, 0], [cI, 0, 0]], so p is read off c and F's rows alone."""
    if alpha.dim != space.dim:
        raise DimensionMismatch(f"dim {space.dim} vs {alpha.dim}")
    a, nu, top, gram = alpha.ints, space.nu, space.nu + space.rank, space.form.gram.ints
    c2 = 2 * gram[0][top] if nu else 0
    p = ([c2 * x for x in a[top:]] + [2 * sum(map(mul, row[nu:top], a[nu:top])) for row in gram[nu:top]]
         + [c2 * x for x in a[:nu]])
    st = sum(map(mul, a, p)) // 2
    if st == 0:
        raise IsotropicRoot(f"reflection in isotropic vector {alpha!r}")
    g = math.gcd(st, *p) * (1 if st > 0 else -1)
    return a, tuple(x // g for x in p) if g != 1 else tuple(p), st // g


_DEN_BOUND = 1 << 64  # past it the accumulator is divided by its common factor


def times_reflector(m: Matrix | int, *refls) -> Matrix:
    """m @ r_1 @ ... @ r_n, each factor the rank-one update m - (m a) p^T /
    st, on one accumulator of integer rows over one denominator (identity
    rows for an int m, the size), divided by their common factor only past
    _DEN_BOUND; the one Matrix built takes the last gcd.  Only the nonzero
    entries of a and of p are read: an EARS root is zero on the dual block,
    so p = 2 G a is zero on the radical block."""
    rows, den, sparse = ([list(r) for r in m.ints], m.den, {}) if isinstance(m, Matrix) else (
        [[int(i == j) for j in range(m)] for i in range(m)], 1, {})
    for refl in refls:
        # keyed by id: refls holds every reflector until the call returns
        if (s := sparse.get(id(refl))) is None:
            a, p, st = refl
            s = sparse[id(refl)] = [(j, x) for j, x in enumerate(a) if x], [(j, y) for j, y in enumerate(p) if y], st
        sa, sp, st = s
        for row in rows:
            c = 0
            for j, x in sa:
                c += row[j] * x
            if st > 1:
                row[:] = [st * x for x in row]
            if c:
                for j, y in sp:
                    row[j] -= c * y
        if st > 1 and (den := den * st) > _DEN_BOUND:
            g = math.gcd(den, *(x for row in rows for x in row))
            den, rows = den // g, [[x // g for x in row] for row in rows]
    return Matrix._of(rows, den)


def preserves_form(space: AmbientSpace, m: Matrix) -> bool:
    g = space.form.gram
    return m.transpose() @ g @ m == g
