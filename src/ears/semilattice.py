"""Semilattices and translated semilattices, represented finitely.

A (translated) semilattice S in Q^n is stored as a finite set of coset
representatives plus a translation lattice M with S = cosets + M, exactly.
For valid data the stored modulus is the canonical one, M = 2<S> with
<S> the subgroup generated by S; invalid data (rejected later by
verify_semilattice) is kept in the presentation it arrived in, so every
instance reproduces its point set faithfully.

Each set is kept as integers over its least denominator den: a lattice
as the Hermite normal form of den * L (linalg._hnf_int), a semilattice as
its cosets reduced modulo the modulus, so reduction is integer floor
division at the pivots.
Vector is the boundary type: an incoming Vector is read as ints at a scale
(Vector.at), and the Vectors handed out (rows, cosets, windows) are built
on the integers (Vector._of).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .linalg import Value, Vector, _frac, _hnf_int, closure, common_ints


class RankMismatch(ValueError):
    pass


def _add(x, y) -> list[int]:
    return [a + b for a, b in zip(x, y)]


def _joint(a, b) -> int:
    """The common scale of two sets in one ambient space."""
    if a.ambient != b.ambient:
        raise RankMismatch("ambient ranks differ")
    return math.lcm(a.den, b.den)


def _entry(cosets, ambient: int | None = None) -> tuple[int, list[list[int]]]:
    """Incoming cosets of dimension ambient (or the first one's), scaled to ints."""
    cvecs = [c if isinstance(c, Vector) else Vector(c) for c in cosets]
    if not cvecs:
        raise ValueError("at least one coset representative is required")
    ambient = cvecs[0].dim if ambient is None else ambient
    for c in cvecs:
        if c.dim != ambient:
            raise RankMismatch(f"coset dim {c.dim}, ambient rank {ambient}")
    return common_ints(cvecs)


class Lattice(Value):
    """Discrete subgroup L of Q^n: the canonical integer echelon basis hnf of
    den * L, den the least scale making L integral, and each row's pivot."""

    __slots__ = ("ambient", "den", "hnf", "pivots", "_rows")

    def __init__(self, ambient: int, rows: Iterable = ()):
        vecs = [r if isinstance(r, Vector) else Vector(r) for r in rows]
        for v in vecs:
            if v.dim != ambient:
                raise RankMismatch(f"row of dim {v.dim} in ambient rank {ambient}")
        self._set(ambient, *common_ints(vecs))

    @classmethod
    def _of(cls, ambient: int, scale: int, ints) -> "Lattice":
        """The lattice generated by the integer rows ints read at scale."""
        return object.__new__(cls)._set(ambient, scale, ints)

    def _set(self, ambient: int, scale: int, ints) -> "Lattice":
        hnf, _ = _hnf_int(ints, ambient)
        g = math.gcd(scale, *(x for r in hnf for x in r))
        hnf = tuple(tuple(x // g for x in r) for r in hnf)
        pivots = tuple(next(j for j, x in enumerate(r) if x) for r in hnf)
        return self._fill(ambient, scale // g, hnf, pivots, None)

    @property
    def rows(self) -> tuple[Vector, ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(Vector._of(r, self.den) for r in self.hnf))
        return self._rows

    @property
    def rank(self) -> int:
        return len(self.hnf)

    def _identity(self):
        return self.ambient, self.den, self.hnf

    def __repr__(self) -> str:
        return f"Lattice({self.ambient}, {[list(r.coords) for r in self.rows]!r})"

    def rows_at(self, scale: int) -> list[tuple[int, ...]]:
        """The echelon rows as ints at scale, a multiple of den."""
        f = scale // self.den
        return [tuple(f * x for x in r) for r in self.hnf] if f != 1 else list(self.hnf)

    def reduce_at(self, x, scale: int) -> tuple[int, ...]:
        """Canonical representative of x / scale modulo the lattice, as ints
        at scale (a multiple of den)."""
        f = scale // self.den
        for r, p in zip(self.hnf, self.pivots):
            q = x[p] // (f * r[p])
            if q:
                q *= f
                x = [a - q * b for a, b in zip(x, r)]
        return tuple(x)

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo this lattice."""
        if v.dim != self.ambient:
            raise RankMismatch(f"vector dim {v.dim}, ambient {self.ambient}")
        scale = math.lcm(self.den, v.den)
        return Vector._of(self.reduce_at(v.at(scale), scale), scale)

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient:
            raise RankMismatch(f"vector dim {v.dim}, ambient {self.ambient}")
        x = v.at(self.den)
        return x is not None and not any(self.reduce_at(x, self.den))

    def sum(self, other: "Lattice") -> "Lattice":
        scale = _joint(self, other)
        return Lattice._of(self.ambient, scale, self.rows_at(scale) + other.rows_at(scale))

    def scaled(self, factor) -> "Lattice":
        f = factor if type(factor) is int else _frac(factor)
        ints = [[f.numerator * x for x in r] for r in self.hnf]
        return Lattice._of(self.ambient, self.den * f.denominator, ints)

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection: the rows (a, a) for a in self and (b, 0) for b in
        other combine to (0, x) exactly when x = a = -b lies in both."""
        n, scale = self.ambient, _joint(self, other)
        stacked = [[*a, *a] for a in self.rows_at(scale)]
        _, kernel = _hnf_int(stacked + [[*b, *[0] * n] for b in other.rows_at(scale)], n, aug=n)
        return Lattice._of(n, scale, [r[n:] for r in kernel])

    def is_sublattice_of(self, other: "Lattice") -> bool:
        # a sublattice of other lies in (1/d) Z^n, so den | d, i.e. lcm(den, d) == d
        d = other.den
        return _joint(self, other) == d and not any(
            any(other.reduce_at(r, d)) for r in self.rows_at(d))

    def _quotient(self, sub: "Lattice", cap: int = 1 << 20) -> list[tuple[int, ...]]:
        """Sorted representatives modulo a finite-index sublattice, as ints at den."""
        if not sub.is_sublattice_of(self) or sub.rank != self.rank:
            raise ValueError("not a finite-index sublattice")
        zero, den = (0,) * self.ambient, self.den
        return sorted(closure([zero], self.hnf, lambda v, g: sub.reduce_at(_add(v, g), den), cap))

    def quotient_reps(self, sub: "Lattice", cap: int = 1 << 20) -> list[Vector]:
        """Representatives of this lattice modulo a finite-index sublattice.

        No code in the package calls this; bench/spans.py traces it by name."""
        return [Vector._of(x, self.den) for x in self._quotient(sub, cap)]


# ---------------------------------------------------------------------------
# semilattices


class Semilattice(Value):
    """Finite-coset presentation of a (translated) semilattice.

    Constructed from a generating description S = cosets + 2<basis>.  The
    instance re-derives the generated subgroup <S> and, whenever S really is
    a union of cosets of 2<S>, stores that canonical form (`canonical` is
    True); otherwise the original presentation is kept so the point set is
    still exact.  Equality compares point sets for canonical instances.
    `ints` holds the cosets reduced modulo `modulus`, as integer tuples at
    scale `den`, the least denominator of `lattice`; `points` (the members
    in a box) and `contains` (membership) are the set's two queries.
    """

    __slots__ = ("ambient", "den", "ints", "modulus", "lattice", "translated", "canonical", "_cosets", "_table")

    def __init__(self, basis: Iterable, cosets: Iterable, translated: bool = False):
        scale, cints = _entry(cosets)
        self._build(Lattice(len(cints[0]), basis).scaled(2), scale, cints, translated)

    @classmethod
    def from_cosets(cls, cosets: Iterable, modulus: Lattice, translated: bool = False):
        """Build directly from S = cosets + modulus (modulus as given)."""
        return cls._of(modulus, *_entry(cosets, modulus.ambient), translated)

    @classmethod
    def _of(cls, modulus: Lattice, scale: int, cints, translated: bool) -> "Semilattice":
        """S = cints / scale + modulus, from integer coset representatives."""
        return object.__new__(cls)._build(modulus, scale, cints, translated)

    def _build(self, m0: Lattice, scale: int, cints, translated: bool) -> "Semilattice":
        n, top = m0.ambient, math.lcm(m0.den, scale)
        lattice = Lattice._of(n, top, m0.rows_at(top) + [[a * (top // scale) for a in c] for c in cints])
        den, m1 = lattice.den, lattice.scaled(2)
        # every coset lies in the lattice, so den * c is integral
        reduced = frozenset(m0.reduce_at([a * den // scale for a in c], den) for c in cints)
        if all(frozenset(m0.reduce_at(_add(c, g), den) for c in reduced) == reduced
               for g in m1.rows_at(den)):
            start = [m1.reduce_at(c, den) for c in reduced]
            final = frozenset(closure(start, m0.rows_at(den), lambda v, g: m1.reduce_at(_add(v, g), den)))
            modulus, canonical = m1, True
        else:
            modulus, final, canonical = m0, reduced, False
        return self._fill(n, den, final, modulus, lattice, translated, canonical, None, None)

    @property
    def cosets(self) -> frozenset[Vector]:
        if self._cosets is None:
            object.__setattr__(self, "_cosets", frozenset(Vector._of(c, self.den) for c in self.ints))
        return self._cosets

    def _identity(self):
        return self.modulus, self.den, self.ints

    def __repr__(self) -> str:
        kind = "translated semilattice" if self.translated else "semilattice"
        return (f"<{kind} rank {self.ambient}: {len(self.ints)} cosets "
                f"mod lattice of rank {self.modulus.rank}>")

    @property
    def coset_count(self) -> int:
        return len(self.ints)

    def contains(self, v: Vector) -> bool:
        """Membership: residues mod period in the residue table, built on the
        first integral query, or reduction modulo the modulus without one."""
        if v.dim != self.ambient or (x := v.at(self.den)) is None:
            return False
        if self._table is None:
            object.__setattr__(self, "_table", residue_table(self) or False)
        if t := self._table:
            return tuple([a % t.period for a in x]) in t.residues
        return self.modulus.reduce_at(x, self.den) in self.ints

    def is_lattice(self) -> bool:
        return self.canonical and self.coset_count == 2 ** self.lattice.rank

    def scaled(self, factor) -> "Semilattice":
        f = factor if type(factor) is int else _frac(factor)
        cints = [[f.numerator * a for a in c] for c in self.ints]
        return Semilattice._of(self.modulus.scaled(f), self.den * f.denominator, cints, self.translated)

    def union(self, other: "Semilattice") -> "Semilattice":
        """Set union, re-canonicalized."""
        scale = _joint(self, other)
        k = self.modulus.intersect(other.modulus)
        cints = {*self._residues(k, scale), *other._residues(k, scale)}
        return Semilattice._of(k, scale, cints, self.translated and other.translated)

    def sum_set(self, other: "Semilattice") -> "Semilattice":
        """Pointwise sum S + T."""
        scale = _joint(self, other)
        f, g = scale // self.den, scale // other.den
        cints = {tuple([f * x + g * y for x, y in zip(a, b)]) for a in self.ints for b in other.ints}
        return Semilattice._of(self.modulus.sum(other.modulus), scale, cints, True)

    def _residues(self, finer: Lattice, scale: int) -> list[tuple[int, ...]]:
        """Coset representatives modulo a finite-index sublattice of modulus,
        reduced by it, as ints at scale (a multiple of den)."""
        f, g = scale // self.den, scale // self.modulus.den
        reps = self.modulus._quotient(finer)
        return [finer.reduce_at([f * a + g * b for a, b in zip(c, r)], scale)
                for c in self.ints for r in reps]

    def intersects(self, other: "Semilattice") -> bool:
        """Whether the two point sets share an element."""
        scale = _joint(self, other)
        joint = self.modulus.sum(other.modulus)
        f, g = scale // self.den, scale // other.den
        return any(not any(joint.reduce_at([f * x - g * y for x, y in zip(a, b)], scale))
                   for a in self.ints for b in other.ints)

    def points(self, scale: int, lo, hi) -> list[tuple[int, ...]]:
        """The members x / scale with lo <= x <= hi coordinatewise, as ints at
        scale (a multiple of den), each once, in no particular order."""
        f = scale // self.den
        cosets = self.ints if f == 1 else [[f * a for a in c] for c in self.ints]
        return box_points(self.modulus.rows_at(scale), cosets, lo, hi)

    def window(self, bound) -> list[Vector]:
        """All members with every coordinate in [-bound, bound], sorted."""
        b = _frac(bound)
        lim = b.numerator * self.den // b.denominator
        points = self.points(self.den, [-lim] * self.ambient, [lim] * self.ambient)
        return [Vector._of(p, self.den) for p in sorted(points)]


def box_points(rows, cosets, lo, hi) -> list[tuple[int, ...]]:
    """The integer points c + sum(a_i rows[i]) with lo <= x <= hi, for c in
    cosets and a_i in Z.

    rows is an integer echelon basis (strictly increasing pivot columns,
    positive pivots), so row i is the last to change its pivot coordinate
    and each a_i runs over one interval; other coordinates are tested last.
    """
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    free = [j for j in range(len(lo)) if j not in pivots]
    points = [tuple(c) for c in cosets]
    for r, p in zip(rows, pivots):
        points = [
            tuple([x + a * y for x, y in zip(v, r)]) if a else v
            for v in points
            for a in range(-((v[p] - lo[p]) // r[p]), (hi[p] - v[p]) // r[p] + 1)
        ]
    return [v for v in points if all(lo[j] <= v[j] <= hi[j] for j in free)] if free else points


@dataclass(frozen=True)
class SemilatticeReport:
    spans: bool
    contains_zero: bool
    closed: bool
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_semilattice(s: Semilattice) -> SemilatticeReport:
    """Check the defining conditions; discreteness is built into the type."""
    problems = []
    spans = s.lattice.rank == s.ambient
    if not spans:
        problems.append(f"members span a subspace of dimension {s.lattice.rank} < {s.ambient}")
    contains_zero = (0,) * s.ambient in s.ints  # the cosets are reduced: no table is built
    if not s.translated and not contains_zero:
        problems.append("0 is not a member and the set is not marked translated")
    # _build kept the canonical form exactly when S + 2<S> <= S, which is
    # S + 2S <= S: a shift that maps S's finitely many cosets into
    # themselves permutes them, and so does its inverse
    closed = s.canonical
    if not closed:  # on the reduced cosets, in coords order: no table is built
        cosets = sorted(s.ints)
        a, b = next((a, b) for a in cosets for b in cosets
                    if s.modulus.reduce_at([x + 2 * y for x, y in zip(a, b)], s.den) not in s.ints)
        problems.append(f"not closed under x + 2y: {Vector._of(a, s.den)} + 2*{Vector._of(b, s.den)} escapes")
    return SemilatticeReport(spans, contains_zero, closed, tuple(problems))


def sum_condition(a: Semilattice, b: Semilattice, k: int) -> bool:
    """Decide A + kB <= A exactly, by coset arithmetic.

    A is a finite union of cosets of its modulus, so translation by any
    single vector either permutes those cosets or escapes; it suffices to
    test the generators of kB.  On ints at the joint scale a shifted coset
    is in A exactly when it reduces to one of A's cosets there.
    """
    scale = _joint(a, b)
    f, g = scale // a.den, k * scale // b.den
    reps = {tuple(f * x for x in c) for c in a.ints}
    return all(a.modulus.reduce_at([x + g * y for x, y in zip(c, t)], scale) in reps
               for c in reps for t in (*b.ints, *b.modulus.rows_at(b.den)))


# ---------------------------------------------------------------------------
# fast membership


@dataclass(frozen=True)
class ResidueTable:
    """O(1) membership for a union of lattice cosets.

    Scales the set to integer coordinates; det(M) * Z^n lies inside the
    scaled modulus, so membership only depends on the residue mod det(M).
    """

    dim: int
    scale: int
    period: int
    residues: frozenset


def residue_table(s: Semilattice, cap: int = 4_000_000) -> ResidueTable | None:
    """Build a ResidueTable for S, or None if S is degenerate or too large:
    S is periodic under period * Z^n, so its residues are its points in the
    box [0, period - 1]^n."""
    if s.modulus.rank != s.ambient:
        return None
    rows = s.modulus.rows_at(s.den)
    period = math.prod(r[i] for i, r in enumerate(rows))
    if s.coset_count * period ** (s.ambient - 1) > cap:
        return None
    residues = s.points(s.den, [0] * s.ambient, [period - 1] * s.ambient)
    return ResidueTable(s.ambient, s.den, period, frozenset(residues))
