"""Semilattices and translated semilattices, represented finitely.

A (translated) semilattice S in Q^n is stored as a finite set of coset
representatives plus a translation lattice M with S = cosets + M, exactly.
For valid data the stored modulus is the canonical one, M = 2<S> with
<S> the subgroup generated by S; invalid data (rejected later by
verify_semilattice) is kept in the presentation it arrived in, so every
instance reproduces its point set faithfully.

All lattice arithmetic is integer Hermite normal form under the hood;
rational coordinates are handled by clearing denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Vector, _frac, closure, scaled_ints


class RankMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer Hermite normal form


def _hnf_int(mat: Sequence[Sequence[int]], ncols: int, aug: int = 0):
    """Row-style HNF of an integer matrix, pivoting on the first ncols columns.

    Returns (echelon, leftover): echelon rows have strictly increasing pivot
    columns with positive pivots and reduced entries above each pivot;
    leftover rows vanish on the first ncols columns (nonempty only if aug>0,
    where rows carry aug extra bookkeeping columns on the right).  Unlike
    linalg.echelon this eliminates over Z, by unimodular row operations,
    which is what a lattice basis needs.
    """
    width = ncols + aug
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
    for i in range(len(echelon) - 1, -1, -1):
        col, ri = echelon[i]
        p = ri[col]
        for j in range(i):
            cj, rj = echelon[j]
            q = rj[col] // p
            if q:
                echelon[j] = (cj, [a - q * b for a, b in zip(rj, ri)])
    rows = [r for _, r in echelon]
    if aug == 0:
        return rows, []
    return rows, pool


class Lattice:
    """Discrete subgroup of Q^n, kept as a canonical echelon basis."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: Iterable = ()):
        vecs = [r if isinstance(r, Vector) else Vector(r) for r in rows]
        for v in vecs:
            if v.dim != ambient:
                raise RankMismatch(f"row of dim {v.dim} in ambient rank {ambient}")
        s, ints = scaled_ints(vecs)
        hnf, _ = _hnf_int(ints, ambient)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(
            self, "rows", tuple(Vector([Fraction(a, s) for a in r]) for r in hnf)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Lattice({self.ambient}, {[list(r.coords) for r in self.rows]!r})"

    def _pivots(self) -> list[int]:
        return [next(j for j, c in enumerate(r.coords) if c != 0) for r in self.rows]

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo this lattice."""
        if v.dim != self.ambient:
            raise RankMismatch(f"vector dim {v.dim}, ambient {self.ambient}")
        for r, p in zip(self.rows, self._pivots()):
            q = v.coords[p] // r.coords[p]
            if q:
                v = v - r * q
        return v

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero()

    def sum(self, other: "Lattice") -> "Lattice":
        return Lattice(self.ambient, self.rows + other.rows)

    def scaled(self, factor) -> "Lattice":
        f = _frac(factor)
        return Lattice(self.ambient, tuple(r * f for r in self.rows))

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection, via the integer kernel of the stacked bases."""
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        if not self.rows or not other.rows:
            return Lattice(self.ambient)
        stacked = list(self.rows) + list(other.rows)
        m = len(stacked)
        aug = [
            row + [1 if i == j else 0 for j in range(m)]
            for i, row in enumerate(scaled_ints(stacked)[1])
        ]
        _, kernel = _hnf_int(aug, self.ambient, aug=m)
        gens = []
        for krow in kernel:
            x = krow[self.ambient : self.ambient + self.rank]
            acc = Vector([0] * self.ambient)
            for coeff, row in zip(x, self.rows):
                acc = acc + row * coeff
            gens.append(acc)
        return Lattice(self.ambient, gens)

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return all(other.contains(r) for r in self.rows)

    def quotient_reps(self, sub: "Lattice", cap: int = 1 << 20) -> list[Vector]:
        """Representatives of this lattice modulo a finite-index sublattice."""
        if not sub.is_sublattice_of(self) or sub.rank != self.rank:
            raise ValueError("not a finite-index sublattice")
        zero = sub.reduce(Vector([0] * self.ambient))
        reps = closure([zero], self.rows, lambda v, g: sub.reduce(v + g), cap)
        return sorted(reps, key=lambda v: v.coords)


# ---------------------------------------------------------------------------
# semilattices


class Semilattice:
    """Finite-coset presentation of a (translated) semilattice.

    Constructed from a generating description S = cosets + 2<basis>.  The
    instance re-derives the generated subgroup <S> and, whenever S really is
    a union of cosets of 2<S>, stores that canonical form (`canonical` is
    True); otherwise the original presentation is kept so the point set is
    still exact.  Equality compares point sets for canonical instances.
    """

    __slots__ = ("ambient", "cosets", "modulus", "lattice", "translated", "canonical")

    def __init__(self, basis: Iterable, cosets: Iterable, translated: bool = False):
        basis = [b if isinstance(b, Vector) else Vector(b) for b in basis]
        cvecs = [c if isinstance(c, Vector) else Vector(c) for c in cosets]
        if not cvecs:
            raise ValueError("at least one coset representative is required")
        ambient = cvecs[0].dim
        m0 = Lattice(ambient, [b * 2 for b in basis])
        self._build(ambient, m0, cvecs, translated)

    @classmethod
    def from_cosets(
        cls, cosets: Iterable, modulus: Lattice, translated: bool = False
    ) -> "Semilattice":
        """Build directly from S = cosets + modulus (modulus as given)."""
        self = object.__new__(cls)
        cvecs = [c if isinstance(c, Vector) else Vector(c) for c in cosets]
        if not cvecs:
            raise ValueError("at least one coset representative is required")
        self._build(modulus.ambient, modulus, cvecs, translated)
        return self

    def _build(self, ambient: int, m0: Lattice, cvecs: list[Vector], translated: bool):
        for c in cvecs:
            if c.dim != ambient:
                raise RankMismatch(f"coset dim {c.dim}, ambient rank {ambient}")
        lattice = Lattice(ambient, list(m0.rows) + cvecs)
        m1 = lattice.scaled(2)
        reduced = frozenset(m0.reduce(c) for c in cvecs)
        invariant = all(
            frozenset(m0.reduce(c + g) for c in reduced) == reduced for g in m1.rows
        )
        if invariant:
            start = [m1.reduce(c) for c in reduced]
            final = frozenset(closure(start, m0.rows, lambda v, g: m1.reduce(v + g)))
            modulus, canonical = m1, True
        else:
            modulus, final, canonical = m0, reduced, False
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "cosets", final)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "translated", translated)
        object.__setattr__(self, "canonical", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Semilattice is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Semilattice)
            and self.modulus == other.modulus
            and self.cosets == other.cosets
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.cosets))

    def __repr__(self) -> str:
        kind = "translated semilattice" if self.translated else "semilattice"
        return (
            f"<{kind} rank {self.ambient}: {len(self.cosets)} cosets "
            f"mod lattice of rank {self.modulus.rank}>"
        )

    @property
    def coset_count(self) -> int:
        return len(self.cosets)

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient:
            return False
        return self.modulus.reduce(v) in self.cosets

    def is_lattice(self) -> bool:
        return self.canonical and self.coset_count == 2 ** self.lattice.rank

    def scaled(self, factor) -> "Semilattice":
        f = _frac(factor)
        return Semilattice.from_cosets(
            [c * f for c in self.cosets], self.modulus.scaled(f), self.translated
        )

    def shifted(self, v: Vector) -> "Semilattice":
        return Semilattice.from_cosets(
            [c + v for c in self.cosets], self.modulus, translated=True
        )

    def union(self, other: "Semilattice") -> "Semilattice":
        """Set union, re-canonicalized."""
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        k = self.modulus.intersect(other.modulus)
        cosets = set(self._cosets_mod(k)) | set(other._cosets_mod(k))
        return Semilattice.from_cosets(
            cosets, k, self.translated and other.translated
        )

    def sum_set(self, other: "Semilattice") -> "Semilattice":
        """Pointwise sum S + T."""
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        m = self.modulus.sum(other.modulus)
        cosets = {a + b for a in self.cosets for b in other.cosets}
        return Semilattice.from_cosets(cosets, m, True)

    def _cosets_mod(self, finer: Lattice) -> list[Vector]:
        """Coset representatives modulo a finite-index sublattice of modulus."""
        reps = self.modulus.quotient_reps(finer) if self.modulus.rows else [Vector([0] * self.ambient)]
        return [finer.reduce(c + r) for c in self.cosets for r in reps]

    def subset_of(self, other: "Semilattice") -> bool:
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        k = self.modulus.intersect(other.modulus)
        if k.rank < self.modulus.rank:
            return False
        return all(other.contains(c) for c in self._cosets_mod(k))

    def intersects(self, other: "Semilattice") -> bool:
        """Whether the two point sets share an element."""
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        joint = self.modulus.sum(other.modulus)
        return any(
            joint.contains(a - b) for a in self.cosets for b in other.cosets
        )

    def window(self, bound) -> list[Vector]:
        """All members with every coordinate in [-bound, bound], sorted."""
        k = len(self.modulus.rows)
        scale, ints = scaled_ints(
            [r.coords for r in self.modulus.rows] + [c.coords for c in self.cosets]
        )
        lim = math.floor(_frac(bound) * scale)
        points = box_points(ints[:k], ints[k:], [-lim] * self.ambient, [lim] * self.ambient)
        return [Vector(Fraction(x, scale) for x in p) for p in sorted(set(points))]


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
        problems.append(
            f"members span a subspace of dimension {s.lattice.rank} < {s.ambient}"
        )
    zero = Vector([0] * s.ambient)
    contains_zero = s.contains(zero)
    if not s.translated and not contains_zero:
        problems.append("0 is not a member and the set is not marked translated")
    closed = sum_condition(s, s, 2)
    if not closed:
        witness = next(
            (a, b)
            for a in sorted(s.cosets, key=lambda v: v.coords)
            for b in sorted(s.cosets, key=lambda v: v.coords)
            if not s.contains(a + b * 2)
        )
        problems.append(
            f"not closed under x + 2y: {witness[0]} + 2*{witness[1]} escapes"
        )
    return SemilatticeReport(spans, contains_zero, closed, tuple(problems))


def sum_condition(a: Semilattice, b: Semilattice, k: int) -> bool:
    """Decide A + kB <= A exactly, by coset arithmetic.

    A is a finite union of cosets of its modulus, so translation by any
    single vector either permutes those cosets or escapes; it suffices to
    test the generators of kB.
    """
    if a.ambient != b.ambient:
        raise RankMismatch(f"ambient ranks differ: {a.ambient} vs {b.ambient}")
    shifts = [c * k for c in b.cosets] + [g * k for g in b.modulus.rows]
    return all(a.contains(c + t) for c in a.cosets for t in shifts)


# ---------------------------------------------------------------------------
# fast membership


class ResidueTable:
    """O(1) membership for a union of lattice cosets.

    Scales the set to integer coordinates; det(M) * Z^n lies inside the
    scaled modulus, so membership only depends on the residue mod det(M).
    """

    __slots__ = ("dim", "scale", "period", "residues")

    def __init__(self, dim: int, scale: int, period: int, residues: frozenset):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueTable is immutable")

    def contains(self, v: Vector) -> bool:
        if v.dim != self.dim:
            return False
        key = []
        for c in v.coords:
            x = c * self.scale
            if x.denominator != 1:
                return False
            key.append(int(x) % self.period)
        return tuple(key) in self.residues


def residue_table(s: Semilattice, cap: int = 4_000_000) -> ResidueTable | None:
    """Build a ResidueTable for S, or None if S is degenerate or too large."""
    if s.modulus.rank != s.ambient:
        return None
    k = len(s.modulus.rows)
    scale, ints = scaled_ints(list(s.modulus.rows) + list(s.cosets))
    rows = ints[:k]
    period = 1
    for i, r in enumerate(rows):
        period *= r[i]
    if s.coset_count * period ** (s.ambient - 1) > cap:
        return None
    starts = [tuple(x % period for x in c) for c in ints[k:]]
    residues = closure(starts, rows, lambda t, r: tuple((x + y) % period for x, y in zip(t, r)), cap)
    return ResidueTable(s.ambient, scale, period, frozenset(residues))
