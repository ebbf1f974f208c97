"""Finite crystallographic root systems and their Weyl groups.

Realizations (all exact, all spanning their coordinate space):

* A1         Z^1 with form [1], roots {+-1}
* Al (l>=2)  simple-root coordinates, Gram = symmetrized Cartan matrix
* Bl (l>=2)  Z^l with the dot form: short +-e_i, long +-e_i+-e_j
* Cl (l>=3)  Z^l with the dot form: short +-e_i+-e_j, long +-2e_i
* Dl (l>=4)  Z^l with the dot form: +-e_i+-e_j
* E6/E7/E8   simple-root coordinates, Gram = Cartan matrix
* F4         simple-root coordinates, Gram = symmetrized Cartan (long 4, short 2)
* G2         simple-root coordinates, Gram = [[2,-3],[-3,6]]
* BCl (l>=1) B_l plus the doubles of the short roots

The scaling of the form is irrelevant downstream: every consumer works with
length ratios and coroot pairings.

A FiniteRootSystem builds integer tables once, from its roots and form
scaled to integers: root order and index, Cartan integers, squared lengths
and each reflection as a permutation of the roots.  cartan_int and reflect
read them for two roots and use the form otherwise (reflection_matrix
passes basis vectors).  Root closures and orbits run on integers through
linalg.closure (imported here as finite.closure too); reflection_closure,
on root permutations, is the one generation test, here and in weyl.
finite_weyl closes Matrix products.  _classify_subset gives a set of roots
the standard system of its rank with the same length profile (root count
per squared length, doubles apart); weyl and core.trim name with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import matmul, mul

from .linalg import BilinearForm, Matrix, Vector, closure, common_ints, sorted_vectors, span_rank


class InvalidRank(ValueError):
    pass


class NotIrreducible(ValueError):
    pass


@dataclass(frozen=True)
class FiniteRootSystem:
    type_symbol: str            # "A", "B", "C", "D", "E", "F", "G", "BC"
    rank: int
    roots: frozenset[Vector]    # nonzero roots
    form: BilinearForm          # positive definite on the coordinate space
    fundamental: tuple[Vector, ...]
    # tables: ordered[index[a]] == a, cartan[i][j] = 2(a_i,a_j)/(a_j,a_j),
    # norms[i] = (a_i,a_i) at one positive scale, perms[j][i] = index of r_{a_j}(a_i)
    ordered: tuple[Vector, ...] = field(init=False, compare=False, repr=False)
    index: dict = field(init=False, compare=False, repr=False)
    cartan: tuple = field(init=False, compare=False, repr=False)
    norms: tuple = field(init=False, compare=False, repr=False)
    perms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ordered = tuple(sorted_vectors(self.roots))
        _, ints, gints = _scaled_with_gram(ordered, self.form)
        pairs = [[sum(map(mul, a, gb)) for gb in gints] for a in ints]
        norms = tuple(row[i] for i, row in enumerate(pairs))
        if any(2 * p % norms[j] for row in pairs for j, p in enumerate(row)):
            raise ValueError(f"{self.label}: Cartan integers must be integral")
        cartan = tuple(tuple(2 * p // norms[j] for j, p in enumerate(row)) for row in pairs)
        at = {tuple(a): i for i, a in enumerate(ints)}
        images = [
            [at.get(tuple([x - row[j] * y for x, y in zip(a, b)])) if row[j] else i
             for i, (a, row) in enumerate(zip(ints, cartan))]
            for j, b in enumerate(ints)
        ]
        if any(None in p for p in images):
            raise ValueError(f"{self.label}: roots must be closed under their reflections")
        tables = {"ordered": ordered, "index": {a: i for i, a in enumerate(ordered)},
                  "cartan": cartan, "norms": norms, "perms": tuple(map(tuple, images))}
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    @property
    def label(self) -> str:
        return f"{self.type_symbol}{self.rank}"

    def pair(self, a: Vector, b: Vector) -> Fraction:
        return self.form.evaluate(a, b)

    def cartan_int(self, a: Vector, b: Vector):
        """2(a,b)/(b,b): an int from the table for two roots, else a Fraction."""
        i, j = self.index.get(a), self.index.get(b)
        if i is None or j is None:
            return 2 * self.pair(a, b) / self.pair(b, b)
        return self.cartan[i][j]

    def reflect(self, alpha: Vector, v: Vector) -> Vector:
        i, j = self.index.get(v), self.index.get(alpha)
        if i is None or j is None:
            return v - alpha * self.cartan_int(v, alpha)
        return self.ordered[self.perms[j][i]]

    def reflection_matrix(self, alpha: Vector) -> Matrix:
        images = [self.reflect(alpha, Vector._of(e)) for e in Matrix.identity(alpha.dim).ints]
        den, cols = common_ints(images)
        return Matrix._of(list(zip(*cols)), den)


def _scaled_with_gram(vectors, form: BilinearForm):
    """Common denominator, the vectors scaled to ints, and G times each of
    them for the integer Gram rows G (form.gram.ints)."""
    d, ints = common_ints(vectors)
    return d, ints, [[sum(map(mul, row, a)) for row in form.gram.ints] for a in ints]


def _closure_from_simples(simples: list[Vector], form: BilinearForm) -> frozenset[Vector]:
    """Reflection closure of the simple roots, on integers: the Cartan
    integers of every realization here are integral, so the floor division
    is exact."""
    d, ints, gints = _scaled_with_gram(simples, form)
    refl = [(s, gs, sum(map(mul, s, gs))) for s, gs in zip(ints, gints)]

    def act(v, r):
        s, gs, n = r
        c = 2 * sum(map(mul, v, gs)) // n
        return tuple(x - c * y for x, y in zip(v, s))

    starts = [tuple(s) for s in ints] + [tuple(-x for x in s) for s in ints]
    return frozenset(Vector._of(v, d) for v in closure(starts, refl, act))


# E6 and E7 take the leading 6x6 and 7x7 blocks
_E8_CARTAN = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def _realization(type_symbol: str, rank: int) -> tuple[BilinearForm, list[Vector]]:
    """Form and simple roots of the standard realization of a type."""
    t = type_symbol.upper()
    dot = BilinearForm(Matrix.identity(rank))
    units = [Vector(row) for row in dot.gram.rows]
    chain = [units[i] - units[i + 1] for i in range(rank - 1)]
    if t == "A":
        if rank < 1:
            raise InvalidRank("A_l needs l >= 1")
        gram = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)] for i in range(rank)]
        return BilinearForm(Matrix([[1]] if rank == 1 else gram)), units
    if t in ("B", "BC"):  # BC adds the doubles of the short roots later
        least = 2 if t == "B" else 1
        if rank < least:
            raise InvalidRank(f"{t}_l needs l >= {least}")
        return dot, chain + [units[-1]]
    if t == "C":
        if rank < 3:
            raise InvalidRank("C_l needs l >= 3")
        return dot, chain + [units[-1] * 2]
    if t == "D":
        if rank < 4:
            raise InvalidRank("D_l needs l >= 4")
        return dot, chain + [units[-2] + units[-1]]
    if t == "E":
        if rank not in (6, 7, 8):
            raise InvalidRank("E_l needs l in {6,7,8}")
        return BilinearForm(Matrix([row[:rank] for row in _E8_CARTAN[:rank]])), units
    if t == "F":
        if rank != 4:
            raise InvalidRank("F4 has rank 4")
        return BilinearForm(Matrix([[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]])), units
    if t == "G":
        if rank != 2:
            raise InvalidRank("G2 has rank 2")
        return BilinearForm(Matrix([[2, -3], [-3, 6]])), units
    raise InvalidRank(f"unknown type symbol {type_symbol!r}")


@lru_cache(maxsize=64)
def build_finite(type_symbol: str, rank: int) -> FiniteRootSystem:
    """Standard realization of an irreducible finite root system (frozen, so shared)."""
    t = type_symbol.upper()
    form, simples = _realization(type_symbol, rank)
    roots = _closure_from_simples(simples, form)
    if t == "BC":  # B_l plus the doubles of its short roots
        short = min(form.evaluate(r, r) for r in roots)
        roots |= {r * 2 for r in roots if form.evaluate(r, r) == short}
    return FiniteRootSystem(t, rank, roots, form, tuple(simples))


def _connected(nodes, adjacent) -> bool:
    """Whether the graph on the non-empty sequence nodes, with an edge
    wherever adjacent(a, b) is non-zero, is connected: a closure over node
    indices, moving from i to j along an edge."""
    reached = closure([0], range(len(nodes)), lambda i, j: j if adjacent(nodes[i], nodes[j]) else i)
    return len(reached) == len(nodes)


@lru_cache(maxsize=64)
def length_classes(system: FiniteRootSystem) -> tuple[frozenset[Vector], frozenset[Vector], frozenset[Vector]]:
    """Partition the nonzero roots as (short, long, extra-long), once per
    system (equal systems share it, as build_finite's do).

    Extra-long roots are the ones whose half is again a root; among the rest,
    short is the smaller length, long the other (empty when simply laced).
    """
    ordered, norms, cartan = system.ordered, system.norms, system.cartan
    if not cartan:
        raise NotIrreducible("empty root set")
    if not _connected(range(len(cartan)), lambda i, j: cartan[i][j]):
        raise NotIrreducible(f"{system.label}: root set splits into orthogonal parts")
    # with integral Cartan integers, <a, b^vee> = 4 exactly when a = 2b
    halves = {i for i, row in enumerate(cartan) if 4 in row}
    rest = [i for i in range(len(ordered)) if i not in halves]
    lengths = sorted({norms[i] for i in rest})
    if len(lengths) > 2:
        raise NotIrreducible(f"{system.label}: more than two reduced lengths")
    sh = frozenset(ordered[i] for i in rest if norms[i] == lengths[0])
    lg = frozenset(ordered[i] for i in rest if len(lengths) > 1 and norms[i] == lengths[1])
    return sh, lg, frozenset(ordered[i] for i in halves)


@dataclass(frozen=True)
class FiniteWeylGroup:
    elements: frozenset[Matrix]
    generators: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def finite_weyl(system: FiniteRootSystem) -> FiniteWeylGroup:
    """The full finite Weyl group as an explicit matrix set."""
    gens = tuple(system.reflection_matrix(s) for s in system.fundamental)
    return FiniteWeylGroup(frozenset(closure([Matrix.identity(system.rank)], gens, matmul)), gens)


def reflection_closure(system: FiniteRootSystem, roots) -> tuple[dict, dict]:
    """The reflections in the given roots as permutations of system.ordered,
    each mapped to the first of the roots that gives it (r and -r give one),
    and the closure tree of the group they generate; W acts faithfully on
    its roots, so the tree's states are the group's elements."""
    letters = {}
    for d in roots:
        letters.setdefault(system.perms[system.index[d]], d)
    identity = tuple(range(len(system.ordered)))
    return letters, closure([identity], letters, lambda t, p: tuple(map(t.__getitem__, p)))


def _profile(system: FiniteRootSystem, roots) -> list:
    """Length profile of roots of system: their squared lengths over the
    lengths' gcd, each marked when it is the double of another of the
    roots, sorted (so it holds the root count per length, doubles apart)."""
    doubles = {r * 2 for r in roots}
    norms = [system.norms[system.index[r]] for r in roots]
    g = math.gcd(*norms)
    return sorted((n // g, r in doubles) for r, n in zip(roots, norms))


def _classify_subset(system: FiniteRootSystem, roots: frozenset[Vector]) -> FiniteRootSystem:
    """The standard system of the rank of a subset of system.roots whose
    length profile is the subset's; no two types of one rank share one."""
    if not roots:
        raise NotIrreducible("empty root set")
    rank, profile = span_rank(roots), _profile(system, roots)
    for t in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        try:
            standard = build_finite(t, rank)
        except InvalidRank:
            continue
        if _profile(standard, standard.ordered) == profile:
            return standard
    raise NotIrreducible(f"no standard rank-{rank} system has the length profile of these {len(roots)} roots")


def invariant_generating_subsets(system: FiniteRootSystem) -> list[tuple[str, frozenset[Vector]]]:
    """All Weyl-invariant subsets whose reflections generate the full group.

    Candidates are unions of length classes (these are exactly the orbits of
    the group on the roots); each generating one is returned with its type
    label, the full set first, then by decreasing size.
    """
    classes = [c for c in length_classes(system) if c]
    order = finite_weyl(system).order
    found: list[tuple[str, frozenset[Vector]]] = []
    for mask in range(1, 1 << len(classes)):
        subset = frozenset().union(*(classes[i] for i in range(len(classes)) if mask >> i & 1))
        if len(reflection_closure(system, subset)[1]) == order:
            found.append((_classify_subset(system, subset).label, subset))
    found.sort(key=lambda pair: (-len(pair[1]), pair[0]))
    return found
