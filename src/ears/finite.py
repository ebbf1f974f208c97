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
passes basis vectors).  Root closures, orbits and generation run on
integers through linalg.closure, the package's one BFS helper (imported
here as finite.closure too); finite_weyl keeps Fraction matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import matmul, mul

from .linalg import BilinearForm, Matrix, Vector, closure, line_key, scaled_ints, span_rank

SIMPLY_LACED = ("A", "D", "E")


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
        ordered = tuple(sorted(self.roots, key=lambda v: v.coords))
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
        n = alpha.dim
        cols = []
        for j in range(n):
            e = Vector([Fraction(i == j) for i in range(n)])
            cols.append(self.reflect(alpha, e).coords)
        return Matrix(list(zip(*cols)))

    def is_simply_laced(self) -> bool:
        return self.type_symbol in SIMPLY_LACED or self.label == "A1"


def _unit(n: int, i: int, s: int = 1) -> Vector:
    return Vector([s if j == i else 0 for j in range(n)])


def _scaled_with_gram(vectors, form: BilinearForm):
    """Common denominator, the vectors scaled to ints, and G times each of
    them for the integer-scaled Gram matrix G."""
    d, ints = scaled_ints(vectors)
    _, gram = scaled_ints(form.gram.rows)
    return d, ints, [[sum(map(mul, row, a)) for row in gram] for a in ints]


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
    return frozenset(Vector(Fraction(x, d) for x in v) for v in closure(starts, refl, act))


def _cartan_gram(rows: list[list[int]]) -> BilinearForm:
    return BilinearForm(Matrix(rows))


_E_CARTAN = {
    6: [
        [2, 0, -1, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-1, 0, 2, -1, 0, 0],
        [0, -1, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ],
    7: [
        [2, 0, -1, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0],
        [0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, -1, 2],
    ],
    8: [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
}


def build_finite(type_symbol: str, rank: int) -> FiniteRootSystem:
    """Standard realization of an irreducible finite root system."""
    t = type_symbol.upper()
    if t == "A":
        if rank < 1:
            raise InvalidRank("A_l needs l >= 1")
        if rank == 1:
            form = BilinearForm(Matrix([[1]]))
            roots = frozenset({_unit(1, 0, 1), _unit(1, 0, -1)})
            return FiniteRootSystem("A", 1, roots, form, (_unit(1, 0),))
        gram = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)] for i in range(rank)]
        form = _cartan_gram(gram)
        simples = [_unit(rank, i) for i in range(rank)]
        return FiniteRootSystem("A", rank, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "B":
        if rank < 2:
            raise InvalidRank("B_l needs l >= 2")
        form = BilinearForm(Matrix.identity(rank))
        simples = [_unit(rank, i) - _unit(rank, i + 1) for i in range(rank - 1)] + [_unit(rank, rank - 1)]
        return FiniteRootSystem("B", rank, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "C":
        if rank < 3:
            raise InvalidRank("C_l needs l >= 3")
        form = BilinearForm(Matrix.identity(rank))
        simples = [_unit(rank, i) - _unit(rank, i + 1) for i in range(rank - 1)] + [_unit(rank, rank - 1, 2)]
        return FiniteRootSystem("C", rank, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "D":
        if rank < 4:
            raise InvalidRank("D_l needs l >= 4")
        form = BilinearForm(Matrix.identity(rank))
        simples = [_unit(rank, i) - _unit(rank, i + 1) for i in range(rank - 1)]
        simples.append(_unit(rank, rank - 2) + _unit(rank, rank - 1))
        return FiniteRootSystem("D", rank, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "E":
        if rank not in (6, 7, 8):
            raise InvalidRank("E_l needs l in {6,7,8}")
        form = _cartan_gram(_E_CARTAN[rank])
        simples = [_unit(rank, i) for i in range(rank)]
        return FiniteRootSystem("E", rank, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "F":
        if rank != 4:
            raise InvalidRank("F4 has rank 4")
        form = _cartan_gram([[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]])
        simples = [_unit(4, i) for i in range(4)]
        return FiniteRootSystem("F", 4, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "G":
        if rank != 2:
            raise InvalidRank("G2 has rank 2")
        form = _cartan_gram([[2, -3], [-3, 6]])
        simples = [_unit(2, 0), _unit(2, 1)]
        return FiniteRootSystem("G", 2, _closure_from_simples(simples, form), form, tuple(simples))
    if t == "BC":
        if rank < 1:
            raise InvalidRank("BC_l needs l >= 1")
        form = BilinearForm(Matrix.identity(rank))
        if rank == 1:
            base = frozenset({_unit(1, 0, 1), _unit(1, 0, -1)})
            simples = (_unit(1, 0),)
        else:
            b = build_finite("B", rank)
            base, simples = b.roots, b.fundamental
        short_len = min(form.evaluate(r, r) for r in base)
        doubles = {r * 2 for r in base if form.evaluate(r, r) == short_len}
        return FiniteRootSystem("BC", rank, frozenset(base) | doubles, form, tuple(simples))
    raise InvalidRank(f"unknown type symbol {type_symbol!r}")


def _connected(nodes, adjacent) -> bool:
    """Whether the graph on the non-empty sequence nodes, with an edge
    wherever adjacent(a, b) is non-zero, is connected: a closure over node
    indices, moving from i to j along an edge."""
    reached = closure([0], range(len(nodes)), lambda i, j: j if adjacent(nodes[i], nodes[j]) else i)
    return len(reached) == len(nodes)


def _require_irreducible(system: FiniteRootSystem) -> None:
    cartan = system.cartan
    if not cartan:
        raise NotIrreducible("empty root set")
    if not _connected(range(len(cartan)), lambda i, j: cartan[i][j]):
        raise NotIrreducible(f"{system.label}: root set splits into orthogonal parts")


def length_classes(system: FiniteRootSystem) -> tuple[frozenset[Vector], frozenset[Vector], frozenset[Vector]]:
    """Partition the nonzero roots as (short, long, extra-long).

    Extra-long roots are the ones whose half is again a root; among the rest,
    short is the smaller length, long the other (empty when simply laced).
    """
    _require_irreducible(system)
    ordered, norms = system.ordered, system.norms
    # with integral Cartan integers, <a, b^vee> = 4 exactly when a = 2b
    halves = {i for i, row in enumerate(system.cartan) if 4 in row}
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


def _matrix_closure(generators: list[Matrix], dim: int, budget: int = 2_000_000) -> frozenset[Matrix]:
    """Closure of a finite matrix set under multiplication (BFS)."""
    return frozenset(closure([Matrix.identity(dim)], generators, matmul, budget))


def finite_weyl(system: FiniteRootSystem) -> FiniteWeylGroup:
    """The full finite Weyl group as an explicit matrix set."""
    gens = tuple(system.reflection_matrix(s) for s in system.fundamental)
    return FiniteWeylGroup(_matrix_closure(list(gens), system.rank), gens)


def _classify_subset(system: FiniteRootSystem, roots: frozenset[Vector]) -> str:
    """Type label of a (sub-)root system given by a subset of system.roots."""
    halves = {r for r in roots if r * Fraction(1, 2) in roots}
    rest = roots - halves
    lengths = sorted({system.norms[system.index[r]] for r in rest})
    rank = span_rank(roots)
    if halves:
        return f"BC{rank}"
    if len(lengths) == 1:
        n = len(roots)
        if n == rank * (rank + 1):
            return f"A{rank}"
        if n == 2 * rank * (rank - 1):
            return f"D{rank}"
        if (rank, n) in ((6, 72), (7, 126), (8, 240)):
            return f"E{rank}"
        raise NotIrreducible(f"unrecognized single-length system of rank {rank} with {n} roots")
    ratio = Fraction(lengths[1], lengths[0])
    n_sh = sum(1 for r in rest if system.norms[system.index[r]] == lengths[0])
    n_lg = len(rest) - n_sh
    if ratio == 3:
        return "G2"
    if ratio == 2:
        if rank == 2 and n_sh == 4 and n_lg == 4:
            return "B2"
        if n_sh == 2 * rank:
            return f"B{rank}"
        if n_lg == 2 * rank:
            return f"B{rank}" if rank == 2 else f"C{rank}"
        if rank == 4 and n_sh == 24 and n_lg == 24:
            return "F4"
    raise NotIrreducible(f"unrecognized two-length system of rank {rank}")


def invariant_generating_subsets(system: FiniteRootSystem) -> list[tuple[str, frozenset[Vector]]]:
    """All Weyl-invariant subsets whose reflections generate the full group.

    Candidates are unions of length classes (these are exactly the orbits of
    the group on the roots); each generating one is returned with its type
    label, the full set first, then by decreasing size.
    """
    _require_irreducible(system)
    sh, lg, ex = length_classes(system)
    classes = [c for c in (sh, lg, ex) if c]
    full = finite_weyl(system).elements
    found: list[tuple[str, frozenset[Vector]]] = []
    for mask in range(1, 1 << len(classes)):
        subset = frozenset().union(*(classes[i] for i in range(len(classes)) if mask >> i & 1))
        lines = {}
        for r in subset:
            lines.setdefault(line_key(r), r)
        gens = [system.reflection_matrix(r) for r in lines.values()]
        if _matrix_closure(gens, system.rank) == full:
            found.append((_classify_subset(system, subset), subset))
    found.sort(key=lambda pair: (-len(pair[1]), pair[0]))
    return found
