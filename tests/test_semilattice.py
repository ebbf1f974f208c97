import math
from fractions import Fraction
from itertools import product

import pytest

from ears.core import semilattice_to_config
from ears.linalg import Vector, closure, scaled_ints, vec
from ears.semilattice import (
    Lattice,
    RankMismatch,
    ResidueTable,
    Semilattice,
    _hnf_int,
    box_points,
    residue_table,
    sum_condition,
    verify_semilattice,
)
from ears.examples import integer_lattice, product_even_semilattice


def test_lattice_reduce_and_contains():
    lat = Lattice(2, [[2, 0], [0, 2]])
    assert lat.contains(vec(4, -2))
    assert not lat.contains(vec(1, 0))
    assert lat.reduce(vec(5, 4)) == vec(1, 0)


def test_lattice_intersection():
    a = Lattice(2, [[2, 0], [0, 1]])
    b = Lattice(2, [[1, 0], [0, 3]])
    both = a.intersect(b)
    assert both.contains(vec(2, 3))
    assert not both.contains(vec(2, 1))
    assert not both.contains(vec(1, 3))


def test_lattice_quotient_reps():
    big = Lattice(2, [[1, 0], [0, 1]])
    small = Lattice(2, [[2, 0], [0, 2]])
    reps = big.quotient_reps(small)
    assert len(reps) == 4
    assert len(big.quotient_reps(big.scaled(4), cap=16)) == 16
    with pytest.raises(RuntimeError):
        big.quotient_reps(big.scaled(4), cap=8)


def test_constructor_doubles_the_basis():
    # Semilattice(basis, cosets) models cosets + 2<basis>: a single zero
    # coset over basis [[1]] is 2Z, not Z
    s = Semilattice([[1]], [[0]])
    assert s.contains(vec(2))
    assert not s.contains(vec(1))
    full = Semilattice([[1]], [[0], [1]])
    assert full.contains(vec(1))
    assert full.is_lattice()


def test_from_cosets_takes_modulus_as_given():
    s = Semilattice.from_cosets([vec(1)], Lattice(1, [[2]]), translated=True)
    assert s.contains(vec(3))
    assert not s.contains(vec(0))
    assert s.translated


def test_product_even_is_semilattice_but_not_lattice():
    s = product_even_semilattice(2)
    assert s.contains(vec(1, 0))
    assert s.contains(vec(0, 1))
    assert not s.contains(vec(1, 1))
    assert not s.is_lattice()
    assert verify_semilattice(s).ok


def test_closure_under_adding_twice_an_element():
    s = product_even_semilattice(3)
    members = s.window(2)
    for a in members[:12]:
        for b in members[:12]:
            assert s.contains(a + b * 2)


def test_union_and_scaling():
    s = Semilattice([[1]], [[0]])          # 2Z
    t = Semilattice([[1]], [[1]], translated=True)  # 1 + 2Z
    u = s.union(t)
    assert u == integer_lattice(1)
    assert s.scaled(2).contains(vec(4))
    assert not s.scaled(2).contains(vec(2))


def test_sum_set():
    s = product_even_semilattice(2)
    ss = s.sum_set(s)
    # sums of two product-even vectors cover every residue
    assert ss.contains(vec(1, 1))
    assert ss == integer_lattice(2)


def test_sum_condition_shifts_by_cosets_and_modulus_rows():
    def z(step, den=1):  # the multiples of step / den, kept as one coset of that lattice
        return Semilattice.from_cosets([[0]], Lattice(1, [[Fraction(step, den)]]))
    # B keeps its modulus as given (not canonical), and A + B escapes
    # A = Z x 2Z only through B's modulus row (0, 1), never through a coset
    a = Semilattice.from_cosets([[0, 0]], Lattice(2, [[1, 0], [0, 2]]))
    b = Semilattice.from_cosets([[0, 0], [1, 0]], Lattice(2, [[4, 0], [0, 1]]))
    assert not b.canonical
    assert not sum_condition(a, b, 1) and sum_condition(a, b, 2)
    # denominators differ: Z + (1/2)Z escapes Z, Z + 2 (1/2)Z does not
    assert sum_condition(z(1, 2), z(1), 1)
    assert not sum_condition(z(1), z(1, 2), 1) and sum_condition(z(1), z(1, 2), 2)
    with pytest.raises(RankMismatch):
        sum_condition(z(1), integer_lattice(2), 1)


def test_sum_condition_needs_the_modulus_rows_of_a_canonical_set():
    # B is canonical with modulus 2Z^4, but its reduced cosets 0 and the rows
    # of M generate only M Z^4, of index |det M| = 3; so the coset shifts
    # alone keep A = M Z^4, while 2 e_1 lies in B and not in A
    m = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0]]
    i4 = [[int(i == j) for j in range(4)] for i in range(4)]
    b = Semilattice(i4, [[0, 0, 0, 0], *m])
    a = Semilattice.from_cosets([[0, 0, 0, 0]], Lattice(4, m))
    assert b.canonical and b.lattice == Lattice(4, i4) and b.modulus == Lattice(4, i4).scaled(2)
    gen = Lattice(4, [c.coords for c in b.cosets])
    assert gen.den == 1 and math.prod(r[p] for r, p in zip(gen.hnf, gen.pivots)) == 3
    assert b.contains(vec(2, 0, 0, 0)) and not a.contains(vec(2, 0, 0, 0))
    assert all(a.contains(c + t) for c in a.cosets for t in b.cosets)
    assert not sum_condition(a, b, 1)


def test_points_are_the_window_at_every_scale(suite):
    for name, R in sorted(suite.items()):
        for tag, sl in sorted(dict(R.translations, isotropic=R.isotropic).items()):
            for k in (1, 3):
                lim = 2 * k * sl.den
                got = sl.points(k * sl.den, [-lim] * sl.ambient, [lim] * sl.ambient)
                assert len(set(got)) == len(got), (name, tag, k)
                assert [Vector._of(p, k * sl.den) for p in sorted(got)] == sl.window(2), (name, tag, k)


def test_contains_answers_alike_with_and_without_a_table(monkeypatch):
    import ears.semilattice

    # a full set, a translated one with a finer denominator, and a degenerate one
    cfgs = [([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]]), ([[1, 0], [0, 1]], [["1/2", 1]]),
            ([[1, 0]], [[0, 0], [1, 0]])]
    probes = [vec(*(Fraction(x, 2) for x in p)) for p in product(range(-5, 6), repeat=2)]
    for basis, cosets in cfgs:
        with_table = Semilattice(basis, cosets, translated=True)
        monkeypatch.setattr(ears.semilattice, "residue_table", lambda s: None)
        without = Semilattice(basis, cosets, translated=True)
        answers = [without.contains(v) for v in probes]
        monkeypatch.undo()
        assert [with_table.contains(v) for v in probes] == answers, cosets
        assert any(answers) and bool(with_table._table) == (len(basis) == 2), cosets


def _grid_window(s, bound):
    """Every point of the box on the grid of the set's common denominator
    that the set contains, sorted: a reference that does not enumerate."""
    den = math.lcm(*(x.denominator for v in (*s.cosets, *s.modulus.rows) for x in v))
    lim = math.floor(Fraction(bound) * den)
    grid = product(range(-lim, lim + 1), repeat=s.ambient)
    return [v for v in (vec(*(Fraction(x, den) for x in p)) for p in grid) if s.contains(v)]


def test_window_is_sorted_and_complete(suite):
    s = integer_lattice(2)
    win = s.window(1)
    assert sorted(win, key=lambda v: v.coords) == list(win)
    assert len(win) == 9
    cases = [
        (f"{name} {tag}", sl, bound)
        for name, R in sorted(suite.items())
        for tag, sl in sorted(dict(R.translations, isotropic=R.isotropic).items())
        for bound in (1, 2, 3, 4)
    ]
    non_canonical = Semilattice.from_cosets([vec(0), vec(1), vec(4)], Lattice(1, [[8]]))
    assert not non_canonical.canonical
    even = product_even_semilattice(2)
    translated = Semilattice.from_cosets([c + vec(Fraction(1, 2), 1) for c in even.cosets], even.modulus, True)
    cases += [
        ("non-canonical", non_canonical, 5),
        ("rank-deficient", Semilattice.from_cosets([vec(0, 1)], Lattice(2, [[2, 3]])), 5),
        ("translated", translated, 2),
        ("fractional bound", product_even_semilattice(2), Fraction(3, 2)),
        ("fractional bound, translated", translated, Fraction(3, 2)),
    ]
    for label, sl, bound in cases:
        assert sl.window(bound) == _grid_window(sl, bound), label


def reference_quotient_reps(lat, sub):
    """Representatives of lat modulo sub by a breadth-first loop."""
    reps = {sub.reduce(vec(*[0] * lat.ambient))}
    frontier = list(reps)
    while frontier:
        nxt = []
        for v in frontier:
            for g in lat.rows:
                w = sub.reduce(v + g)
                if w not in reps:
                    reps.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(reps, key=lambda v: v.coords)


def reference_cosets(m0, cvecs):
    """Cosets of cvecs + m0 modulo 2<S> by a breadth-first loop over m0's
    rows, or modulo m0 as given when 2<S> does not permute them."""
    m1 = Lattice(m0.ambient, list(m0.rows) + cvecs).scaled(2)
    reduced = frozenset(m0.reduce(c) for c in cvecs)
    if not all(frozenset(m0.reduce(c + g) for c in reduced) == reduced for g in m1.rows):
        return reduced
    seen = {m1.reduce(c) for c in reduced}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in m0.rows:
                w = m1.reduce(v + g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def reference_residues(s):
    """(scale, period, residues) of a residue table, with the scale taken
    coordinate by coordinate and a breadth-first loop per coset."""
    scale = 1
    for v in (*s.modulus.rows, *s.cosets):
        for c in v.coords:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    rows = [[int(c * scale) for c in r.coords] for r in s.modulus.rows]
    period = math.prod(r[i] for i, r in enumerate(rows))
    residues = set()
    for c in s.cosets:
        start = tuple(int(x * scale) % period for x in c.coords)
        frontier = [start]
        residues.add(start)
        while frontier:
            nxt = []
            for t in frontier:
                for r in rows:
                    w = tuple((x + y) % period for x, y in zip(t, r))
                    if w not in residues:
                        residues.add(w)
                        nxt.append(w)
            frontier = nxt
    return scale, period, frozenset(residues)


def test_closures_match_breadth_first_loops(suite):
    for name, R in sorted(suite.items()):
        for tag, sl in sorted(dict(R.translations, isotropic=R.isotropic).items()):
            label = f"{name} {tag}"
            lat = sl.lattice
            for sub in (sl.modulus, lat.scaled(4)):
                assert lat.quotient_reps(sub) == reference_quotient_reps(lat, sub), label
            doubled = [c * 2 for c in sl.cosets]
            for m0, cvecs in ((sl.modulus, list(sl.cosets)), (lat.scaled(2), doubled)):
                got = Semilattice.from_cosets(cvecs, m0).cosets
                assert got == reference_cosets(m0, cvecs), label
            table = residue_table(sl)
            assert (table.scale, table.period, table.residues) == reference_residues(sl), label
            assert table == reference_residue_table(sl), label


def reference_residue_table(s, cap=4_000_000):
    """residue_table as a closure over the modulus rows mod period (the
    breadth-first construction it replaced)."""
    if s.modulus.rank != s.ambient:
        return None
    rows = s.modulus.rows_at(s.den)
    period = math.prod(r[i] for i, r in enumerate(rows))
    if s.coset_count * period ** (s.ambient - 1) > cap:
        return None
    starts = [tuple(x % period for x in c) for c in s.ints]
    residues = closure(starts, rows, lambda t, r: tuple((x + y) % period for x, y in zip(t, r)), cap)
    return ResidueTable(s.ambient, s.den, period, frozenset(residues))


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatch):
        Semilattice([[1, 0], [0, 1]], [[0]])


def test_verify_semilattice_flags_non_closure():
    # {0,1,4} + modulus 8Z misses 1 + 2*4 = 9 ≡ 1: fine; but 4 + 2*1 = 6
    # is not covered, so closure fails
    s = Semilattice.from_cosets([vec(0), vec(1), vec(4)], Lattice(1, [[8]]))
    assert not verify_semilattice(s).ok


def test_spanning_required():
    report = verify_semilattice(
        Semilattice.from_cosets([vec(0, 0), vec(2, 0)], Lattice(2, [[4, 0], [0, 0]]))
    )
    assert not report.ok


# ---------------------------------------------------------------------------
# The Fraction implementation that integer Lattice and Semilattice replaced,
# kept as the reference: rows and cosets are Fraction Vectors and every
# reduction runs on Fraction arithmetic.


class RefLattice:
    def __init__(self, ambient, rows=()):
        vecs = [r if isinstance(r, Vector) else Vector(r) for r in rows]
        for v in vecs:
            if v.dim != ambient:
                raise RankMismatch(f"row of dim {v.dim} in ambient rank {ambient}")
        s, ints = scaled_ints(vecs)
        hnf, _ = _hnf_int(ints, ambient)
        self.ambient = ambient
        self.rows = tuple(Vector([Fraction(a, s) for a in r]) for r in hnf)

    @property
    def rank(self):
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, RefLattice) and (self.ambient, self.rows) == (other.ambient, other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Lattice({self.ambient}, {[list(r.coords) for r in self.rows]!r})"

    def _pivots(self):
        return [next(j for j, c in enumerate(r.coords) if c != 0) for r in self.rows]

    def reduce(self, v):
        if v.dim != self.ambient:
            raise RankMismatch(f"vector dim {v.dim}, ambient {self.ambient}")
        for r, p in zip(self.rows, self._pivots()):
            q = v.coords[p] // r.coords[p]
            if q:
                v = v - r * q
        return v

    def contains(self, v):
        return self.reduce(v).is_zero()

    def sum(self, other):
        return RefLattice(self.ambient, self.rows + other.rows)

    def scaled(self, factor):
        return RefLattice(self.ambient, tuple(r * Fraction(factor) for r in self.rows))

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise RankMismatch("ambient ranks differ")
        if not self.rows or not other.rows:
            return RefLattice(self.ambient)
        stacked = list(self.rows) + list(other.rows)
        m = len(stacked)
        aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(scaled_ints(stacked)[1])]
        _, kernel = _hnf_int(aug, self.ambient, aug=m)
        gens = []
        for krow in kernel:
            acc = Vector([0] * self.ambient)
            for coeff, row in zip(krow[self.ambient : self.ambient + self.rank], self.rows):
                acc = acc + row * coeff
            gens.append(acc)
        return RefLattice(self.ambient, gens)

    def is_sublattice_of(self, other):
        return all(other.contains(r) for r in self.rows)

    def quotient_reps(self, sub, cap=1 << 20):
        if not sub.is_sublattice_of(self) or sub.rank != self.rank:
            raise ValueError("not a finite-index sublattice")
        zero = sub.reduce(Vector([0] * self.ambient))
        reps = closure([zero], self.rows, lambda v, g: sub.reduce(v + g), cap)
        return sorted(reps, key=lambda v: v.coords)


class RefSemilattice:
    def __init__(self, basis, cosets, translated=False):
        basis = [b if isinstance(b, Vector) else Vector(b) for b in basis]
        cvecs = [c if isinstance(c, Vector) else Vector(c) for c in cosets]
        if not cvecs:
            raise ValueError("at least one coset representative is required")
        self._build(cvecs[0].dim, RefLattice(cvecs[0].dim, [b * 2 for b in basis]), cvecs, translated)

    @classmethod
    def from_cosets(cls, cosets, modulus, translated=False):
        self = object.__new__(cls)
        cvecs = [c if isinstance(c, Vector) else Vector(c) for c in cosets]
        if not cvecs:
            raise ValueError("at least one coset representative is required")
        self._build(modulus.ambient, modulus, cvecs, translated)
        return self

    def _build(self, ambient, m0, cvecs, translated):
        for c in cvecs:
            if c.dim != ambient:
                raise RankMismatch(f"coset dim {c.dim}, ambient rank {ambient}")
        lattice = RefLattice(ambient, list(m0.rows) + cvecs)
        m1 = lattice.scaled(2)
        reduced = frozenset(m0.reduce(c) for c in cvecs)
        if all(frozenset(m0.reduce(c + g) for c in reduced) == reduced for g in m1.rows):
            start = [m1.reduce(c) for c in reduced]
            final = frozenset(closure(start, m0.rows, lambda v, g: m1.reduce(v + g)))
            modulus, canonical = m1, True
        else:
            modulus, final, canonical = m0, reduced, False
        self.ambient, self.cosets, self.modulus = ambient, final, modulus
        self.lattice, self.translated, self.canonical = lattice, translated, canonical

    def __eq__(self, other):
        return isinstance(other, RefSemilattice) and (self.modulus, self.cosets) == (
            other.modulus, other.cosets)

    def __hash__(self):
        return hash((self.modulus, self.cosets))

    def __repr__(self):
        kind = "translated semilattice" if self.translated else "semilattice"
        return (f"<{kind} rank {self.ambient}: {len(self.cosets)} cosets "
                f"mod lattice of rank {self.modulus.rank}>")

    def contains(self, v):
        return v.dim == self.ambient and self.modulus.reduce(v) in self.cosets

    def is_lattice(self):
        return self.canonical and len(self.cosets) == 2 ** self.lattice.rank

    def scaled(self, factor):
        f = Fraction(factor)
        return RefSemilattice.from_cosets(
            [c * f for c in self.cosets], self.modulus.scaled(f), self.translated)

    def union(self, other):
        k = self.modulus.intersect(other.modulus)
        cosets = set(self._cosets_mod(k)) | set(other._cosets_mod(k))
        return RefSemilattice.from_cosets(cosets, k, self.translated and other.translated)

    def sum_set(self, other):
        m = self.modulus.sum(other.modulus)
        return RefSemilattice.from_cosets({a + b for a in self.cosets for b in other.cosets}, m, True)

    def _cosets_mod(self, finer):
        reps = self.modulus.quotient_reps(finer) if self.modulus.rows else [Vector([0] * self.ambient)]
        return [finer.reduce(c + r) for c in self.cosets for r in reps]

    def intersects(self, other):
        joint = self.modulus.sum(other.modulus)
        return any(joint.contains(a - b) for a in self.cosets for b in other.cosets)

    def window(self, bound):
        k = len(self.modulus.rows)
        scale, ints = scaled_ints([r.coords for r in self.modulus.rows] + [c.coords for c in self.cosets])
        lim = math.floor(Fraction(bound) * scale)
        points = box_points(ints[:k], ints[k:], [-lim] * self.ambient, [lim] * self.ambient)
        return [Vector(Fraction(x, scale) for x in p) for p in sorted(set(points))]


def ref_problems(s):
    """verify_semilattice's problem strings, on the reference."""
    problems = []
    if s.lattice.rank != s.ambient:
        problems.append(f"members span a subspace of dimension {s.lattice.rank} < {s.ambient}")
    if not s.translated and not s.contains(Vector([0] * s.ambient)):
        problems.append("0 is not a member and the set is not marked translated")
    cosets = sorted(s.cosets, key=lambda v: v.coords)
    bad = [(a, b) for a in cosets for b in cosets if not s.contains(a + b * 2)]
    if bad:
        problems.append(f"not closed under x + 2y: {bad[0][0]} + 2*{bad[0][1]} escapes")
    return tuple(problems)


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def both(basis, cosets, translated=False, modulus=None):
    """The same set built by Semilattice and by the reference: from a
    generating description, or from cosets over a given modulus."""
    if modulus is None:
        return (Semilattice(basis, cosets, translated), RefSemilattice(basis, cosets, translated))
    return (Semilattice.from_cosets(cosets, Lattice(len(cosets[0]), modulus), translated),
            RefSemilattice.from_cosets(cosets, RefLattice(len(cosets[0]), modulus), translated))


def probes(s):
    """Vectors to reduce and test: window points, the same times 1/2 and 2/3
    (often with denominators finer than the set's), and sums with modulus rows."""
    pts = s.window(1)[:12] + [vec(*[Fraction(1, 2)] * s.ambient)]
    return pts + [v * Fraction(1, 2) for v in pts] + [v * Fraction(2, 3) for v in pts] + [
        v + r for v in pts[:3] for r in s.modulus.rows]


def assert_lattice_matches(lat, ref, label):
    assert repr(lat) == repr(ref) and lat.rows == ref.rows and lat.rank == ref.rank, label
    for f in (2, Fraction(1, 2), Fraction(-2, 3), 0):
        assert lat.scaled(f).rows == ref.scaled(f).rows, (label, f)
    for sub, rsub in ((lat.scaled(2), ref.scaled(2)), (lat.scaled(3), ref.scaled(3))):
        assert outcome(lat.quotient_reps, sub) == outcome(ref.quotient_reps, rsub), label


def assert_matches(s, ref, label):
    """Every unary operation of s agrees with the reference on ref."""
    assert repr(s) == repr(ref) and s.cosets == ref.cosets and s.canonical == ref.canonical, label
    assert (s.coset_count, s.is_lattice()) == (len(ref.cosets), ref.is_lattice()), label
    assert_lattice_matches(s.modulus, ref.modulus, label)
    assert_lattice_matches(s.lattice, ref.lattice, label)
    for v in probes(s):
        assert s.contains(v) == ref.contains(v), (label, v)
        for lat, rlat in ((s.modulus, ref.modulus), (s.lattice, ref.lattice)):
            assert lat.reduce(v) == rlat.reduce(v), (label, v)
            assert lat.contains(v) == rlat.contains(v), (label, v)
    for bound in (1, Fraction(3, 2), 2):
        assert s.window(bound) == ref.window(bound), (label, bound)
    for f in (2, Fraction(1, 2), -1):
        assert s.scaled(f).cosets == ref.scaled(f).cosets, (label, f)
    finer = s.modulus.scaled(2)
    mine = [Vector([Fraction(a, s.den) for a in x]) for x in s._residues(finer, s.den)]
    assert sorted(mine, key=lambda v: v.coords) == sorted(
        ref._cosets_mod(ref.modulus.scaled(2)), key=lambda v: v.coords), label
    assert verify_semilattice(s).problems == ref_problems(ref), label
    # the non-canonical and canonical builds from the same cosets
    for m, rm in ((s.modulus, ref.modulus), (s.lattice.scaled(4), ref.lattice.scaled(4))):
        got = Semilattice.from_cosets(s.cosets, m)
        want = RefSemilattice.from_cosets(ref.cosets, rm)
        assert (got.cosets, got.canonical, repr(got)) == (want.cosets, want.canonical, repr(want)), label


def view(x):
    """What a result means, for either implementation: its rows, or its
    cosets, modulus rows and repr; exception types and plain values as they are."""
    if isinstance(x, (Lattice, RefLattice)):
        return x.rows
    if isinstance(x, (Semilattice, RefSemilattice)):
        return x.cosets, x.modulus.rows, repr(x)
    return x


def assert_pair_matches(a, ra, b, rb, label):
    """Every binary operation agrees with the reference, and so does ==."""
    assert (a == b) == (ra == rb), label
    assert (a.modulus == b.modulus) == (ra.modulus == rb.modulus), label
    for op in ("intersect", "sum"):
        got = outcome(getattr(a.modulus, op), b.modulus)
        assert view(got) == view(outcome(getattr(ra.modulus, op), rb.modulus)), (label, op)
    for op in ("intersects", "sum_set", "union"):
        got = outcome(getattr(a, op), b)
        assert view(got) == view(outcome(getattr(ra, op), rb)), (label, op)
    for k in (1, 2, 3, 4):  # construct_ears asks 1 and each ratio of squared lengths
        assert sum_condition(a, b, k) == all(
            ra.contains(c + t * k) for c in ra.cosets for t in (*rb.cosets, *rb.modulus.rows)), (label, k)


def test_integer_sets_match_the_fraction_reference_on_the_suite(suite):
    for name, R in sorted(suite.items()):
        sets = sorted(dict(R.translations, isotropic=R.isotropic).items())
        built = {}
        for tag, sl in sets:
            cfg = semilattice_to_config(sl)
            s, ref = both(None, cfg["cosets"], cfg["translated"], modulus=cfg["basis"])
            assert s == sl and hash(s) == hash(sl), (name, tag)
            assert_matches(s, ref, f"{name} {tag}")
            built[tag] = s, ref
        for (ta, (a, ra)), (tb, (b, rb)) in product(built.items(), repeat=2):
            assert_pair_matches(a, ra, b, rb, f"{name} {ta} {tb}")


def test_differently_scaled_inputs_give_one_lattice():
    pairs = [
        (Lattice(1, [[2]]), Lattice(1, [["4/2"]])),
        (Lattice(1, [["1/2"], [1]]), Lattice(1, [["1/2"]])),
        (Lattice(2, [["1/2", 0], [0, "1/3"]]), Lattice(2, [["3/6", 0], [0, "2/6"], [1, 1]])),
        (Lattice(2, [[2, 0], [0, 2]]).intersect(Lattice(2, [["1/2", 0], [0, 1]])),
         Lattice(2, [[2, 0], [0, 2]])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.den == b.den and a.hnf == b.hnf
    s = Semilattice.from_cosets([[1], ["1/2"]], Lattice(1, [[2]]))
    t = Semilattice.from_cosets([["2/2"], ["3/6"], [5]], Lattice(1, [["4/2"]]))
    assert s == t and hash(s) == hash(t)


def test_hermite_form_is_canonical_in_any_row_order():
    # rows of M in two orders: the entry above the last pivot is reduced
    # into [0, 3) whichever rows the elimination met first
    m = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0]]
    a, b = Lattice(4, m), Lattice(4, m[::-1])
    assert a.hnf == b.hnf == ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 3))
    assert a == b and hash(a) == hash(b)


def test_finer_denominators_are_not_members():
    # the half-integers 1/2 + Z: every member, and the lattice they span, lies in (1/2) Z
    s = Semilattice.from_cosets([["1/2"]], Lattice(1, [[1]]), translated=True)
    ref = RefSemilattice.from_cosets([["1/2"]], RefLattice(1, [[1]]), translated=True)
    assert s.den == 2 and s.lattice.den == 2
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(5, 6), Fraction(-7, 12), Fraction(9, 4)):
        v = vec(x)
        assert not s.contains(v) and not ref.contains(v)
        assert not s.modulus.contains(v) and not s.lattice.contains(v)
        assert s.modulus.reduce(v) == ref.modulus.reduce(v)
        assert s.lattice.reduce(v) == ref.lattice.reduce(v)
    assert s.modulus.reduce(vec(Fraction(9, 4))) == vec(Fraction(1, 4))
    assert s.contains(vec(Fraction(-3, 2))) and not s.contains(vec(1))


def test_non_canonical_set_reproduces_its_point_set():
    s = Semilattice.from_cosets([vec(0), vec(Fraction(1, 2)), vec(2)], Lattice(1, [[4]]))
    assert not s.canonical
    assert s.window(4) == _grid_window(s, 4)
    assert [float(v[0]) for v in s.window(4)] == [-4, -3.5, -2, 0, 0.5, 2, 4]
