import math
from fractions import Fraction
from itertools import product

import pytest

from ears.linalg import vec
from ears.semilattice import (
    Lattice,
    RankMismatch,
    Semilattice,
    residue_table,
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
    translated = product_even_semilattice(2).shifted(vec(Fraction(1, 2), 1))
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
