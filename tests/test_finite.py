import pytest

from ears import finite
from ears.finite import (
    InvalidRank,
    build_finite,
    finite_weyl,
    invariant_generating_subsets,
    length_classes,
)
from ears.linalg import line_key, vec


# orders of the reflection groups, frozen from the classification
WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24,
    ("B", 2): 8, ("B", 3): 48, ("C", 3): 48,
    ("G", 2): 12,
    ("BC", 1): 2, ("BC", 2): 8, ("BC", 3): 48,
    ("D", 4): 192, ("F", 4): 1152,
}


@pytest.mark.parametrize("sym,rank", sorted(WEYL_ORDERS))
def test_weyl_group_orders(sym, rank):
    system = build_finite(sym, rank)
    assert finite_weyl(system).order == WEYL_ORDERS[(sym, rank)]


def test_root_counts():
    assert len(build_finite("A", 2).roots) == 6
    assert len(build_finite("B", 2).roots) == 8
    assert len(build_finite("G", 2).roots) == 12
    assert len(build_finite("BC", 1).roots) == 4
    assert len(build_finite("BC", 2).roots) == 12


def test_cartan_integers_are_integral():
    system = build_finite("G", 2)
    for a in system.roots:
        for b in system.roots:
            c = system.cartan_int(a, b)
            assert c.denominator == 1
            assert -3 <= c <= 3


def test_reflection_permutes_roots():
    system = build_finite("B", 2)
    for a in system.roots:
        image = {system.reflect(a, b) for b in system.roots}
        assert image == set(system.roots)


def test_length_classes_partition():
    short, long_, extra = length_classes(build_finite("BC", 2))
    assert len(short) == 4 and len(long_) == 4 and len(extra) == 4
    assert {v * 2 for v in short} == set(extra)
    short_a, long_a, extra_a = length_classes(build_finite("A", 2))
    assert len(short_a) == 6 and not long_a and not extra_a


def test_invalid_rank_rejected():
    with pytest.raises(InvalidRank):
        build_finite("BC", 0)
    with pytest.raises(InvalidRank):
        build_finite("E", 9)
    with pytest.raises(InvalidRank):
        build_finite("Z", 2)


# frozen from a brute-force enumeration over all unions of length classes
INVARIANT_SUBSETS = {
    ("BC", 1): ["BC1", "A1", "A1"],
    ("BC", 2): ["BC2", "B2", "B2"],
    ("BC", 3): ["BC3", "B3", "C3"],
    ("B", 2): ["B2"],
    ("C", 3): ["C3"],
    ("A", 2): ["A2"],
    ("G", 2): ["G2"],
}


@pytest.mark.parametrize("sym,rank", sorted(INVARIANT_SUBSETS))
def test_invariant_generating_subsets(sym, rank):
    system = build_finite(sym, rank)
    subs = invariant_generating_subsets(system)
    assert [t for t, _ in subs] == INVARIANT_SUBSETS[(sym, rank)]
    whole = set(system.roots)
    for _, roots in subs:
        assert roots <= whole
        for a in roots:
            assert {system.reflect(a, b) for b in roots} == set(roots)


@pytest.mark.parametrize("sym,rank", sorted(INVARIANT_SUBSETS))
def test_invariant_generating_subsets_one_generator_per_line(sym, rank, monkeypatch):
    # r and -r give the same reflection, so each line enters the closure once
    calls = []
    closure = finite._matrix_closure

    def spy(gens, dim, *args):
        calls.append(gens)
        return closure(gens, dim, *args)

    monkeypatch.setattr(finite, "_matrix_closure", spy)
    system = build_finite(sym, rank)
    subs = invariant_generating_subsets(system)
    assert [t for t, _ in subs] == INVARIANT_SUBSETS[(sym, rank)]
    lines = {line_key(r) for r in system.roots}
    assert max(len(gens) for gens in calls) == len(lines)
    for gens in calls:
        assert len(set(gens)) == len(gens)


def test_bc1_subset_members():
    system = build_finite("BC", 1)
    subs = dict()
    for label, roots in invariant_generating_subsets(system):
        subs.setdefault(label, []).append(roots)
    assert set(subs["A1"][0]) in ({vec(1), vec(-1)}, {vec(2), vec(-2)})
    assert len(subs["A1"]) == 2
