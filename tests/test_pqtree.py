import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import PQTree, oriented_consecutive_ones
from ptpig.oracle import brute_oriented_consecutive_ones
from ptpig.pqtree import (
    MARK_LEFT,
    MARK_RIGHT,
    FrontierCapExceeded,
    Restriction,
    strip_markers,
)

from .conftest import shallow_stack


def brute_consecutive(universe, sets):
    """All permutations in which every set is consecutive."""
    out = set()
    for perm in itertools.permutations(universe):
        pos = {v: i for i, v in enumerate(perm)}
        ok = True
        for s in sets:
            ps = sorted(pos[x] for x in s)
            if ps[-1] - ps[0] != len(s) - 1:
                ok = False
                break
        if ok:
            out.add(perm)
    return out


def frontier_set(tree, cap=6000):
    return set(tree.enumerate_frontiers(cap))


def oc1_set(universe, pairs):
    """Admissible orderings of oriented_consecutive_ones, markers stripped."""
    rs = [Restriction(frozenset(s), o) for s, o in pairs]
    rs.sort(key=lambda r: r.orient == 2)
    tree = oriented_consecutive_ones(universe, rs)
    if tree is None:
        return set()
    return {strip_markers(f) for f in tree.enumerate_frontiers(50000)}


# -- golden values ------------------------------------------------------------


def test_universal_counts():
    assert len(frontier_set(PQTree([1]))) == 1
    assert len(frontier_set(PQTree([1, 2, 3]))) == 6
    assert frontier_set(PQTree([])) == {()}


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        PQTree([1, 1, 2])


def test_restrict_pair_counts():
    t = PQTree([1, 2, 3, 4, 5])
    assert t.restrict({2, 3})
    assert len(frontier_set(t)) == 48
    t = PQTree([1, 2, 3, 4])
    assert t.restrict({2, 3})
    assert len(frontier_set(t)) == 12


def test_restrict_three_pairs_infeasible():
    t = PQTree([1, 2, 3, 4])
    assert t.restrict({1, 2})
    assert t.restrict({2, 3})
    assert not t.restrict({1, 3})


def test_restrict_whole_universe_is_vacuous():
    t = PQTree([1, 2, 3])
    before = frontier_set(t)
    assert t.restrict({1, 2, 3})
    assert frontier_set(t) == before


def test_serialize_goldens():
    t = PQTree([1, 2, 3, 4, 5])
    t.restrict({2, 3, 4})
    assert t.serialize() == "P(1 5 P(2 3 4))"
    t = PQTree([1, 2, 3, 4])
    t.restrict({1, 2})
    t.restrict({2, 3})
    assert t.serialize() == "P(4 Q(1 2 3))"
    assert frontier_set(t) == {(1, 2, 3, 4), (3, 2, 1, 4), (4, 1, 2, 3), (4, 3, 2, 1)}


def test_frontier_cap():
    with pytest.raises(FrontierCapExceeded):
        PQTree([1, 2, 3, 4]).enumerate_frontiers(10)


def test_frontier_satisfies_restrictions():
    t = PQTree([1, 2, 3])
    t.restrict({2, 3})
    fr = t.frontier()
    assert abs(fr.index(2) - fr.index(3)) == 1


def test_restriction_validation():
    with pytest.raises(ValueError):
        Restriction(frozenset(), 0)
    with pytest.raises(ValueError):
        Restriction(frozenset({1}), 5)


def test_orestrict_first_branch_preferred():
    t = PQTree([1, 2, 3, 4])
    assert t.orestrict({2}, 1, 3) == 1
    assert all(abs(f.index(1) - f.index(2)) == 1 for f in frontier_set(t))


def test_orestrict_falls_back():
    t = PQTree([1, 2, 3, 4])
    t.restrict({1, 2})
    t.restrict({2, 3})
    # 1 and 3 sit at opposite ends of the Q-node, so {1,3} cannot close up
    assert t.orestrict({1}, 3, 4) == 2


def test_orestrict_both_dead():
    t = PQTree([1, 2, 3, 4])
    for s in ({1, 2}, {2, 3}, {3, 4}):
        assert t.restrict(s)
    assert t.orestrict({1, 4}, 2, 3) == 0


def test_orestrict_rejects_member_pivot():
    with pytest.raises(ValueError):
        PQTree([1, 2, 3]).orestrict({1, 2}, 2, 3)


def test_clone_of_a_deep_tree_needs_no_deep_recursion():
    # prefix restricts nest one P-node per step: P(P(P(1 2) 3) 4) ...
    n = 300
    t = PQTree(range(1, n + 2))
    for k in range(2, n + 1):
        assert t.restrict(range(1, k + 1))
    with shallow_stack(100):
        copy = t.clone()
        assert copy.frontier() == t.frontier()
    before = t.serialize()
    assert copy.serialize() == before
    assert copy.restrict({n, n + 1}) and copy.serialize() != before
    assert t.serialize() == before


def test_oriented_goldens():
    assert oc1_set([1, 2, 3], [({1}, -1), ({3}, 1)]) == {(1, 2, 3)}
    assert oc1_set([1, 2, 3], [({1, 2}, 0)]) == {
        (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1),
    }
    assert oc1_set([1, 2], [({1}, -1), ({1}, 1), ({2}, -1)]) == set()


def test_oriented_requires_either_last():
    rs = [Restriction(frozenset({1}), 2), Restriction(frozenset({2}), -1)]
    with pytest.raises(ValueError):
        oriented_consecutive_ones([1, 2, 3], rs)


def test_oriented_reserves_marker_labels():
    with pytest.raises(ValueError):
        oriented_consecutive_ones([MARK_LEFT, "x"], [])


def test_strip_markers_normalizes_direction():
    assert strip_markers((MARK_RIGHT, 2, 1, MARK_LEFT)) == (1, 2)
    assert strip_markers((MARK_LEFT, 1, 2, MARK_RIGHT)) == (1, 2)


# -- equivalence against brute force ------------------------------------------

label_universe = st.integers(3, 6).map(lambda n: list(range(1, n + 1)))


@st.composite
def restriction_sequences(draw):
    universe = draw(label_universe)
    k = draw(st.integers(1, 4))
    sets = [
        frozenset(draw(st.sets(st.sampled_from(universe), min_size=2, max_size=len(universe))))
        for _ in range(k)
    ]
    return universe, sets


@given(restriction_sequences())
@settings(max_examples=120, deadline=None)
def test_restrict_matches_brute(case):
    universe, sets = case
    t = PQTree(universe)
    feasible = True
    for s in sets:
        if not t.restrict(s):
            feasible = False
            break
    expect = brute_consecutive(universe, sets)
    if not feasible:
        assert expect == set()
    else:
        assert frontier_set(t, 50000) == expect


@given(restriction_sequences())
@settings(max_examples=60, deadline=None)
def test_restrict_is_monotone(case):
    universe, sets = case
    t = PQTree(universe)
    admissible = frontier_set(t, 50000)
    for s in sets:
        if not t.restrict(s):
            break
        nxt = frontier_set(t, 50000)
        assert nxt <= admissible
        admissible = nxt


@st.composite
def oriented_instances(draw):
    universe = draw(st.integers(2, 5).map(lambda n: list(range(1, n + 1))))
    k = draw(st.integers(1, 3))
    pairs = []
    for _ in range(k):
        s = frozenset(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=len(universe))))
        pairs.append((s, draw(st.sampled_from([0, -1, 1, 2]))))
    return universe, pairs


def oriented_agrees(universe, pairs):
    got = oc1_set(universe, pairs)
    expect = brute_oriented_consecutive_ones(universe, pairs)
    anchored = any(o in (-1, 1) and len(s) < len(universe) for s, o in pairs)
    if anchored:
        return got == expect
    # without an orientation anchor the tree answers modulo full reversal
    return got | {tuple(reversed(f)) for f in got} == expect


@given(oriented_instances())
@settings(max_examples=150, deadline=None)
def test_oriented_matches_brute(case):
    universe, pairs = case
    assert oriented_agrees(universe, pairs)


@st.composite
def flush_conflicts(draw):
    universe = draw(st.integers(2, 6).map(lambda n: list(range(1, n + 1))))
    s1 = frozenset(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=len(universe) - 1)))
    s2 = frozenset(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=len(universe) - 1)))
    return universe, s1, s2


@given(flush_conflicts())
@settings(max_examples=150, deadline=None)
def test_flush_directions_never_both_feasible(case):
    # for proper subsets, "both flush left" and "one left, one right" are
    # mutually exclusive outcomes
    universe, s1, s2 = case
    both_left = brute_oriented_consecutive_ones(universe, [(s1, -1), (s2, -1)])
    left_right = brute_oriented_consecutive_ones(universe, [(s1, -1), (s2, 1)])
    assert not (both_left and left_right)
