import itertools
import time
from dataclasses import dataclass
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import PQTree
from ptpig.oracle import brute_oriented_consecutive_ones
from ptpig.pqtree import MARK_LEFT, MARK_RIGHT, _preorder, strip_markers

from .conftest import shallow_stack


@dataclass(frozen=True)
class Restriction:
    """A subset plus orientation: 0 consecutive, -1/+1 consecutive and
    flushed to the left/right end, 2 flushed to either end."""

    members: frozenset
    orient: int

    def __post_init__(self):
        if self.orient not in (-1, 0, 1, 2):
            raise ValueError(f"bad orientation {self.orient}")
        if not self.members:
            raise ValueError("empty restriction set")


def oriented_consecutive_ones(universe, rs) -> PQTree | None:
    """Solve a batch of oriented consecutiveness restrictions.

    Returns a tree over universe plus the two end markers (pinned to the
    ends), or None when unsatisfiable.  A set s flushed to either end is
    applied the way recognition applies it, as s and universe - s, in any
    order among the rest.
    """
    elems = list(universe)
    if MARK_LEFT in elems or MARK_RIGHT in elems:
        raise ValueError("end markers are reserved labels")
    for r in rs:
        if not r.members <= set(elems):
            raise ValueError("restriction outside universe")

    tree = PQTree(elems + [MARK_LEFT, MARK_RIGHT])
    base = frozenset(elems)
    if not tree.restrict(base | {MARK_LEFT}):
        return None
    if not tree.restrict(base | {MARK_RIGHT}):
        return None
    for r in rs:
        if r.orient == 0:
            ok = tree.restrict(r.members)
        elif r.orient == -1:
            ok = tree.restrict(r.members | {MARK_LEFT})
        elif r.orient == 1:
            ok = tree.restrict(r.members | {MARK_RIGHT})
        else:
            ok = tree.restrict(r.members) and tree.restrict(base - r.members)
        if not ok:
            return None
    return tree


def brute_consecutive(universe, sets, perms=None):
    """All permutations (of universe, or only those in perms) in which every
    set is consecutive."""
    out = set()
    for perm in itertools.permutations(universe) if perms is None else perms:
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


class FrontierCapExceeded(RuntimeError):
    """enumerate_frontiers would produce more orderings than the cap."""


def _cross(kid_sets: list[list[tuple]]) -> list[tuple]:
    acc: list[tuple] = [()]
    for ks in kid_sets:
        acc = [a + k for a in acc for k in ks]
    return acc


def _count_frontiers(root) -> int:
    # independent choices: P-nodes permute children, Q-nodes reverse them
    total = 1
    for node in _preorder(root):
        if node.kind == "P":
            total *= factorial(node.child_count)
        elif node.kind == "Q" and node.child_count >= 2:
            total *= 2
    return total


def enumerate_frontiers(tree, cap: int) -> list[tuple]:
    """Every admissible ordering of tree; raises FrontierCapExceeded past cap."""
    if tree._root is None:
        return [()]
    if _count_frontiers(tree._root) > cap:
        raise FrontierCapExceeded(f"more than {cap} admissible orderings")

    def expand(node) -> list[tuple]:
        if node.kind == "L":
            return [(node.label,)]
        kid_sets = [expand(c) for c in node.children()]
        out = []
        if node.kind == "P":
            for order in itertools.permutations(range(len(kid_sets))):
                out.extend(_cross([kid_sets[i] for i in order]))
        else:
            out.extend(_cross(kid_sets))
            if node.child_count >= 2:
                out.extend(_cross(list(reversed(kid_sets))))
        return out

    return expand(tree._root)


def frontier_set(tree, cap=6000):
    return set(enumerate_frontiers(tree, cap))


def oc1_set(universe, pairs):
    """Admissible orderings of oriented_consecutive_ones, markers stripped."""
    rs = [Restriction(frozenset(s), o) for s, o in pairs]
    tree = oriented_consecutive_ones(universe, rs)
    if tree is None:
        return set()
    return {strip_markers(f) for f in enumerate_frontiers(tree, 50000)}


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


def test_partial_q_grows_at_its_full_end():
    # each new child goes in at the full end of a partial Q-node, whichever
    # end that is, so the Q-node keeps the way it reads
    cases = [
        # non-root P-node whose partial Q(1 2 3) is full on the left
        ([1, 2, 3, 4, 5, 6], [{1, 2}, {2, 3}, {1, 2, 3, 4}, {1, 4, 5}], "P(6 Q(5 4 1 2 3))"),
        # root P-node with one partial Q(1 2 3), full on the left
        ([1, 2, 3, 4, 5], [{1, 2}, {2, 3}, {1, 4}], "P(5 Q(4 1 2 3))"),
        # root P-node with two partials: the second, Q(4 5 6 7), is longer
        # and takes in the shorter one
        (list(range(1, 9)), [{1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {1, 7}],
         "P(8 Q(4 5 6 7 1 2 3))"),
    ]
    for universe, sets, shape in cases:
        t = PQTree(universe)
        for s in sets:
            assert t.restrict(s)
        assert t.serialize() == shape
        assert frontier_set(t) == brute_consecutive(universe, sets)


def test_frontier_cap():
    with pytest.raises(FrontierCapExceeded):
        enumerate_frontiers(PQTree([1, 2, 3, 4]), 10)


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
        with pytest.raises(FrontierCapExceeded):
            enumerate_frontiers(t, 10)
    assert copy.restrict({n, n + 1}) and copy.serialize() != before
    assert t.serialize() == before


def test_nested_prefix_restricts_take_linear_time():
    # Σ|s| is about n²/2 and the tree grows n deep, so this is linear in
    # Σ|s| only if each walk up stops at the first node already reached
    n = 1000
    t = PQTree(range(1, n + 2))
    start = time.perf_counter()
    for k in range(2, n + 2):
        assert t.restrict(range(1, k + 1))
    assert time.perf_counter() - start < 10
    pos = {x: i for i, x in enumerate(t.frontier())}
    lo = hi = pos[1]
    for k in range(2, n + 2):
        lo, hi = min(lo, pos[k]), max(hi, pos[k])
        assert hi - lo == k - 1


def test_oriented_goldens():
    assert oc1_set([1, 2, 3], [({1}, -1), ({3}, 1)]) == {(1, 2, 3)}
    assert oc1_set([1, 2, 3], [({1, 2}, 0)]) == {
        (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1),
    }
    assert oc1_set([1, 2], [({1}, -1), ({1}, 1), ({2}, -1)]) == set()


def test_oriented_reserves_marker_labels():
    with pytest.raises(ValueError):
        oriented_consecutive_ones([MARK_LEFT, "x"], [])


def test_strip_markers_normalizes_direction():
    assert strip_markers((MARK_RIGHT, 2, 1, MARK_LEFT)) == (1, 2)
    assert strip_markers((MARK_LEFT, 1, 2, MARK_RIGHT)) == (1, 2)


# -- equivalence against brute force ------------------------------------------

label_universe = st.integers(3, 7).map(lambda n: list(range(1, n + 1)))


@st.composite
def restriction_sequences(draw):
    universe = draw(label_universe)
    k = draw(st.integers(1, 7))
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
    expect = None
    for s in sets:
        feasible = t.restrict(s)
        expect = brute_consecutive(universe, [s], expect)
        if not feasible:
            assert expect == set()
            break
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
    universe = draw(st.integers(2, 6).map(lambda n: list(range(1, n + 1))))
    k = draw(st.integers(1, 4))
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
