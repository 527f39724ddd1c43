import itertools
import time
from dataclasses import dataclass
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import OracleBudgetExceeded, PQTree
from ptpig.oracle import MAX_UNIVERSE
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


# orientation codes for brute_oriented_consecutive_ones
ORIENT_NONE = 0
ORIENT_LEFT = -1
ORIENT_RIGHT = 1
ORIENT_EITHER = 2


def brute_oriented_consecutive_ones(universe, rs):
    """All orderings of universe satisfying every restriction literally.

    rs is a list of (subset, orientation) pairs; orientation 0 demands the
    subset be consecutive, -1/+1 additionally flushed to the left/right end,
    and 2 flushed to either end.
    """
    elems = list(universe)
    if len(elems) > MAX_UNIVERSE:
        raise OracleBudgetExceeded(
            f"universe of {len(elems)} exceeds the enumeration cap"
        )
    checks = [(frozenset(s), b) for s, b in rs]
    out = set()
    last = len(elems) - 1
    for perm in itertools.permutations(elems):
        ok = True
        for s, b in checks:
            ps = [i for i, x in enumerate(perm) if x in s]
            if ps[-1] - ps[0] + 1 != len(ps):
                ok = False
                break
            if b == ORIENT_LEFT and ps[0] != 0:
                ok = False
                break
            if b == ORIENT_RIGHT and ps[-1] != last:
                ok = False
                break
            if b == ORIENT_EITHER and ps[0] != 0 and ps[-1] != last:
                ok = False
                break
        if ok:
            out.add(perm)
    return out


def _check_links(tree):
    """Every node's child list is well linked and counted, P-nodes have at
    least 2 children and Q-nodes at least 3, and the leaves are the universe."""
    leaves = []
    if tree._root is not None:
        assert tree._root.parent is None
        for node in _preorder(tree._root):
            if node.kind == "L":
                assert node.first is None and node.last is None and node.child_count == 0
                assert tree._leaf[node.label] is node
                leaves.append(node.label)
                continue
            kids = node.children()
            assert node.child_count == len(kids) >= (2 if node.kind == "P" else 3)
            assert node.first is kids[0] and node.last is kids[-1]
            assert kids[0].lsib is None and kids[-1].rsib is None
            for a, b in zip(kids, kids[1:]):
                assert a.rsib is b and b.lsib is a
            assert all(c.parent is node for c in kids)
    assert len(leaves) == len(tree._labels) and set(leaves) == tree._labels


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


def test_pinned_tree_matches_two_restricts():
    # a block's tree, built directly, is the tree that pinning the members
    # between the markers with two restricts reaches, and it goes on to
    # take the same restricts the same way
    assert PQTree.pinned((3, 1, 2)).serialize() == "Q(⊢ P(3 1 2) ⊣)"
    assert PQTree.pinned((5,)).serialize() == "Q(⊢ 5 ⊣)"
    for members, sets in (((3, 1, 2), [{1, 2}, {2, MARK_RIGHT}]),
                          ((5,), []),
                          ((4, 7), [{7, MARK_LEFT}]),
                          ((1, 2, 3, 4), [{2, 3}, {1, 2, 3}, {4, MARK_LEFT}])):
        pinned = PQTree.pinned(members)
        _check_links(pinned)
        t = PQTree((*members, MARK_LEFT, MARK_RIGHT))
        assert t.restrict({*members, MARK_LEFT}) and t.restrict({*members, MARK_RIGHT})
        assert pinned.serialize() == t.serialize()
        for s in sets:
            assert pinned.restrict(s) == t.restrict(s)
            assert pinned.serialize() == t.serialize()
            assert frontier_set(pinned) == frontier_set(t)


def test_paired_tree_matches_pair_restricts():
    # the component-arrangement tree, built directly, is the tree that
    # restricting each marker pair in turn reaches, and it goes on to take
    # the same restricts the same way
    assert PQTree.paired([(1, 2), ("a", "b")]).serialize() == "P(P(1 2) P(a b))"
    assert PQTree.paired([(1, 2)]).serialize() == "P(1 2)"
    for r in range(2, 41):
        pairs = [(("L", i), ("R", i)) for i in range(r)]
        paired = PQTree.paired(pairs)
        _check_links(paired)
        t = PQTree([x for pair in pairs for x in pair])
        for pair in pairs:
            assert t.restrict(set(pair))
        assert paired.serialize() == t.serialize()
        for s in ({("R", 0), ("L", r - 1)}, {("R", r - 1), ("L", 1), ("R", 1)},
                  {("L", 0), ("R", 0), ("L", r // 2)}):
            ok = paired.restrict(s)
            assert ok == t.restrict(s)
            if not ok:
                break
            assert paired.serialize() == t.serialize()
            _check_links(paired)


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
        # non-root Q(P(1 2) 3 4) whose lone partial child Q(2 1), at its
        # head and full on the right, opens with its full end at the head
        # that the run reaches: Q(1 2 3 4), not Q(2 1 3 4)
        ([1, 2, 3, 4, 5], [{1, 2, 3}, {3, 4}, {1, 5}], "Q(5 1 2 3 4)"),
    ]
    for universe, sets, shape in cases:
        t = PQTree(universe)
        for s in sets:
            assert t.restrict(s)
        assert t.serialize() == shape
        assert frontier_set(t) == brute_consecutive(universe, sets)


def test_replaced_child_of_a_p_node_goes_to_its_right_end():
    # a child that takes another's place in a P-node goes to the right end,
    # as an added child does, not into the old child's slot
    cases = [
        # non-root P(1 2 3) becomes a partial Q inside its P parent
        (list(range(1, 8)), [{1, 2, 3}, {4, 5}, {3, 6}], "P(6 7 P(1 2 3) P(4 5))",
         "P(7 P(4 5) Q(P(1 2) 3 6))"),
        # the group P(1 2) of the pertinent root P(1 2 3)'s full children
        # joins the root at its right end
        (list(range(1, 8)), [{1, 2, 3}, {4, 5}, {1, 2, 3, 4, 5}, {1, 2}],
         "P(6 7 P(P(1 2 3) P(4 5)))", "P(6 7 P(P(3 P(1 2)) P(4 5)))"),
        # the pertinent root P(Q(1 2 3) 4) is left with one child, the
        # partial Q, which replaces it inside its P parent
        (list(range(1, 8)), [{1, 2}, {2, 3}, {1, 2, 3, 4}, {5, 6}, {3, 4}],
         "P(7 P(Q(1 2 3) 4) P(5 6))", "P(7 P(5 6) Q(1 2 3 4))"),
    ]
    for universe, sets, before, after in cases:
        t = PQTree(universe)
        for s in sets[:-1]:
            assert t.restrict(s)
        assert t.serialize() == before
        assert t.restrict(sets[-1])
        assert t.serialize() == after
        _check_links(t)
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
        _check_links(copy)
        assert copy.frontier() == t.frontier() == _preorder_leaves(t)
        before = t.serialize()
        assert copy.serialize() == before
        with pytest.raises(FrontierCapExceeded):
            enumerate_frontiers(t, 10)
    assert copy.restrict({n, n + 1}) and copy.serialize() != before
    assert t.serialize() == before


def test_frontier_of_an_empty_tree_is_empty():
    assert PQTree([]).frontier() == []


def test_restrict_refuses_a_label_outside_the_universe():
    # the refusal comes before any change, so the tree restricts on as a
    # fresh one does; every label plus one is as large as the universe
    universe = [1, 2, 3, 4]
    after = [{2, 3}, {1, 2, 3}, {3, 4}]
    for s in ({9}, {1, 9}, {x + 1 for x in universe}):
        t = PQTree(universe)
        before = t.serialize()
        with pytest.raises(ValueError):
            t.restrict(s)
        assert t.serialize() == before
        assert _restrict_run(t, after) == _restrict_run(PQTree(universe), after)


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


def test_brute_oriented_goldens():
    assert brute_oriented_consecutive_ones([1, 2, 3], [({1}, -1), ({3}, 1)]) == {(1, 2, 3)}
    assert brute_oriented_consecutive_ones([1, 2, 3], []) == set(itertools.permutations([1, 2, 3]))
    assert brute_oriented_consecutive_ones([1, 2], [({1}, -1), ({1}, 1)]) == set()


def test_brute_oriented_size_cap():
    with pytest.raises(OracleBudgetExceeded):
        brute_oriented_consecutive_ones(list(range(9)), [])


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
        _check_links(t)
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
        _check_links(t)
        nxt = frontier_set(t, 50000)
        assert nxt <= admissible
        admissible = nxt


SMALL_SETS = [frozenset(c) for k in (2, 3, 4) for c in itertools.combinations(range(1, 6), k)]


def _preorder_leaves(tree) -> list:
    """The frontier read by the generic preorder walk."""
    if tree._root is None:
        return []
    return [n.label for n in _preorder(tree._root) if n.kind == "L"]


def _check_every_sequence(make, universe, start, depth=3) -> int:
    """Replay every sequence of up to depth SMALL_SETS on a fresh make()
    and compare each restrict, and the frontier it leaves, with brute force
    and the preorder walk; returns how many sequences were checked.  A prefix's admissible orders are filtered by each next
    set, so brute force never starts again from all permutations."""
    checked = 0
    stack = [((), start)]
    while stack:
        prefix, admissible = stack.pop()
        for s in SMALL_SETS:
            seq = (*prefix, s)
            t = make()
            for r in prefix:
                t.restrict(r)
            expect = brute_consecutive(universe, [s], admissible)
            assert t.restrict(s) == bool(expect), [sorted(r) for r in seq]
            checked += 1
            if expect:
                assert frontier_set(t) == expect, [sorted(r) for r in seq]
                assert t.frontier() == _preorder_leaves(t), [sorted(r) for r in seq]
                if len(seq) < depth:
                    stack.append((seq, expect))
    return checked


def test_every_short_restrict_sequence_matches_brute():
    # random restricts rarely build a partial child at the head of a
    # non-root Q-node; on five labels, three restricts reach every such
    # shape, and two restricts, or four labels, do not
    universe = (1, 2, 3, 4, 5)
    assert _check_every_sequence(lambda: PQTree(universe), universe,
                                 set(itertools.permutations(universe))) == 16_275
    members = {*universe}
    pinned = (*universe, MARK_LEFT, MARK_RIGHT)
    start = brute_consecutive(pinned, [members | {MARK_LEFT}, members | {MARK_RIGHT}])
    assert _check_every_sequence(lambda: PQTree.pinned(universe), pinned, start) == 16_275


def _restrict_run(tree, sets):
    """Each restrict's result and the tree it leaves, up to the first
    failure, which spends the tree."""
    out = []
    for s in sets:
        ok = tree.restrict(s)
        out.append((ok, tree.serialize() if ok else None))
        if not ok:
            break
        _check_links(tree)
    return out


@given(restriction_sequences(), restriction_sequences(), st.lists(st.booleans(), max_size=14))
@settings(max_examples=100, deadline=None)
def test_interleaved_restricts_keep_each_tree_apart(case_a, case_b, turns):
    # two trees restricted by turns read every stamp from one counter; each
    # must end up as it does when restricted alone
    alone = [_restrict_run(PQTree(u), sets) for u, sets in (case_a, case_b)]
    trees = [PQTree(case_a[0]), PQTree(case_b[0])]
    todo = [list(case_a[1]), list(case_b[1])]
    got: list[list] = [[], []]
    for i in [int(x) for x in turns] + [0] * len(todo[0]) + [1] * len(todo[1]):
        if not todo[i] or (got[i] and not got[i][-1][0]):
            continue
        got[i] += _restrict_run(trees[i], [todo[i].pop(0)])
    assert got == alone


@st.composite
def adoptions(draw):
    universe = draw(label_universe)
    a, b = draw(st.lists(st.sampled_from(universe), min_size=2, max_size=2, unique=True))
    rest = [x for x in universe if x not in (a, b)]
    s = frozenset(draw(st.sets(st.sampled_from(rest), min_size=1, max_size=len(rest))))
    sets = st.frozensets(st.sampled_from(universe), min_size=2, max_size=len(universe))
    return (universe, draw(st.lists(sets, max_size=3)), s, a, b,
            draw(st.lists(sets, min_size=1, max_size=5)))


@given(adoptions())
@settings(max_examples=150, deadline=None)
def test_tree_that_adopted_a_clone_restricts_like_a_fresh_one(case):
    # orestrict adopts the nodes of a clone that its probe restrict already
    # stamped, so later stamps on this tree must never repeat that one
    universe, before, s, a, b, after = case
    t = PQTree(universe)
    if not all(t.restrict(x) for x in before):
        return
    branch = t.orestrict(s, a, b)
    if not branch:
        return
    _check_links(t)
    fresh = PQTree(universe)
    for x in before:
        assert fresh.restrict(x)
    assert fresh.restrict(s | {a if branch == 1 else b})
    assert fresh.serialize() == t.serialize()
    assert _restrict_run(t, after) == _restrict_run(fresh, after)


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
