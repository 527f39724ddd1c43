import collections
import hashlib
import importlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import (
    GenSpec,
    PQTree,
    build_certificate,
    check_perfect_substrings,
    compute_blocks,
    connected_components,
    generate,
    oracle_recognize,
    perfect_substring_bounds,
    probe_subgraph,
    recognize,
    sequence_from_iterable,
    tagged_graph,
    two_stretch_filter,
    verify_certificate,
)
from ptpig.pqtree import MARK_LEFT, MARK_RIGHT
from ptpig.proper import _stair, order_blocks
from ptpig.recognize import _CompState, _recorded_order, block_classes, block_window_candidates

from .conftest import (
    C4_CERT,
    EX22_STAIR,
    EX33_PROBE_STAIR,
    TABLE_CERT,
    searched_windows,
    serialize,
    shallow_stack,
    strip_markers,
)

# the module itself: the package's ``recognize`` attribute is the function
REC = importlib.import_module("ptpig.recognize")


# -- window primitives ---------------------------------------------------------


def test_perfect_substring_bounds_goldens():
    cs = sequence_from_iterable(EX22_STAIR)
    assert perfect_substring_bounds(cs, frozenset({2, 5, 6})) == (6, 8)
    assert perfect_substring_bounds(cs, frozenset({2, 3, 4, 5, 6})) == (4, 10)
    assert perfect_substring_bounds(cs, frozenset(range(1, 9))) == (1, 16)
    assert perfect_substring_bounds(cs, frozenset()) is None


@st.composite
def doubled_sequences(draw, max_m=10):
    """A sequence holding each of 1..m twice, and a nonempty subset of 1..m."""
    m = draw(st.integers(1, max_m))
    seq = draw(st.permutations([*range(1, m + 1)] * 2))
    nbrs = draw(st.sets(st.integers(1, m), min_size=1))
    return sequence_from_iterable(seq), frozenset(nbrs)


def reference_perfect_substring(seq, nbrs):
    """Leftmost maximal all-neighbor substring covering every neighbor."""
    n = len(seq)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            inside = seq[a - 1:b]
            maximal = (a == 1 or seq[a - 2] not in nbrs) and (b == n or seq[b] not in nbrs)
            if set(inside) == nbrs and maximal:
                return a, b
    return None


@given(doubled_sequences())
@settings(max_examples=300, deadline=None)
def test_perfect_substring_bounds_matches_reference(case):
    cs, nbrs = case
    assert perfect_substring_bounds(cs, nbrs) == reference_perfect_substring(cs.seq, nbrs)


def test_perfect_substring_absent(ex33):
    cs = sequence_from_iterable(EX33_PROBE_STAIR)
    assert perfect_substring_bounds(cs, frozenset({2, 4, 5})) is None
    assert perfect_substring_bounds(cs, frozenset({4, 5, 6})) is not None
    assert check_perfect_substrings(ex33, cs) == 7


def test_check_perfect_substrings_ok(ex36):
    assert check_perfect_substrings(ex36, sequence_from_iterable(EX22_STAIR)) is None


def test_block_neighbor_classes(ex36):
    rg = compute_blocks(probe_subgraph(ex36))

    def fw(w):
        return block_classes(rg, ex36.adj[w])[1]

    assert fw(9) == {2: 1, 4: 1, 5: 1}
    assert fw(10) == {2: 1, 3: 1, 4: 1, 5: 1}
    # vertex 11 sees only one of the twins {3,4}
    assert fw(11) == {3: 2, 4: 1, 5: 1, 6: 1, 7: 1}
    assert block_classes(rg, ex36.adj[11])[0][3] == {4}
    assert fw(13) == {}


def test_block_window_candidates():
    bcs = sequence_from_iterable((1, 2, 1, 3, 2, 3))
    assert block_window_candidates(bcs, {1: 2, 2: 1, 3: 2}) == {(1, 3)}
    # two partial blocks that read 1 3 at positions 1-2 and 3 1 at 3-4
    both = block_window_candidates(sequence_from_iterable((1, 3, 3, 1)), {1: 2, 3: 2})
    assert both == {(1, 3), (3, 1)}
    assert block_window_candidates(sequence_from_iterable((1, 1)), {1: 2}) == {(1, 1)}
    assert block_window_candidates(bcs, {}) == set()


def reference_block_windows(seq, fw):
    """Every (k1, k2, a, b) meeting block_window_candidates' conditions."""
    out = set()
    n = len(seq)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            inside = seq[a - 1:b]
            k1, k2 = seq[a - 1], seq[b - 1]
            if (
                all(k in fw for k in inside)
                and set(inside) == set(fw)
                and all(fw[k] == 1 or k in (k1, k2) for k in inside[1:-1])
            ):
                out.add((k1, k2, a, b))
    return out


@given(doubled_sequences(), st.data())
@settings(max_examples=300, deadline=None)
def test_block_window_candidates_match_reference(case, data):
    bcs, blocks = case
    partial = data.draw(st.sets(st.sampled_from(sorted(blocks)), min_size=1))
    fw = {k: 2 if k in partial else 1 for k in blocks}
    got = block_window_candidates(bcs, fw)
    assert got == {(k1, k2) for k1, k2, _, _ in reference_block_windows(bcs.seq, fw)}
    if len(partial) == 2:  # both partial blocks end every window
        assert all(k1 != k2 for k1, k2 in got)


# -- the role table -----------------------------------------------------------


def _component_state(p, edges):
    """The _CompState of a connected probe graph on 1..p."""
    pg = probe_subgraph(tagged_graph(p, 0, edges))
    rg = compute_blocks(pg)
    bo = order_blocks(pg, rg)
    assert bo.ends == [rg.t]
    return _CompState(rg, _stair(bo.order, bo.upper), bo.order, 0, p)


def _chain_edges(groups) -> set:
    """Twin blocks given as vertex groups, each joined completely to the
    next: the blocks are the groups, in this order up to reversal."""
    edges = set()
    for i, grp in enumerate(groups):
        nxt = groups[i + 1] if i + 1 < len(groups) else ()
        edges.update((min(a, b), max(a, b)) for a in grp for b in (*grp, *nxt) if a != b)
    return edges


def _chain_state(groups):
    return _component_state(sum(map(len, groups)), _chain_edges(groups))


def _block_trees(state) -> dict:
    """Each constrained block's tree, serialized; a block's one recorded
    constraint is replayed on a fresh pinned tree."""
    out = {}
    for k, tree in state.trees.items():
        if not isinstance(tree, PQTree):
            s, tree = tree, PQTree.pinned(state.rg.blocks[k - 1])
            assert tree.restrict(s)
        out[k] = serialize(tree)
    return out


# the block stair sequences read 1 2 1 3 2 3 (ENDS, MIDDLE), 3 2 3 1 2 4 1 4
# (ENDS_PLUS) and 2 1 2 3 1 3 (FLIPPED)
ENDS = [(1, 2, 3), (4,), (5, 6, 7)]  # blocks 1 = {1, 2, 3}, 2 = {4}, 3 = {5, 6, 7}
MIDDLE = [(1,), (2, 3, 4), (5,)]  # block 2 = {2, 3, 4}
ENDS_PLUS = [(8,), (1, 2, 3), (4,), (5, 6, 7)]  # block 1 = {1, 2, 3} now sits right
FLIPPED = [(4, 5, 6), (1, 2, 3), (7,)]  # block 2 = {4, 5, 6} sits left of block 1

# (row, chain, w's neighbours, window pairs, deferred entries, block trees);
# w is the nonprobe p + 1
LOCAL_ROWS = [
    ("first-only", ENDS, {3, 4, 5, 6, 7}, {(1, 2), (1, 3)}, [], {1: "Q(⊢ P(1 2) 3 ⊣)"}),
    ("last-only", ENDS, {1, 2, 3, 4, 5}, {(2, 3), (1, 3)}, [], {3: "Q(⊢ 5 P(6 7) ⊣)"}),
    ("first-or-last", MIDDLE, {4, 5}, {(2, 3), (3, 2)}, [(6, 2, {4})], {}),
    ("spanning-k-to-k", ENDS, {3, 4}, {(1, 1), (1, 2), (2, 1)}, [], {1: "Q(⊢ P(3 P(1 2)) ⊣)"}),
    ("inside-one-occurrence", ENDS, {2, 3}, {(1, 1)}, [], {1: "Q(⊢ P(1 P(2 3)) ⊣)"}),
    ("two-forward", ENDS, {3, 4, 5}, {(1, 3)}, [],
     {1: "Q(⊢ P(1 2) 3 ⊣)", 3: "Q(⊢ 5 P(6 7) ⊣)"}),
    ("two-backward", ENDS_PLUS, {3, 4, 5}, {(3, 1)}, [],
     {1: "Q(⊢ 3 P(1 2) ⊣)", 3: "Q(⊢ P(6 7) 5 ⊣)"}),
    ("two-both-ways", FLIPPED, {3, 6}, {(1, 2), (2, 1)}, [(8, 1, {3}), (8, 2, {6})], {}),
]


@pytest.mark.parametrize("row,groups,nbrs,pairs,deferred,trees", LOCAL_ROWS,
                         ids=[r[0] for r in LOCAL_ROWS])
def test_local_role_table(row, groups, nbrs, pairs, deferred, trees):
    state = _chain_state(groups)
    w = state.size + 1
    assert block_window_candidates(state.bcs, block_classes(state.rg, nbrs)[1]) == pairs
    assert state.constrain_local(w, frozenset(nbrs)) is None
    assert state.deferred == deferred
    assert _block_trees(state) == trees


# eating the left end, the partial block is the window's last block there,
# so its neighbours form a prefix; eating the right end, a suffix
BOUNDARY_ROWS = [
    ("left-end", ENDS, {1, 2, 3, 4, 5}, {3: "Q(⊢ 5 P(6 7) ⊣)"}),
    ("right-end", ENDS, {3, 4, 5, 6, 7}, {1: "Q(⊢ P(1 2) 3 ⊣)"}),
    ("right-end-middle", MIDDLE, {4, 5}, {2: "Q(⊢ P(2 3) 4 ⊣)"}),
    # a complete component: resolve_circular reads the boundary set itself
    ("both-ends-one-block", [(1, 2, 3)], {3}, {}),
]


@pytest.mark.parametrize("row,groups,nbrs,trees", BOUNDARY_ROWS,
                         ids=[r[0] for r in BOUNDARY_ROWS])
def test_boundary_role_table(row, groups, nbrs, trees):
    state = _chain_state(groups)
    assert state.constrain_boundary(state.size + 1, frozenset(nbrs)) is None
    assert state.deferred == []
    assert _block_trees(state) == trees
    assert state.boundary_ws == [(state.size + 1, frozenset(nbrs))]


def test_recorded_order_is_the_pinned_tree_after_one_restrict():
    # every block of up to 6 members, in two orders, every ∅ ≠ s ⊊ U, as a
    # suffix, a prefix or a lone set of two or more
    cases = 0
    for n in range(2, 7):
        for members in (tuple(range(1, n + 1)), (*range(2, n + 1, 2), *range(1, n + 1, 2))):
            for r in range(1, n):
                for s in itertools.combinations(members, r):
                    for extra in ({MARK_RIGHT}, {MARK_LEFT}, set()):
                        got = frozenset(s) | extra
                        if len(got) < 2:
                            continue
                        tree = PQTree.pinned(members)
                        assert tree.restrict(got)
                        assert _recorded_order(members, got) == strip_markers(tree.frontier())
                        cases += 1
    assert cases == 3 * 2 * sum(2**n - 2 for n in range(2, 7)) - 2 * sum(range(2, 7))
    # a set of fewer than two labels constrains nothing and is not recorded
    state = _chain_state(ENDS)
    for s in (frozenset(), frozenset({2}), frozenset({MARK_LEFT})):
        assert state._restrict(1, s) is None
    assert state.trees == {}


def _count_pinned(monkeypatch) -> list:
    built = []
    pinned = PQTree.pinned.__func__

    def spy(cls, members):
        built.append(members)
        return pinned(cls, members)

    monkeypatch.setattr(PQTree, "pinned", classmethod(spy))
    return built


def test_a_block_gets_a_tree_only_at_its_second_constraint(monkeypatch):
    built = _count_pinned(monkeypatch)
    edges = _chain_edges(ENDS)
    # nonprobe 8 takes a suffix of block 1 = {1, 2, 3}, 9 a prefix of block
    # 3 = {5, 6, 7}: one constraint on each, and no tree
    one = [(u, 8) for u in (3, 4, 5, 6, 7)] + [(u, 9) for u in (1, 2, 3, 4, 5)]
    g = tagged_graph(7, 2, edges | set(one))
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert built == []
    # nonprobe 10 takes a second suffix of block 1: its tree, and no other
    g = tagged_graph(7, 3, edges | set(one) | {(u, 10) for u in (2, 3, 4, 5, 6, 7)})
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert built == [(1, 2, 3)]
    assert res.certificate[10] == perfect_substring_bounds(res.sequence, g.adj[10])


@st.composite
def proper_components(draw, max_p=7):
    """A connected proper interval graph: intervals of one length whose left
    ends, in order, are at most that length apart, under random labels."""
    p = draw(st.integers(2, max_p))
    length = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(0, length), min_size=p - 1, max_size=p - 1))
    los = [sum(gaps[:i]) for i in range(p)]
    label = draw(st.permutations(range(1, p + 1)))
    edges = [(label[i], label[j]) for i in range(p) for j in range(i + 1, p)
             if los[j] - los[i] <= length]
    return p, edges


def _end_sets(state) -> tuple[set, set]:
    """Every set that is the perfect run at the left end, and every one at
    the right end, of the component's vertex sequence under some order of
    each block's members, by trying all of those orders."""
    bseq = state.bcs.seq[state.first - 1:state.last]
    lefts, rights = set(), set()
    blocks = [itertools.permutations(state.rg.blocks[k - 1]) for k in state.border]
    for orders in itertools.product(*blocks):
        sigma = dict(zip(state.border, orders))
        seq = [v for k in bseq for v in sigma[k]]
        for run, ends in ((seq, lefts), (seq[::-1], rights)):
            s = set()
            for v, nxt in zip(run, run[1:]):
                s.add(v)
                if nxt not in s:
                    ends.add(frozenset(s))
    return lefts, rights


def _check_end_sets(p, edges) -> None:
    """On a complete component every ∅ ≠ s ⊊ V is the perfect run at both
    ends.  On a chain of two or more blocks none is, which is what lets
    constrain_boundary restrict at once, with no either-end flush: it
    accepts exactly the sets at an end and pins their partial block toward
    that end."""
    state = _component_state(p, edges)
    lefts, rights = _end_sets(state)
    for r in range(1, p):
        for nbrs in map(frozenset, itertools.combinations(range(1, p + 1), r)):
            if state.t == 1:
                assert nbrs in lefts and nbrs in rights
                continue
            assert not (nbrs in lefts and nbrs in rights), nbrs
            fresh = _CompState(state.rg, state.bcs, state.border, 0, p)
            ok = fresh.constrain_boundary(p + 1, nbrs) is None
            assert ok == (nbrs in lefts or nbrs in rights), nbrs
            assert fresh.deferred == []
            for s in fresh.trees.values():
                assert s - nbrs == {MARK_LEFT if nbrs in lefts else MARK_RIGHT}


@given(proper_components())
@settings(max_examples=150, deadline=None)
def test_boundary_sets_eat_both_ends_only_of_one_block(case):
    _check_end_sets(*case)


def _small_chains() -> list:
    """(p, edges) of connected proper interval graphs on 2-7 probes with two
    or more twin blocks, each once: what generate plants and every chain of
    _chain_edges, each as numbered and under one seeded relabelling."""
    rng = random.Random(2016)
    graphs = []
    for p in range(2, 8):
        for seed in range(60):
            g, _ = generate(GenSpec(p, 0, seed=seed, overlap=(0.3, 0.6, 0.9)[seed % 3]))
            graphs.append((p, {(u, v) for u in range(1, p + 1) for v in g.adj[u] if u < v}))
        for cuts in itertools.product((False, True), repeat=p - 1):
            groups = [[1]]
            for v, cut in zip(range(2, p + 1), cuts):
                if cut:
                    groups.append([])
                groups[-1].append(v)
            graphs.append((p, _chain_edges(groups)))
    out = {}
    for p, edges in graphs:
        label = [0, *rng.sample(range(1, p + 1), p)]
        for es in (edges, {tuple(sorted((label[u], label[v]))) for u, v in edges}):
            if compute_blocks(probe_subgraph(tagged_graph(p, 0, es))).t >= 2:
                out[p, frozenset(es)] = None
    return list(out)


def test_no_set_is_the_run_at_both_ends_of_a_chain():
    graphs = _small_chains()
    assert len(graphs) >= 300
    for p, edges in graphs:
        _check_end_sets(p, edges)


def test_flushed_blocks_sit_at_the_ends_of_a_chain():
    # _readings reverses only the blocks that carry a flush; at border
    # positions 1, 2, t - 1 and t there are at most four of them, so at
    # most 16 readings
    flushed = 0
    for p, edges in _small_chains():
        state = _component_state(p, edges)
        t = state.t
        for r in range(2, p + 1):
            for nbrs in map(frozenset, itertools.combinations(range(1, p + 1), r)):
                fresh = _CompState(state.rg, state.bcs, state.border, 0, p)
                fresh.constrain_local(p + 1, nbrs)
                for _, k, _ in fresh.deferred:
                    assert state.border.index(k) + 1 in (1, 2, t - 1, t), (edges, nbrs)
                flushed += len(fresh.deferred)
    assert flushed >= 100


# -- golden verdicts -----------------------------------------------------------


def test_accepts_table_instance(ex36):
    res = recognize(ex36)
    assert res.accepted
    assert res.sequence.seq in (EX22_STAIR, tuple(reversed(EX22_STAIR)))
    assert res.certificate == TABLE_CERT
    assert verify_certificate(ex36, res.certificate) is None


def test_rejects_missing_window(ex33):
    res = recognize(ex33)
    assert not res.accepted
    assert res.reason == "A1_FAIL" and res.witness == 7


def test_twin_free_windows_take_linear_time():
    # probes form a path and one nonprobe sees all of them.  Trying every
    # start of its 2n-long stretch would take about 4n^2 steps, minutes at
    # this size; one perfect-substring scan takes well under a second.
    n = 20_000
    edges = [(i, i + 1) for i in range(1, n)] + [(i, n + 1) for i in range(1, n + 1)]
    t0 = time.perf_counter()
    res = recognize(tagged_graph(n, 1, edges))
    assert res.accepted and time.perf_counter() - t0 < 10


def test_partial_block_windows_take_linear_time():
    # probes a = [1, 3.5] and b = [2, 4.5] are twins, v_i = [2i+1, 2i+4]
    # form a path, and one nonprobe on [3.7, 2n+4.5] eats b but not a, and
    # the whole path.  Scanning from every start of its stretch would take
    # about 4n^2 steps; scanning out from the twin block's two occurrences
    # takes O(n).
    n = 8_000
    w = n + 3
    edges = [(1, 2), (1, 3), (2, 3), (2, w)]
    edges += [(i + 2, i + 3) for i in range(1, n)] + [(i + 2, w) for i in range(1, n + 1)]
    g = tagged_graph(n + 2, 1, edges)
    t0 = time.perf_counter()
    res = recognize(g)
    assert res.accepted and time.perf_counter() - t0 < 10
    assert verify_certificate(g, res.certificate) is None


def _accepts_within_10s(g):
    t0 = time.perf_counter()
    res = recognize(g)
    assert res.accepted and time.perf_counter() - t0 < 10
    assert verify_certificate(g, res.certificate) is None


def test_middle_out_arrangement_takes_linear_time():
    # r isolated probes; nonprobe j sees probes i_j and i_j + 1, with i_j
    # going out from r/2 on alternating sides, so the arrangement tree's one
    # Q-node grows at both ends.  Reversing it whenever its full end is on
    # the left costs Θ(r²).
    r = 48_000
    mid = r // 2
    starts = [mid] + [i for k in range(1, mid) for i in (mid - k, mid + k)]
    edges = [(u, r + j) for j, i in enumerate(starts, 1) for u in (i, i + 1)]
    _accepts_within_10s(tagged_graph(r, r - 1, edges))


def test_right_to_left_pairs_take_linear_time():
    # components {2c - 1, 2c}; nonprobe j sees probes 2c and 2c + 1 for
    # c = r - j, so each new pair joins the arrangement's Q-node at its full
    # end on the left, and the longer partial must take in the shorter one
    r = 16_000
    edges = [(2 * c - 1, 2 * c) for c in range(1, r + 1)]
    edges += [(u, 2 * r + j) for j in range(1, r) for u in (2 * (r - j), 2 * (r - j) + 1)]
    _accepts_within_10s(tagged_graph(2 * r, r - 1, edges))


def test_twin_nonprobes_take_linear_time():
    # twin block K = {1..b}, x adjacent to K, y adjacent to x, and b²/4
    # nonprobes on {1, x}: each one restricts the b - 1 complement of its
    # neighbours in K, so every twin after the first must be skipped
    b = 600
    x, y, q = b + 1, b + 2, b * b // 4
    edges = [(u, v) for u in range(1, x) for v in range(u + 1, x + 1)] + [(x, y)]
    edges += [(u, y + j) for j in range(1, q + 1) for u in (1, x)]
    _accepts_within_10s(tagged_graph(y, q, edges))


def test_repeated_boundary_sets_take_linear_time():
    # probes 1..b form K_b, probes b+1..b+B are isolated, and nonprobe j
    # sees probes 1 and b + j: a no-instance, since one end of K_b can touch
    # only one other component.  Every boundary set on K_b is {1}, whose
    # complement restrict costs b - 1 once per nonprobe unless repeats are
    # dropped: Θ(B·b), about 40 s here
    b, B = 800, 60_000
    edges = [(u, v) for u in range(1, b + 1) for v in range(u + 1, b + 1)]
    edges += [(u, b + B + j) for j in range(1, B + 1) for u in (1, b + j)]
    g = tagged_graph(b + B, B, edges)
    t0 = time.perf_counter()
    res = recognize(g)
    assert time.perf_counter() - t0 < 10
    assert (res.reason, res.witness) == ("MARKER_PQ_INFEASIBLE", b + B + 2)


def _circular_restricts(monkeypatch) -> list:
    """(block, boundary sets?, restricted sets) of every settle call on a
    complete component that restricts, in the order recognize makes them."""
    calls: list = []
    current: list = []
    restrict, settle = PQTree.restrict, _CompState.settle

    def spy_restrict(tree, s):
        if current:
            current[-1].append(frozenset(s))
        return restrict(tree, s)

    def spy_settle(state):
        if state.t > 1:
            return settle(state)
        current.append([])
        try:
            return settle(state)
        finally:
            sets = current.pop()
            if sets:
                calls.append((state.rg.blocks[state.border[0] - 1], bool(state.boundary_ws), sets))

    monkeypatch.setattr(PQTree, "restrict", spy_restrict)
    monkeypatch.setattr(_CompState, "settle", spy_settle)
    return calls


def _anchor_cost(x, n: int, sets) -> int:
    """Leaves the sets cost anchored at x: each set holding x is restricted
    as its complement.  A set and its complement cost the same, so this
    reads the sets as given or as restricted alike."""
    return sum(n - len(s) if x in s else len(s) for s in sets)


def test_circular_restricts_take_the_cheapest_anchor(monkeypatch):
    # on every complete component, the leaves restricted are the fewest any
    # member can give as the anchor: K_m with nested nonprobes, K_m with
    # seeded arcs of a seeded circular order, and seeded planted components,
    # whose complete ones carry boundary sets as well
    calls = _circular_restricts(monkeypatch)
    rng = random.Random(20_161_019)
    m = 60
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    graphs = [tagged_graph(m, m, edges + [(i, m + k) for k in range(1, m + 1)
                                          for i in range(1, k + 1)])]
    for _ in range(60):
        m, q = rng.randint(3, 30), rng.randint(1, 20)
        sigma = rng.sample(range(1, m + 1), m)
        arcs = []
        for w in range(m + 1, m + q + 1):
            start, length = rng.randrange(m), rng.randint(1, m - 1)
            arcs += [(sigma[(start + i) % m], w) for i in range(length)]
        graphs.append(tagged_graph(m, q, [(i, j) for i in range(1, m + 1)
                                          for j in range(i + 1, m + 1)] + arcs))
    for _ in range(240):
        graphs.append(_planted_components(rng, [rng.randint(1, 8)
                                                for _ in range(rng.randint(2, 6))])[0])
    for g in graphs:
        res = recognize(g)
        assert res.accepted and verify_certificate(g, res.certificate) is None
    assert len(calls) >= 150 and sum(boundary for _, boundary, _ in calls) >= 50
    for members, _, sets in calls:
        n = len(members)
        assert sum(map(len, sets)) == min(_anchor_cost(x, n, sets) for x in members)
    # nested: w_k's set is probes 1..k, so the middle probe is the anchor
    members, _, sets = calls[0]
    assert sum(map(len, sets)) == sum(min(k, 60 - k) for k in range(2, 60))


def test_arcs_through_one_probe_take_linear_time(monkeypatch):
    # probes K_b, and one nonprobe on every arc of length 2..k of the circle
    # 1..b that holds probe 1.  Anchored at probe 1, each arc would be
    # restricted as its complement, b - |s| leaves: 1,389,391 here, against
    # Σ|s| = 73,809
    b, k = 800, 60
    edges = [(u, v) for u in range(1, b + 1) for v in range(u + 1, b + 1)]
    w = b
    for length in range(2, k + 1):
        for start in range(2 - length, 2):
            w += 1
            edges += [((start + i - 1) % b + 1, w) for i in range(length)]
    g = tagged_graph(b, w - b, edges)
    leaves = [0]
    restrict = PQTree.restrict

    def spy(tree, s):
        leaves[0] += len(s)
        return restrict(tree, s)

    monkeypatch.setattr(PQTree, "restrict", spy)
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert leaves[0] <= 2 * sum(len(g.adj[w]) for w in range(b + 1, g.n + 1))


def test_either_end_flushes_never_clone(monkeypatch):
    # blocks {1, 4}, {2, 5} and {3}; nonprobe 6 sees {4, 5}, which may read
    # forwards or backwards across the two blocks: two deferred flushes, and
    # settle must reverse a block
    def cloned(*args, **kwargs):
        raise AssertionError("cloned")

    monkeypatch.setattr(PQTree, "clone", cloned)
    monkeypatch.setattr(PQTree, "orestrict", cloned)
    g = tagged_graph(5, 1, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
                            (3, 4), (4, 5), (4, 6), (5, 6)])
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None

    # twin-heavy instances, some with deferred flushes: every planted one
    # is accepted, and every accepted one certified
    settle = _CompState.settle
    flushed = []

    def counted(self):
        flushed.append(bool(self.deferred))
        return settle(self)

    monkeypatch.setattr(_CompState, "settle", counted)
    for seed in range(300):
        g, planted = generate(GenSpec(5 + seed % 20, 4, seed=seed, overlap=0.95, span=0.3,
                                      perturb=int(seed % 3 == 2)))
        res = recognize(g)
        assert res.accepted or planted is None
        assert not res.accepted or verify_certificate(g, res.certificate) is None
    assert sum(flushed) >= 50


def test_rejects_claw_probe_part(g1):
    res = recognize(g1)
    assert not res.accepted and res.reason == "PROBE_NOT_PROPER"


def test_rejects_nonprobe_edge():
    res = recognize(tagged_graph(2, 2, [(1, 2), (3, 4)]))
    assert (res.accepted, res.reason, res.edge) == (False, "NONPROBE_EDGE", (3, 4))


def test_accepts_claw_with_nonprobe_center():
    g = tagged_graph(3, 1, [(4, 1), (4, 2), (4, 3)])
    res = recognize(g)
    assert res.accepted
    assert res.certificate == {1: (1, 2), 2: (3, 4), 3: (5, 6), 4: (1, 6)}
    assert verify_certificate(g, res.certificate) is None


def test_accepts_c4_with_nonprobe(c4):
    res = recognize(c4)
    assert res.accepted and verify_certificate(c4, res.certificate) is None
    assert verify_certificate(c4, C4_CERT) is None


def test_accepts_bridge_between_components():
    g = tagged_graph(4, 1, [(1, 2), (3, 4), (5, 2), (5, 3)])
    res = recognize(g)
    assert res.accepted
    assert res.sequence.seq == (1, 2, 1, 2, 3, 4, 3, 4)
    assert res.certificate == {1: (1, 3), 2: (2, 4), 3: (5, 7), 4: (6, 8), 5: (4, 5)}


def test_accepts_component_swallowed_whole():
    # nonprobe covers all of component {1,2} and reaches into {3,4}
    g = tagged_graph(4, 1, [(1, 2), (3, 4), (5, 1), (5, 2), (5, 3)])
    res = recognize(g)
    assert res.accepted
    assert verify_certificate(g, res.certificate) is None
    assert oracle_recognize(g)


def test_boundary_set_at_neither_end_tries_the_next_reading(monkeypatch):
    # a yes-instance whose first settled reading leaves nonprobe 12's set in
    # its component at neither end: the end check must say so, and settle
    # then tries the next reading, on which the set's one neighbour there
    # takes the left end
    edges = [(2, 3), (2, 6), (2, 7), (2, 10), (2, 13), (3, 6), (3, 7), (3, 10), (3, 11),
             (3, 13), (4, 5), (4, 8), (4, 9), (4, 12), (5, 8), (5, 9), (5, 12), (6, 7), (6, 12),
             (6, 13), (7, 11), (7, 13), (8, 9), (8, 12), (9, 12), (10, 13)]
    g = tagged_graph(10, 3, edges)
    side = REC._vertex_side
    sides = []

    def spy(vcs, nbrs):
        sides.append(side(vcs, nbrs))
        return sides[-1]

    monkeypatch.setattr(REC, "_vertex_side", spy)
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert sides == [None, (1, 1)]


def test_accepts_probe_free_graph():
    g = tagged_graph(0, 2, [])
    res = recognize(g)
    assert res.accepted
    assert verify_certificate(g, res.certificate) is None


def test_accepts_empty_graph():
    assert recognize(tagged_graph(0, 0, [])).accepted


# Regression pins: frozen random instances, one per reject path, each
# confirmed non-PTPIG by exhaustive search when frozen.
REJECT_PINS = [
    ("B1_FAIL", 6, 1,
     [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7),
      (3, 5), (3, 7), (4, 5), (4, 6), (5, 6)], 7),
    ("FINAL_CHECK_FAIL", 6, 3,
     [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5),
      (2, 6), (2, 7), (2, 9), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9),
      (4, 5), (4, 8), (4, 9), (5, 6), (5, 9), (6, 7), (6, 9)], 9),
    ("MARKER_PQ_INFEASIBLE", 5, 3,
     [(1, 2), (1, 4), (1, 5), (1, 7), (2, 4), (2, 5), (2, 6), (3, 7), (3, 8),
      (4, 5), (4, 8), (5, 6), (5, 8)], 8),
    ("CASE3", 6, 1,
     [(1, 6), (2, 4), (3, 5), (3, 7), (4, 7), (6, 7)], 7),
    ("CASE4", 6, 1,
     [(1, 3), (1, 4), (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 7), (6, 7)], 7),
]


@pytest.mark.parametrize("reason,p,q,edges,witness", REJECT_PINS, ids=[r[0] for r in REJECT_PINS])
def test_reject_reason_pins(reason, p, q, edges, witness):
    res = recognize(tagged_graph(p, q, edges))
    assert not res.accepted
    assert res.reason == reason and res.witness == witness


def test_three_partial_blocks_reject():
    # nonprobe partial on three blocks: every window has a partial interior,
    # so the window scan itself comes up empty
    edges = [(1, 2), (3, 4), (5, 6),
             (1, 3), (1, 4), (2, 3), (2, 4),
             (3, 5), (3, 6), (4, 5), (4, 6),
             (7, 1), (7, 3), (7, 5)]
    res = recognize(tagged_graph(6, 1, edges))
    assert not res.accepted and res.reason == "B1_FAIL"
    assert not oracle_recognize(tagged_graph(6, 1, edges))


def item2_instance():
    """K2 plus K11 with eight nonprobes, and its planted certificate.

    A yes-instance on which a capped search over the reading of each
    neighbor set gave up and rejected (FINAL_CHECK_FAIL n8).
    """
    cert = {1: (1, 3), 2: (2, 4)}
    cert.update({v: (v + 2, v + 13) for v in range(3, 14)})
    nbrs = [
        {3, 4, 5, 6, 7, 8, 13}, {3, 6, 7, 8, 9, 10, 11, 12, 13},
        set(range(6, 14)), set(range(5, 14)), {3, 4, 5, 6},
        {1, 2, 3, 4, 5, 6}, set(range(9, 14)), {3, 4, 12, 13},
    ]
    wins = [(15, 21), (8, 16), (19, 26), (18, 26), (5, 8), (3, 8), (22, 26), (14, 17)]
    edges = [(1, 2)] + [(u, v) for u in range(3, 14) for v in range(u + 1, 14)]
    for w, (ns, iv) in enumerate(zip(nbrs, wins), start=14):
        cert[w] = iv
        edges.extend((u, w) for u in ns)
    return tagged_graph(13, 8, edges), cert


def test_item2_planted_certificate_verifies():
    g, cert = item2_instance()
    assert verify_certificate(g, cert) is None


def test_item2_instance_accepted():
    g, _ = item2_instance()
    res = recognize(g)
    assert res.accepted
    assert verify_certificate(g, res.certificate) is None


def test_clique_component_with_repeated_boundary_sets():
    # built from planted intervals: probe-probe edges where they intersect,
    # probe-nonprobe edges where the nonprobe holds a probe endpoint; the
    # four nonprobes that see exactly probe 4 on the K4 give a search over
    # readings of each set more than 64 nodes
    probes = [(1, 10), (2, 12), (3, 13), (7, 18), (21, 22)]
    nonprobes = [(3, 11), (17, 19), (16, 20), (15, 20), (4, 8), (1, 6), (3, 9), (2, 5), (14, 23)]
    iv = dict(enumerate(probes + nonprobes, start=1))
    p = len(probes)
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)
             if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1])]
    edges += [(u, w) for w in range(p + 1, len(iv) + 1) for u in range(1, p + 1)
              if any(iv[w][0] <= x <= iv[w][1] for x in iv[u])]
    assert len(edges) == 22
    g = tagged_graph(p, len(nonprobes), edges)
    assert verify_certificate(g, iv) is None
    res = recognize(g)
    assert res.accepted and oracle_recognize(g)
    assert verify_certificate(g, res.certificate) is None


def test_pinned_clique_needs_no_deep_recursion():
    # K_m plus an isolated probe; nonprobes on {1..k} for k = 2..m-2 wrap
    # on the clique, and one on {m, m+1} pins its seam
    m = 300
    edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    w = m + 1
    for k in range(2, m - 1):
        w += 1
        edges.extend((u, w) for u in range(1, k + 1))
    w += 1
    edges.extend([(m, w), (m + 1, w)])
    g = tagged_graph(m + 1, w - m - 1, edges)
    with shallow_stack(150):
        res = recognize(g)
    assert res.accepted
    assert verify_certificate(g, res.certificate) is None


# -- certificates --------------------------------------------------------------


def test_build_certificate_identity(ex36):
    cs = sequence_from_iterable(EX22_STAIR)
    assert build_certificate(ex36, cs, searched_windows(ex36, cs)) == TABLE_CERT
    with pytest.raises(TypeError):
        build_certificate(ex36, cs)  # windows are read, never searched


def test_build_certificate_rejects_missing_window(ex33):
    cs = sequence_from_iterable(EX33_PROBE_STAIR)
    with pytest.raises(ValueError, match="nonprobe 7"):
        build_certificate(ex33, cs, searched_windows(ex33, cs))


def test_build_certificate_parks_isolated_nonprobes():
    g = tagged_graph(2, 2, [(1, 2), (3, 1)])
    cs = sequence_from_iterable((1, 2, 1, 2))
    cert = build_certificate(g, cs, searched_windows(g, cs))
    assert cert[4] == (5, 5)  # one past the probe endpoints
    assert verify_certificate(g, cert) is None


def test_verify_rejects_tampering(ex36):
    bad = dict(TABLE_CERT)
    bad[1] = (1, 20)
    assert verify_certificate(ex36, bad) == ("containment", 1, 2)


def test_verify_missing_or_inverted(ex36):
    partial = {v: iv for v, iv in TABLE_CERT.items() if v != 14}
    assert verify_certificate(ex36, partial) == ("missing-interval", 14, 14)
    flipped = dict(TABLE_CERT)
    flipped[2] = (7, 2)
    assert verify_certificate(ex36, flipped) == ("missing-interval", 2, 2)


def test_verify_rejects_unknown_vertices(ex36):
    extra = dict(TABLE_CERT)
    extra[99] = (5, 6)
    assert verify_certificate(ex36, extra) == ("unknown-vertex", 99, 99)
    extra[0] = (1, 1)
    assert verify_certificate(ex36, extra) == ("unknown-vertex", 0, 0)
    # keys that are no number: the first one given, after any stray number
    g = tagged_graph(1, 0, [])
    assert verify_certificate(g, {1: (1, 2), "x": (1, 1)}) == ("unknown-vertex", "x", "x")
    assert verify_certificate(g, {"x": (1, 1), 1: (1, 2), 9: (3, 4), 0: (5, 6)}) == ("unknown-vertex", 0, 0)
    assert verify_certificate(g, {"y": (3, 4), 1: (1, 2), "x": (1, 1)}) == ("unknown-vertex", "y", "y")


def test_verify_probe_adjacency_both_ways():
    g = tagged_graph(2, 0, [(1, 2)])
    assert verify_certificate(g, {1: (1, 2), 2: (5, 6)}) == ("probe-adjacency", 1, 2)
    h = tagged_graph(2, 0, [])
    assert verify_certificate(h, {1: (1, 3), 2: (2, 4)}) == ("probe-adjacency", 1, 2)


def test_verify_tag_adjacency():
    g = tagged_graph(1, 1, [(1, 2)])
    assert verify_certificate(g, {1: (1, 2), 2: (5, 6)}) == ("tag-adjacency", 2, 1)
    # covering an endpoint of a non-neighbor is just as wrong
    h = tagged_graph(2, 1, [(1, 2), (3, 1)])
    assert verify_certificate(h, {1: (1, 3), 2: (2, 4), 3: (1, 4)}) == ("tag-adjacency", 3, 2)


def test_verify_nonprobe_edge():
    g = tagged_graph(1, 2, [(2, 3)])
    cert = {1: (1, 2), 2: (3, 3), 3: (4, 4)}
    assert verify_certificate(g, cert) == ("independence", 2, 3)


def test_verify_tolerates_equal_intervals():
    g = tagged_graph(2, 0, [(1, 2)])
    assert verify_certificate(g, {1: (1, 2), 2: (1, 2)}) is None


# -- engine properties ---------------------------------------------------------


@st.composite
def tagged_instances(draw, max_p=6, max_q=2):
    p = draw(st.integers(1, max_p))
    q = draw(st.integers(0, max_q))
    pool = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    pool += [(i, w) for i in range(1, p + 1) for w in range(p + 1, p + q + 1)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool)) if pool else st.just(set()))
    return tagged_graph(p, q, edges)


@given(tagged_instances())
@settings(max_examples=200, deadline=None)
def test_matches_oracle(g):
    res = recognize(g)
    assert res.accepted == oracle_recognize(g)
    if res.accepted:
        assert verify_certificate(g, res.certificate) is None


def all_perfect_windows(seq, nbrs):
    out = []
    n = len(seq)
    for i in range(n):
        if seq[i] not in nbrs:
            continue
        seen = set()
        for j in range(i, n):
            if seq[j] not in nbrs:
                break
            seen.add(seq[j])
            if len(seen) == len(nbrs):
                out.append((i + 1, j + 1))
    return out


@given(tagged_instances())
@settings(max_examples=200, deadline=None)
def test_no_two_disjoint_windows_when_reduced(g):
    res = recognize(g)
    if not res.accepted:
        return
    pg = probe_subgraph(g)
    if len(connected_components(pg).components) != 1 or compute_blocks(pg).t != pg.n:
        return
    seq = res.sequence.seq
    for w in range(g.p + 1, g.n + 1):
        nbrs = set(g.adj[w])
        if len(nbrs) < 2:
            continue
        wins = [iv for iv in all_perfect_windows(seq, nbrs) if iv[1] > iv[0]]
        wins.sort()
        for a in range(len(wins)):
            for b in range(a + 1, len(wins)):
                assert wins[b][0] <= wins[a][1]  # no disjoint pair


@given(tagged_instances())
@settings(max_examples=150, deadline=None)
def test_reversed_sequence_also_certifies(g):
    res = recognize(g)
    if not res.accepted:
        return
    rev = sequence_from_iterable(reversed(res.sequence.seq))
    assert verify_certificate(g, build_certificate(g, rev, searched_windows(g, rev))) is None


@given(tagged_instances())
@settings(max_examples=150, deadline=None)
def test_accepts_pass_two_stretch(g):
    res = recognize(g)
    if not res.accepted:
        return
    order = list(dict.fromkeys(res.sequence.seq))
    assert two_stretch_filter(g, order) is None


# -- output digest -------------------------------------------------------------


def _planted_components(rng, sizes):
    """Planted instance: components from ``generate`` laid side by side, one
    free slot apart, plus windows that may cross the gaps, under a random
    renumbering of the probes and of the nonprobes.  Edges follow from the
    intervals, so the intervals are a certificate."""
    probes, windows, off = [], [], 0
    for s in sizes:
        _, cert = generate(GenSpec(s, rng.randint(0, s), seed=rng.randrange(2**32),
                                   overlap=rng.random(), span=rng.choice((0.05, 0.3))))
        shifted = [(v, (lo + off, hi + off)) for v, (lo, hi) in sorted(cert.items())]
        probes += [iv for v, iv in shifted if v <= s]
        windows += [iv for v, iv in shifted if v > s]
        off += 2 * s + 2
    for _ in range(len(sizes)):
        lo = rng.randint(1, off)
        windows.append((lo, min(off, lo + rng.randint(0, 12))))
    p, q = len(probes), len(windows)
    pnum = rng.sample(range(1, p + 1), p)
    wnum = rng.sample(range(p + 1, p + q + 1), q)
    cert = dict(zip(pnum + wnum, probes + windows))
    edges = [(u, v) for u in pnum for v in pnum
             if u < v and max(cert[u][0], cert[v][0]) <= min(cert[u][1], cert[v][1])]
    edges += [(u, w) for w in wnum for u in pnum
              if any(cert[w][0] <= x <= cert[w][1] for x in cert[u])]
    return tagged_graph(p, q, edges), cert


def _flip(rng, g, flips):
    """g with a few probe-incident vertex pairs flipped."""
    es = {(u, v) for u in range(1, g.n + 1) for v in g.adj[u] if u < v}
    for _ in range(flips if g.n > 1 else 0):
        u = rng.randint(1, g.p)
        v = rng.choice([x for x in range(1, g.n + 1) if x != u])
        es ^= {(min(u, v), max(u, v))}
    return tagged_graph(g.p, g.q, es)


# sha256 of every result below, in order; a change that means to alter any
# verdict, reason, witness, edge, sequence or certificate updates it
OUTPUT_DIGEST = "428b03f1c4c88507572093b9f670981379f5e44505b743267caefb4879d237e7"


def test_output_digest():
    # one seeded stream of planted and perturbed instances, single- and
    # multi-component; refactors that keep every output keep this digest
    rng = random.Random(20_160_711)
    h = hashlib.sha256()
    for i in range(300):
        if i % 2:
            p = rng.randint(1, 150)
            g, cert = generate(GenSpec(p, rng.randint(0, 100), seed=rng.randrange(2**32),
                                       overlap=rng.random(), span=rng.choice((0.02, 0.1, 0.4))))
        else:
            g, cert = _planted_components(rng, [rng.randint(1, 16) for _ in range(rng.randint(1, 8))])
        if i % 3 == 2:
            g, cert = _flip(rng, g, rng.randint(1, 3)), None
        res = recognize(g)
        if cert is not None:
            assert verify_certificate(g, cert) is None and res.accepted
        if res.accepted:
            assert verify_certificate(g, res.certificate) is None
        seq = None if res.sequence is None else res.sequence.seq
        items = None if res.certificate is None else sorted(res.certificate.items())
        h.update(repr((res.accepted, res.reason, res.witness, res.edge, seq, items)).encode())
    assert h.hexdigest() == OUTPUT_DIGEST


# -- each window found once ------------------------------------------------------


def test_kept_windows_match_a_fresh_search(monkeypatch):
    # windows found while deciding, offset into the final sequence and
    # mirrored for a flipped component, are what a fresh search finds there,
    # and the assembled sequence has the positions a fresh pass gives
    arrange = REC._arrange_components
    flipped = []

    def spy(sizes, states, multi_ws):
        got = arrange(sizes, states, multi_ws)
        if not isinstance(got, int):
            flipped.extend(f for _, f in got if f)
        return got

    monkeypatch.setattr(REC, "_arrange_components", spy)
    rng = random.Random(20_161_014)
    two_runs = degree_one = 0
    for i in range(240):
        if i % 4:
            g, _ = _planted_components(rng, [rng.randint(1, 8) for _ in range(rng.randint(2, 6))])
        else:
            g, _ = generate(GenSpec(rng.randint(1, 60), rng.randint(0, 40), seed=rng.randrange(2**32),
                                    overlap=rng.random(), span=rng.choice((0.02, 0.1, 0.4))))
        res = recognize(g)
        assert res.accepted
        cs = res.sequence
        fresh = sequence_from_iterable(cs.seq)
        assert cs.L == fresh.L and cs.R == fresh.R
        rev = sequence_from_iterable(reversed(cs.seq))
        end = len(cs.seq) + 1
        for w in range(g.p + 1, g.n + 1):
            nbrs = frozenset(g.adj[w])
            if not nbrs:
                continue
            first = perfect_substring_bounds(cs, nbrs)
            assert res.certificate[w] == first
            lo, hi = perfect_substring_bounds(rev, nbrs)
            if (end - hi, end - lo) != first:
                two_runs += 1
                degree_one += len(nbrs) == 1
    # the stream tells the first perfect run from the last
    assert len(flipped) >= 50 and two_runs >= 1000 and degree_one >= 1000


def _count_searches(monkeypatch) -> list:
    """(inside build_certificate, nbrs) of every window search recognize makes."""
    search, certify = REC.perfect_substring_bounds, REC.build_certificate
    calls: list = []
    inside = [False]

    def counted(cs, nbrs):
        calls.append((inside[0], nbrs))
        return search(cs, nbrs)

    def certifying(*args):
        inside[0] = True
        try:
            return certify(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(REC, "perfect_substring_bounds", counted)
    monkeypatch.setattr(REC, "build_certificate", certifying)
    return calls


def test_nested_clique_reads_windows_without_searching(monkeypatch):
    # probes K_m, nonprobe w_k sees probes 1..k: one complete component, so
    # the m - 2 partial windows of two or more probes are read off its cut
    # order, none searched; w_1's one probe is read off its two positions,
    # and w_m gets the whole component
    m = 60
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    edges += [(i, m + k) for k in range(1, m + 1) for i in range(1, k + 1)]
    g = tagged_graph(m, m, edges)
    calls = _count_searches(monkeypatch)
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert calls == []
    assert res.certificate[2 * m] == (1, 2 * m)
    for w in range(m + 1, 2 * m + 1):
        assert res.certificate[w] == perfect_substring_bounds(res.sequence, frozenset(g.adj[w]))


def _one_block_graph(rng, n: int, broken: bool):
    """K_n on n of the probes 1..n + 2 under a seeded relabelling, in a
    hidden order σ, and the other two probes x and y isolated.  Nonprobes,
    in seeded order: every arc of σ of two members and about half of the
    longer ones, and about half of the prefixes of σ plus x and of the
    suffixes plus y.  broken (n >= 4) adds one set that is not an arc of
    σ, alone or plus x: the arcs of two fix σ's circle up to reflection, so
    no order serves it."""
    p = n + 2
    *sigma, x, y = rng.sample(range(1, p + 1), p)
    sets = [[sigma[(a + j) % n] for j in range(d)] for d in range(2, n) for a in range(n)]
    sets = [s for s in sets if len(s) == 2 or rng.random() < 0.5]
    sets += [sigma[:d] + [x] for d in range(1, n) if rng.random() < 0.5]
    sets += [sigma[n - d:] + [y] for d in range(1, n) if rng.random() < 0.5]
    if broken:
        arcs = {frozenset(sigma[(a + j) % n] for j in range(d)) for d in range(n) for a in range(n)}
        s = rng.sample(sigma, rng.randint(2, n - 2))
        while frozenset(s) in arcs:
            s = rng.sample(sigma, rng.randint(2, n - 2))
        sets.append(s + [x] if rng.random() < 0.5 else s)
    rng.shuffle(sets)
    edges = [(u, v) for u in sigma for v in sigma if u < v]
    edges += [(u, p + i) for i, s in enumerate(sets, 1) for u in s]
    return tagged_graph(p, len(sets), edges)


# (n, witness - p) of every broken family below, taken before windows and
# ends were read off the restricted runs
BROKEN_ONE_BLOCK_WITNESSES = (
    (4, 1), (4, 11), (4, 8), (4, 2), (4, 10), (4, 4), (4, 7), (4, 4), (4, 1), (4, 14),
    (5, 3), (5, 12), (5, 3), (5, 8), (5, 14), (5, 2), (5, 7), (5, 13), (5, 7), (5, 11),
    (6, 8), (6, 14), (6, 4), (6, 24), (6, 19), (6, 5), (6, 3), (6, 14), (6, 13), (6, 5),
    (7, 6), (7, 20), (7, 17), (7, 23), (7, 26), (7, 2), (7, 21), (7, 4), (7, 25), (7, 4),
)


def test_one_block_windows_and_ends_are_read_off_the_runs():
    # a complete component's local windows are arcs of its cut order σ, some
    # wrapping, and its boundary sets are prefixes and suffixes of σ, the
    # cut taken in either direction; each is read, not searched, and is
    # what a search of the final sequence finds.  Families that are not
    # arcs reject where they did before
    rng = random.Random(20_161_020)
    accepted, witnesses = 0, []
    for n in range(2, 8):
        for i in range(40):
            broken = n >= 4 and i % 4 == 0
            g = _one_block_graph(rng, n, broken)
            res = recognize(g)
            if broken:
                assert res.reason == "FINAL_CHECK_FAIL"
                witnesses.append((n, res.witness - g.p))
                continue
            assert res.accepted and verify_certificate(g, res.certificate) is None
            for w in range(g.p + 1, g.n + 1):
                assert res.certificate[w] == perfect_substring_bounds(res.sequence, g.adj[w])
            accepted += 1
    assert accepted == 200
    assert tuple(witnesses) == BROKEN_ONE_BLOCK_WITNESSES


def test_cheapest_anchor_matches_a_full_count():
    # _cheapest_anchor counts over each set's smaller side; the member it
    # takes is the first one of the fewest Σ_{s∋x}(n - 2|s|), ties included
    rng = random.Random(20_161_021)
    ties = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        members = tuple(rng.sample(range(1, 20), n))
        full = frozenset(members)
        sets = []
        for w in range(rng.randint(0, 6)):
            s = sorted(rng.sample(members, rng.randint(0, n)))
            sets.append((w, tuple(s) if rng.random() < 0.5 else frozenset(s)))
        total = {x: sum(n - 2 * len(s) for _, s in sets if x in s) for x in members}
        anchor, sides = REC._cheapest_anchor(members, full, sets)
        assert anchor == min(members, key=total.__getitem__)
        ties += list(total.values()).count(total[anchor]) > 1
        for (_, s), side in zip(sets, sides):
            assert side is s if 2 * len(s) <= n else side == full - set(s)
    assert ties >= 1000


def test_one_block_reads_no_block_classes(monkeypatch):
    # a probe component of one twin block: each window is the whole block
    # or an arc of it, and a cross nonprobe eats a prefix or a suffix of
    # it, known without sorting neighbours into blocks
    calls = []
    classes = REC.block_classes

    def spy(*args):
        calls.append(args)
        return classes(*args)

    monkeypatch.setattr(REC, "block_classes", spy)
    k5 = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    m = 30
    graphs = [
        tagged_graph(5, 2, k5 + [(1, 6), (2, 6)] + [(i, 7) for i in range(1, 6)]),
        tagged_graph(m, m, [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
                     + [(i, m + k) for k in range(1, m + 1) for i in range(1, k + 1)]),
        # K5 and K3 with nonprobes 9 ({4, 5, 6}) and 11 ({5, 6, 7}) across
        # the gap, and 10 ({1, 2}) inside K5
        tagged_graph(8, 3, k5 + [(6, 7), (6, 8), (7, 8), (4, 9), (5, 9), (6, 9),
                                 (1, 10), (2, 10), (5, 11), (6, 11), (7, 11)]),
    ]
    for g in graphs:
        res = recognize(g)
        assert res.accepted and verify_certificate(g, res.certificate) is None
    assert calls == []
    assert res.certificate[9] == perfect_substring_bounds(res.sequence, g.adj[9])


def test_certificate_reads_every_window_without_searching(monkeypatch):
    # path 1-2-3 and edge 4-5: nonprobe 6 ({1, 2}) is local, 8 ({5}) has
    # one neighbour, 7 and its twin 9 ({3, 4}) cross the gap, 10 sees all
    # of 4-5; recognize hands every window to the certificate
    edges = [(1, 2), (2, 3), (4, 5), (1, 6), (2, 6), (3, 7), (4, 7), (5, 8), (3, 9), (4, 9),
             (4, 10), (5, 10)]
    g = tagged_graph(5, 5, edges)
    calls = _count_searches(monkeypatch)
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert [nbrs for inside, nbrs in calls if inside] == []
    cs = res.sequence
    for w in range(6, 11):
        assert res.certificate[w] == perfect_substring_bounds(cs, frozenset(g.adj[w]))


def test_one_neighbour_windows_are_read_off_its_positions(monkeypatch):
    # probe 1 is isolated, so its two positions are adjacent and nonprobe 5
    # gets both; probe 2 ends the path 2-3-4, whose stair sequence puts its
    # positions apart, so nonprobe 6 gets its first one alone
    g = tagged_graph(4, 2, [(2, 3), (3, 4), (1, 5), (2, 6)])
    calls = _count_searches(monkeypatch)
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert calls == []
    cs = res.sequence
    assert cs.seq == (1, 1, 2, 3, 2, 4, 3, 4)
    assert res.certificate[5] == (1, 2) and res.certificate[6] == (3, 3)
    for w in (5, 6):
        assert res.certificate[w] == perfect_substring_bounds(cs, g.adj[w])


def _with_twins(rng, g):
    """g with a copy of about a third of its nonprobes, each a twin of its
    original."""
    edges = [(u, v) for u in range(1, g.n + 1) for v in g.adj[u] if u < v]
    extra = [w for w in range(g.p + 1, g.n + 1) if rng.random() < 0.35]
    edges += [(u, g.n + i) for i, w in enumerate(extra, 1) for u in g.adj[w]]
    return tagged_graph(g.p, g.q + len(extra), edges)


def test_components_with_nothing_to_decide_get_no_state(monkeypatch):
    init, arrange = _CompState.__init__, REC._arrange_components
    made, flipped = [], []

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    def spy(sizes, states, multi_ws):
        got = arrange(sizes, states, multi_ws)
        if not isinstance(got, int):
            flipped.extend(f for _, f in got)
        return got

    monkeypatch.setattr(_CompState, "__init__", counted)
    monkeypatch.setattr(REC, "_arrange_components", spy)
    # isolated probes that one nonprobe swallows whole: nothing to decide
    p = 40
    g = tagged_graph(p, 1, [(u, p + 1) for u in range(1, p + 1)])
    res = recognize(g)
    assert res.accepted and verify_certificate(g, res.certificate) is None
    assert made == [] and res.certificate[p + 1] == (1, 2 * p)
    # seeded multi-component instances with twin nonprobes: a state for
    # exactly the components that a local nonprobe of two or more
    # neighbours, or a partial cross nonprobe, reaches
    rng = random.Random(20_161_103)
    twins = stateless = 0
    for _ in range(200):
        g, _ = _planted_components(rng, [rng.randint(1, 6) for _ in range(rng.randint(2, 8))])
        g = _with_twins(rng, g)
        made.clear()
        res = recognize(g)
        assert res.accepted and verify_certificate(g, res.certificate) is None
        comp_of = connected_components(probe_subgraph(g)).component_of
        size = collections.Counter(comp_of[1:g.p + 1])
        reached = set()
        for w in range(g.p + 1, g.n + 1):
            if len(g.adj[w]) < 2:
                continue
            touched = collections.Counter(comp_of[u] for u in g.adj[w])
            reached |= {c for c, k in touched.items() if len(touched) == 1 or k < size[c]}
        assert len(made) == len(reached)
        assert {comp_of[s.rg.blocks[s.border[0] - 1][0]] for s in made} == reached
        stateless += len(size) - len(reached)
        twins += g.q - len(set(g.adj[g.p + 1:]))
        cs = res.sequence
        for w in range(g.p + 1, g.n + 1):
            if g.adj[w]:
                assert res.certificate[w] == perfect_substring_bounds(cs, g.adj[w])
    assert stateless >= 300 and twins >= 1000 and flipped.count(True) >= 100
