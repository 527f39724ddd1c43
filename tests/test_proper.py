import random
import time
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from ptpig import (
    PQTree,
    canonical_sequence,
    connected_components,
    compute_blocks,
    probe_subgraph,
    recognize_proper_interval,
    sequence_from_iterable,
    stair_sequence,
    tagged_graph,
)
from ptpig.graph import ProbeGraph
from ptpig.oracle import enumerate_canonical_orderings
from ptpig.proper import _stair, _umbrella_spans, order_blocks

from .conftest import EX22_STAIR, EX33_PROBE_STAIR, shallow_stack
from .reference_blocks import (
    last_layer,
    normalize_component_order,
    reference_compute_blocks,
    reference_proper_order,
)

CLAW = [(1, 2), (1, 3), (1, 4)]
C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
C5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
# triangle 1 2 3; the net hangs a pendant on each corner, the tent puts a
# vertex on each side, adjacent to that side's two corners
NET = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)]
TENT = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]


def pg_of(n, edges):
    return probe_subgraph(tagged_graph(n, 0, edges))


def interval_rep(cs):
    """Vertex -> (first position, second position) in the sequence."""
    return {v: (cs.L[v], cs.R[v]) for v in cs.L}


def test_recognize_golden(ex22):
    pg = probe_subgraph(ex22)
    order = recognize_proper_interval(pg)
    assert order is not None and _umbrella_spans(pg, order) is not None
    assert canonical_sequence(pg, order).seq in (EX22_STAIR, tuple(reversed(EX22_STAIR)))


def test_recognize_claw_fails():
    assert recognize_proper_interval(pg_of(4, CLAW)) is None


def test_recognize_cycle_fails():
    assert recognize_proper_interval(pg_of(4, C4)) is None
    assert recognize_proper_interval(pg_of(5, C5)) is None


def test_recognize_net_and_tent_fail():
    for edges in (NET, TENT):
        assert recognize_proper_interval(pg_of(6, edges)) is None
        # also as an induced piece of a larger component
        assert recognize_proper_interval(pg_of(8, edges + [(6, 7), (7, 8)])) is None


def test_first_bfs_reaches_both_ends_at_once():
    # umbrella order 3 2 1 4 5 6 7: a path 3-2-1 on the left, cliques
    # {1,4,5}, {4,5,6}, {5,6,7} on the right.  The first BFS starts at the
    # lowest-numbered vertex, 1, in the middle; its last layer {3, 6, 7}
    # holds the left end (degree 1), the right end 7 (degree 2) and 6,
    # which is no end (degree 3).
    # The graph is twin-free, so its blocks are its vertices.
    pg = pg_of(7, [(1, 2), (2, 3), (1, 4), (1, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)])
    assert sorted(last_layer(pg.adj, 1, bytearray(8))) == [3, 6, 7]
    rg = compute_blocks(pg)
    assert rg.reps == tuple(range(1, 8))
    bo = order_blocks(pg, rg)
    assert bo.order == [3, 2, 1, 4, 5, 6, 7]
    assert _stair(bo.order, bo.upper) == canonical_sequence(pg, bo.order)
    order = recognize_proper_interval(pg)
    assert order is not None and _umbrella_spans(pg, order) is not None
    assert list(order) == [3, 2, 1, 4, 5, 6, 7]


def test_end_is_min_degree_of_a_one_sided_last_layer():
    # umbrella order 1..5 with spans [1,3], [1,4], [1,5], [2,5], [3,5]:
    # from 1 the last layer is the clique {4, 5}.  Only 5, of smaller
    # degree, is an end; starting the second BFS at 4 breaks the order.
    # The walk over representatives must start its second BFS at 5.
    pg = pg_of(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    assert sorted(last_layer(pg.adj, 1, bytearray(6))) == [4, 5]
    rg = compute_blocks(pg)
    assert rg.t == 5
    bo = order_blocks(pg, rg)
    assert bo.order == [1, 2, 3, 4, 5] and bo.upper == [2, 3, 4, 4, 4]
    order = recognize_proper_interval(pg)
    assert order is not None and _umbrella_spans(pg, order) is not None
    assert list(order) == [1, 2, 3, 4, 5]


def test_recognize_single_vertex():
    assert list(recognize_proper_interval(pg_of(1, []))) == [1]


def test_recognize_disconnected_concatenates_by_index():
    pg = pg_of(4, [(1, 2), (3, 4)])
    order = recognize_proper_interval(pg)
    assert _umbrella_spans(pg, order) is not None
    assert canonical_sequence(pg, order).seq == (1, 2, 1, 2, 3, 4, 3, 4)


def test_is_canonical_rejects_gap():
    pg = pg_of(3, [(1, 2), (2, 3)])
    assert _umbrella_spans(pg, [1, 2, 3]) is not None
    assert _umbrella_spans(pg, [1, 3, 2]) is None
    with pytest.raises(ValueError):
        canonical_sequence(pg, [1, 2])  # not a permutation


def test_sequence_validation():
    path = pg_of(3, [(1, 2), (2, 3)])
    assert canonical_sequence(path, [1, 2, 3]).seq == (1, 2, 1, 3, 2, 3)
    # a missing vertex, a duplicate, an extra vertex; then a gap in N[2]
    # and one in N[3], which an unchecked walk turned into a wrong sequence
    for order in ([1, 2], [1, 2, 2], [1, 2, 3, 4], [1, 3, 2], [2, 1, 3]):
        with pytest.raises(ValueError):
            canonical_sequence(path, order)
    with pytest.raises(ValueError):
        sequence_from_iterable((1, 1, 1, 2))
    with pytest.raises(ValueError):
        sequence_from_iterable((1, 2, 1))


def test_stair_goldens(ex22, ex33):
    assert canonical_sequence(probe_subgraph(ex22), list(range(1, 9))).seq == EX22_STAIR
    probe = probe_subgraph(ex33)
    assert canonical_sequence(probe, list(range(1, 7))).seq == EX33_PROBE_STAIR
    assert canonical_sequence(pg_of(2, [(1, 2)]), [1, 2]).seq == (1, 2, 1, 2)


def test_lookup_tables():
    cs = sequence_from_iterable(EX22_STAIR)
    assert cs.L[1] == 1 and cs.R[1] == 3
    assert cs.L[8] == 14 and cs.R[8] == 16


def test_reversed_sequence_flips_tables():
    cs = sequence_from_iterable(EX22_STAIR)
    rev = sequence_from_iterable(reversed(cs.seq))
    n2 = len(cs.seq)
    for v in cs.L:
        assert rev.L[v] == n2 + 1 - cs.R[v]
        assert rev.R[v] == n2 + 1 - cs.L[v]


def test_interval_rep_goldens():
    rep = interval_rep(sequence_from_iterable(EX22_STAIR))
    assert rep == {
        1: (1, 3), 2: (2, 7), 3: (4, 9), 4: (5, 10),
        5: (6, 12), 6: (8, 13), 7: (11, 15), 8: (14, 16),
    }
    assert interval_rep(sequence_from_iterable((1, 1))) == {1: (1, 2)}
    assert interval_rep(sequence_from_iterable((1, 2, 1, 2))) == {1: (1, 3), 2: (2, 4)}


def block_layer(pg):
    """Twin blocks, block ordering and block stair sequence, as the
    recognizer computes them, or None when pg is not proper interval."""
    rg = compute_blocks(pg)
    bo = order_blocks(pg, rg)
    if bo is None:
        return None
    return rg, bo.order, _stair(bo.order, bo.upper)


def test_block_sequence_golden(ex22):
    pg = probe_subgraph(ex22)
    rg, order, bcs = block_layer(pg)
    assert rg.blocks == ((1,), (2,), (3, 4), (5,), (6,), (7,), (8,))
    seq = bcs.seq
    assert seq in ((1, 2, 1, 3, 4, 2, 5, 3, 6, 4, 5, 7, 6, 7),
                   (7, 6, 7, 5, 4, 6, 3, 5, 2, 4, 3, 1, 2, 1))


def test_block_sequence_complete_graph():
    pg = pg_of(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    rg, order, bcs = block_layer(pg)
    assert bcs.seq == (1, 1)


def test_block_sequence_not_proper():
    assert block_layer(pg_of(4, CLAW)) is None


# -- properties ----------------------------------------------------------------

probe_graphs = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        lambda edges: pg_of(n, edges),
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
)


@given(probe_graphs)
@settings(max_examples=250, deadline=None)
def test_verdict_matches_plain_pq_reference(pg):
    order = recognize_proper_interval(pg)
    cd = connected_components(pg)
    feasible = True
    for comp in cd.components:
        tree = PQTree(list(comp))
        for v in comp:
            if not tree.restrict(frozenset(pg.adj[v]) | {v}):
                feasible = False
                break
        if not feasible:
            break
    assert (order is not None) == feasible
    if order is not None:
        assert _umbrella_spans(pg, order) is not None


@given(probe_graphs)
@settings(max_examples=250, deadline=None)
def test_sequence_invariants(pg):
    order = recognize_proper_interval(pg)
    if order is None:
        return
    cs = canonical_sequence(pg, order)
    assert len(cs.seq) == 2 * pg.n
    rank = {v: i for i, v in enumerate(order)}
    # first and second occurrences each appear in order of the ordering
    occ_first = [v for i, v in enumerate(cs.seq, 1) if cs.L[v] == i]
    occ_second = [v for i, v in enumerate(cs.seq, 1) if cs.R[v] == i]
    assert occ_first == sorted(occ_first, key=rank.get)
    assert occ_second == sorted(occ_second, key=rank.get)
    # adjacency is exactly interval intersection
    for u in range(1, pg.n + 1):
        for v in range(u + 1, pg.n + 1):
            touches = cs.L[v] < cs.R[u] and cs.L[u] < cs.R[v]
            assert touches == (v in pg.adj[u])


@given(probe_graphs)
@settings(max_examples=250, deadline=None)
def test_interval_rep_is_proper(pg):
    order = recognize_proper_interval(pg)
    if order is None:
        return
    rep = interval_rep(canonical_sequence(pg, order))
    by_lo = sorted(rep.values())
    assert [hi for _, hi in by_lo] == sorted(hi for _, hi in rep.values())


@st.composite
def unit_graphs(draw):
    """Unit-interval graphs relabelled at random: left ends at the running
    sums of steps 0..4, interval length 3, so a step of 0 makes a twin and
    a step of 4 ends a component."""
    xs = list(accumulate(draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))))
    label = draw(st.permutations(range(1, len(xs) + 1)))
    edges = [(label[i], label[j]) for i in range(len(xs))
             for j in range(i + 1, len(xs)) if xs[j] - xs[i] <= 3]
    return pg_of(len(xs), edges)


@given(st.one_of(probe_graphs, unit_graphs()))
@example(pg_of(3, [(1, 2), (2, 3)]))  # the BFS reads 3 2 1; the reversal is kept
@example(pg_of(4, [(1, 2), (1, 3), (2, 3), (3, 4)]))  # twins 1, 2, reversed too
@settings(max_examples=300, deadline=None)
def test_carried_positions_give_the_stair_sequence(pg):
    # the positions carried out of the umbrella check, through reversal,
    # build the same sequence as a fresh check of the block order on the
    # block-level graph; and the vertex order expands it
    bo = order_blocks(pg, compute_blocks(pg))
    order = recognize_proper_interval(pg)
    if bo is None:
        assert order is None
        return
    quotient = reference_compute_blocks(pg)[2]
    assert _stair(bo.order, bo.upper) == canonical_sequence(quotient, bo.order)
    assert _umbrella_spans(pg, order) is not None


@given(st.one_of(probe_graphs, unit_graphs()))
@example(pg_of(4, [(1, 2), (1, 3), (2, 3), (3, 4)]))  # twins 1, 2 in a reversed order
@settings(max_examples=300, deadline=None)
def test_stair_sequence_reads_the_block_check(pg):
    # the sequence built from the block order's upper positions is the one
    # that checking the expanded vertex order again gives
    order = recognize_proper_interval(pg)
    assert stair_sequence(pg) == (None if order is None else canonical_sequence(pg, order))


def check_block_order(pg):
    """order_blocks against the quotient reference: the same block order,
    upper positions, components and component of each block, or None
    where the reference has none."""
    quotient = reference_compute_blocks(pg)[2]
    qc = connected_components(quotient)
    want = reference_proper_order(quotient, qc)
    bo = order_blocks(pg, compute_blocks(pg))
    if want is None:
        assert bo is None
        return None
    assert (tuple(bo.order), bo.upper) == want
    starts = [0, *bo.ends[:-1]]
    assert tuple(tuple(sorted(bo.order[a:b])) for a, b in zip(starts, bo.ends)) == qc.components
    assert tuple(bo.component_of) == qc.component_of
    return bo


@given(st.one_of(probe_graphs, unit_graphs()))
@example(pg_of(4, CLAW))
@example(pg_of(6, TENT))
@example(pg_of(5, [(1, 2), (2, 5), (3, 5), (1, 3)]))  # C4 on 1 2 5 3, with 4 alone
@settings(max_examples=400, deadline=None)
def test_block_order_matches_the_quotient_reference(pg):
    check_block_order(pg)


@pytest.mark.parametrize("seed", range(8))
def test_block_order_matches_the_reference_on_large_graphs(seed):
    # unit layouts with twins and several components; every second one
    # gets a few random edges, which mostly break it somewhere inside
    rng = random.Random(seed)
    pg, _ = unit_layout(rng, rng.randint(200, 1500), rng.randint(1, 5))
    if seed % 2:
        adj = [set(a) for a in pg.adj]
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(1, pg.n + 1), 2)
            adj[u].add(v)
            adj[v].add(u)
        pg = ProbeGraph(n=pg.n, adj=tuple(tuple(sorted(a)) for a in adj))
    bo = check_block_order(pg)
    if seed % 2 == 0:
        assert bo is not None


@given(probe_graphs)
@settings(max_examples=150, deadline=None)
def test_connected_reduced_sequence_unique_up_to_reversal(pg):
    if pg.n > 7 or len(connected_components(pg).components) != 1:
        return
    if compute_blocks(pg).t != pg.n:
        return
    orders = enumerate_canonical_orderings(pg, range(1, pg.n + 1))
    if not orders:
        return
    seqs = {canonical_sequence(pg, list(o)).seq for o in orders}
    assert len(seqs) <= 2
    if len(seqs) == 2:
        a, b = seqs
        assert tuple(reversed(a)) == b


# -- large planted layouts -------------------------------------------------------


def unit_layout(rng, n, comps):
    """A random unit-interval graph on about n vertices with `comps`
    components, relabelled at random, and its planted left-endpoint order.

    Interval i is [x_i, x_i + 1]; a repeated x makes a twin and a gap wider
    than 1 ends a component.
    """
    xs = []
    x = 0.0
    for _ in range(comps):
        for _ in range(max(1, n // comps)):
            if not xs or xs[-1] != x or rng.random() > 0.25:
                x += rng.random() * 0.9
            xs.append(x)
        x += 1.5
    label = list(range(1, len(xs) + 1))
    rng.shuffle(label)
    edges = []
    for i, xi in enumerate(xs):
        j = i + 1
        while j < len(xs) and xs[j] - xi <= 1:
            edges.append((label[i], label[j]))
            j += 1
    return pg_of(len(xs), edges), label


@pytest.mark.parametrize("seed", range(6))
def test_large_unit_layouts_order_as_planted(seed):
    rng = random.Random(seed)
    pg, planted = unit_layout(rng, rng.randint(500, 3000), rng.randint(1, 6))
    order = recognize_proper_interval(pg)
    assert order is not None and _umbrella_spans(pg, order) is not None
    # per component, the planted order with twins ascending, read from
    # its smaller end
    rank = {v: i for i, v in enumerate(planted)}
    at = 0
    for comp in connected_components(pg).components:
        fr = sorted(comp, key=rank.get)
        assert list(order[at:at + len(comp)]) == normalize_component_order(fr, _umbrella_spans(pg, fr))[0]
        at += len(comp)


def check_slot_path(twins):
    # slot i sits at 0.4 i, so N[i] = [i-2, i+2]: connected, diameter about
    # n/2, with the labels shuffled so that the first BFS starts mid-path.
    # Each slot holds `twins` vertices.  Blocks, two BFS passes over their
    # representatives and a sort per layer are linear; nothing may recurse.
    n = 200_000
    label = list(range(1, n + 1))
    random.Random(5).shuffle(label)
    slots = [label[i:i + twins] for i in range(0, n, twins)]
    nbrs = [[] for _ in range(n + 1)]
    for i, slot in enumerate(slots):
        near = [u for j in (i, i + 1, i + 2) if j < len(slots) for u in slots[j]]
        for v in slot:
            for u in near:
                if u != v:
                    nbrs[v].append(u)
                    nbrs[u].append(v)
    pg = ProbeGraph(n=n, adj=tuple(tuple(sorted(set(a))) for a in nbrs))
    with shallow_stack(60):
        t0 = time.perf_counter()
        order = recognize_proper_interval(pg)
        elapsed = time.perf_counter() - t0
    assert elapsed < 10
    fwd = [v for slot in slots for v in sorted(slot)]
    rev = [v for slot in reversed(slots) for v in sorted(slot)]
    assert list(order) == min(fwd, rev)


def test_proper_order_takes_linear_time():
    check_slot_path(1)


def test_proper_order_of_twin_pairs_takes_linear_time():
    check_slot_path(2)
