import pytest
from hypothesis import given, settings, strategies as st

from ptpig import (
    PQTree,
    canonical_sequence,
    connected_components,
    compute_blocks,
    interval_rep_from_sequence,
    is_canonical_ordering,
    probe_subgraph,
    recognize_proper_interval,
    sequence_from_iterable,
    tagged_graph,
)
from ptpig.oracle import enumerate_canonical_orderings

from .conftest import EX22_STAIR, EX33_PROBE_STAIR

CLAW = [(1, 2), (1, 3), (1, 4)]


def pg_of(n, edges):
    return probe_subgraph(tagged_graph(n, 0, edges))


def test_recognize_golden(ex22):
    pg = probe_subgraph(ex22)
    order = recognize_proper_interval(pg)
    assert order is not None and is_canonical_ordering(pg, order)
    assert canonical_sequence(pg, order).seq in (EX22_STAIR, tuple(reversed(EX22_STAIR)))


def test_recognize_claw_fails():
    assert recognize_proper_interval(pg_of(4, CLAW)) is None


def test_recognize_cycle_fails():
    assert recognize_proper_interval(pg_of(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) is None


def test_recognize_single_vertex():
    assert list(recognize_proper_interval(pg_of(1, []))) == [1]


def test_recognize_disconnected_concatenates_by_index():
    pg = pg_of(4, [(1, 2), (3, 4)])
    order = recognize_proper_interval(pg)
    assert is_canonical_ordering(pg, order)
    assert canonical_sequence(pg, order).seq == (1, 2, 1, 2, 3, 4, 3, 4)


def test_is_canonical_rejects_gap():
    pg = pg_of(3, [(1, 2), (2, 3)])
    assert is_canonical_ordering(pg, [1, 2, 3])
    assert not is_canonical_ordering(pg, [1, 3, 2])
    assert not is_canonical_ordering(pg, [1, 2])  # not a permutation


def test_sequence_validation():
    with pytest.raises(ValueError):
        canonical_sequence(pg_of(3, [(1, 2), (2, 3)]), [1, 3, 2])
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
    rep = interval_rep_from_sequence(sequence_from_iterable(EX22_STAIR))
    assert rep == {
        1: (1, 3), 2: (2, 7), 3: (4, 9), 4: (5, 10),
        5: (6, 12), 6: (8, 13), 7: (11, 15), 8: (14, 16),
    }
    assert interval_rep_from_sequence(sequence_from_iterable((1, 1))) == {1: (1, 2)}
    assert interval_rep_from_sequence(sequence_from_iterable((1, 2, 1, 2))) == {1: (1, 3), 2: (2, 4)}


def block_layer(pg):
    """Twin blocks, block ordering and block stair sequence, as the
    recognizer computes them, or None when pg is not proper interval."""
    rg = compute_blocks(pg)
    order = recognize_proper_interval(rg.quotient)
    if order is None:
        return None
    return rg, order, canonical_sequence(rg.quotient, order)


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
        assert is_canonical_ordering(pg, order)


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
    rep = interval_rep_from_sequence(canonical_sequence(pg, order))
    by_lo = sorted(rep.values())
    assert [hi for _, hi in by_lo] == sorted(hi for _, hi in rep.values())


@given(probe_graphs)
@settings(max_examples=150, deadline=None)
def test_connected_reduced_sequence_unique_up_to_reversal(pg):
    if pg.n > 7 or connected_components(pg).r != 1:
        return
    if compute_blocks(pg).t != pg.n:
        return
    orders = enumerate_canonical_orderings(pg)
    if not orders:
        return
    seqs = {canonical_sequence(pg, list(o)).seq for o in orders}
    assert len(seqs) <= 2
    if len(seqs) == 2:
        a, b = seqs
        assert tuple(reversed(a)) == b
