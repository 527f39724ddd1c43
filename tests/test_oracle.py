import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import (
    OracleBudgetExceeded,
    oracle_recognize,
    probe_subgraph,
    tagged_graph,
)
from ptpig.oracle import brute_oriented_consecutive_ones, enumerate_canonical_orderings


def test_ordering_counts(ex22):
    # two reversals x 2! inside the twin block
    assert len(enumerate_canonical_orderings(probe_subgraph(ex22))) == 4
    k3 = probe_subgraph(tagged_graph(3, 0, [(1, 2), (1, 3), (2, 3)]))
    assert len(enumerate_canonical_orderings(k3)) == 6
    p3 = probe_subgraph(tagged_graph(3, 0, [(1, 2), (2, 3)]))
    assert len(enumerate_canonical_orderings(p3)) == 2


def test_orderings_closed_under_reversal(ex22):
    orders = {tuple(o) for o in enumerate_canonical_orderings(probe_subgraph(ex22))}
    assert orders == {tuple(reversed(o)) for o in orders}


def test_claw_has_no_ordering():
    pg = probe_subgraph(tagged_graph(4, 0, [(1, 2), (1, 3), (1, 4)]))
    assert enumerate_canonical_orderings(pg) == []


def test_verdict_goldens(ex36, ex33):
    assert oracle_recognize(ex36)
    assert not oracle_recognize(ex33)
    assert not oracle_recognize(tagged_graph(4, 0, [(1, 2), (1, 3), (1, 4)]))


def test_budget_exceeded():
    with pytest.raises(OracleBudgetExceeded):
        oracle_recognize(tagged_graph(9, 0, [(i, i + 1) for i in range(1, 9)]))


def test_relabeling_nonprobes_is_invisible():
    base = tagged_graph(3, 2, [(1, 2), (2, 3), (4, 1), (4, 2), (5, 3)])
    swapped = tagged_graph(3, 2, [(1, 2), (2, 3), (5, 1), (5, 2), (4, 3)])
    assert oracle_recognize(base) == oracle_recognize(swapped)


def test_brute_oriented_goldens():
    assert brute_oriented_consecutive_ones([1, 2, 3], [({1}, -1), ({3}, 1)]) == {(1, 2, 3)}
    assert brute_oriented_consecutive_ones([1, 2, 3], []) == set(itertools.permutations([1, 2, 3]))
    assert brute_oriented_consecutive_ones([1, 2], [({1}, -1), ({1}, 1)]) == set()


def test_brute_oriented_size_cap():
    with pytest.raises(OracleBudgetExceeded):
        brute_oriented_consecutive_ones(list(range(9)), [])


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_orderings_are_exactly_the_consecutive_ones(n, data):
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    pg = probe_subgraph(tagged_graph(n, 0, edges))
    got = {tuple(o) for o in enumerate_canonical_orderings(pg)}
    closed = {v: frozenset(pg.adj[v]) | {v} for v in range(1, n + 1)}
    expect = set()
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(
            max(pos[u] for u in closed[v]) - min(pos[u] for u in closed[v]) == len(closed[v]) - 1
            for v in perm
        ):
            expect.add(perm)
    assert got == expect
