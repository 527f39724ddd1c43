import ast
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import (
    OracleBudgetExceeded,
    oracle_recognize,
    probe_subgraph,
    tagged_graph,
)
from ptpig import oracle
from ptpig.oracle import enumerate_canonical_orderings


def test_ordering_counts(ex22):
    # two reversals x 2! inside the twin block
    assert len(enumerate_canonical_orderings(probe_subgraph(ex22), range(1, 9))) == 4
    k3 = probe_subgraph(tagged_graph(3, 0, [(1, 2), (1, 3), (2, 3)]))
    assert len(enumerate_canonical_orderings(k3, range(1, 4))) == 6
    p3 = probe_subgraph(tagged_graph(3, 0, [(1, 2), (2, 3)]))
    assert len(enumerate_canonical_orderings(p3, range(1, 4))) == 2


def test_orderings_closed_under_reversal(ex22):
    orders = {tuple(o) for o in enumerate_canonical_orderings(probe_subgraph(ex22), range(1, 9))}
    assert orders == {tuple(reversed(o)) for o in orders}


def test_claw_has_no_ordering():
    pg = probe_subgraph(tagged_graph(4, 0, [(1, 2), (1, 3), (1, 4)]))
    assert enumerate_canonical_orderings(pg, range(1, pg.n + 1)) == []


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


def test_oracle_imports_only_the_standard_library_and_graph():
    # the oracle rests on the paper's characterization (canonical orderings,
    # and perfect substrings of the doubled endpoint sequence), not on the
    # interval definition, so criterion 5 checks recognize against the
    # theorem; it must stay independent of the recognizer's code: no import
    # of recognize, proper or pqtree
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "graph"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in modules:
                assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_orderings_are_exactly_the_consecutive_ones(n, data):
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    pg = probe_subgraph(tagged_graph(n, 0, edges))
    got = {tuple(o) for o in enumerate_canonical_orderings(pg, range(1, pg.n + 1))}
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
