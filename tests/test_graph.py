import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ptpig import (
    GraphFormatError,
    compute_blocks,
    connected_components,
    parse_tagged_graph,
    probe_subgraph,
    serialize_tagged_graph,
    tagged_graph,
    two_stretch_filter,
    validate_nonprobe_independence,
)
from ptpig.graph import MAX_VERTICES

from .conftest import EX33_EDGES, EX36_EDGES


def test_parse_minimal():
    g = parse_tagged_graph("ptpig 2 1\ne 1 2\ne 1 3\n")
    assert (g.p, g.q, g.n) == (2, 1, 3)
    assert g.adj == ((), (2, 3), (1,), (1,))


def test_parse_comments_and_blank_lines():
    text = "# header comment\nptpig 2 0\n\ne 1 2\n# trailing\n"
    g = parse_tagged_graph(text)
    assert g.edge_count == 1


def test_parse_missing_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_tagged_graph("e 1 2\n")


def test_parse_bad_edge_line_names_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_tagged_graph("ptpig 2 0\ne 1 2\nnonsense\n")


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError):
        parse_tagged_graph("ptpig 2 0\ne 1 1\n")


def test_parse_out_of_range_rejected():
    with pytest.raises(GraphFormatError):
        parse_tagged_graph("ptpig 2 1\ne 1 4\n")


@pytest.mark.parametrize("u, v, bad", [(0, 2, 0), (2, 9, 9), (9, 0, 9)])
def test_out_of_range_names_the_first_bad_endpoint(u, v, bad):
    # the first endpoint out of range, not the larger one, which may be fine
    with pytest.raises(GraphFormatError, match=f"^line 2: vertex {bad} out of range \\(n=4\\)$"):
        parse_tagged_graph(f"ptpig 3 1\ne {u} {v}\n")
    with pytest.raises(GraphFormatError, match=f"^vertex {bad} out of range \\(n=4\\)$"):
        tagged_graph(3, 1, [(u, v)])


def test_input_cap(monkeypatch):
    text = "ptpig 2 0\ne 1 2\n"
    monkeypatch.setattr("ptpig.graph.MAX_INPUT_BYTES", len(text))
    assert parse_tagged_graph(text).edge_count == 1
    with pytest.raises(GraphFormatError, match=f"longer than {len(text)} bytes"):
        parse_tagged_graph(text + "\n")


def test_duplicate_edges_collapse():
    g = tagged_graph(3, 0, [(1, 2), (2, 1), (1, 2)])
    assert g.edge_count == 1
    assert len(g.adj[1]) == 1


def test_negative_counts_rejected():
    with pytest.raises(GraphFormatError):
        tagged_graph(-1, 2, [])


def test_vertex_limit_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_tagged_graph("ptpig 100000000 0\n")
        with pytest.raises(GraphFormatError):
            tagged_graph(MAX_VERTICES, 1, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_roundtrip_on_fixtures(ex36, ex33):
    for g in (ex36, ex33):
        again = parse_tagged_graph(serialize_tagged_graph(g))
        assert again.p == g.p and again.q == g.q and again.adj == g.adj


def test_independence_ok(ex36):
    assert validate_nonprobe_independence(ex36) is None


def test_independence_witness():
    g = tagged_graph(2, 2, [(1, 2), (3, 4)])
    assert validate_nonprobe_independence(g) == (3, 4)
    # the smallest nonprobe with a larger nonprobe neighbour, and the
    # smallest such neighbour
    g = tagged_graph(2, 5, [(1, 2), (1, 3), (4, 6), (5, 6), (5, 7), (2, 5)])
    assert validate_nonprobe_independence(g) == (4, 6)
    g = tagged_graph(2, 5, [(1, 3), (3, 1), (5, 6), (5, 7), (2, 5)])
    assert validate_nonprobe_independence(g) == (5, 6)


def test_independence_vacuous_without_nonprobes(ex22):
    assert validate_nonprobe_independence(ex22) is None


def test_probe_subgraph_drops_nonprobes(ex36):
    pg = probe_subgraph(ex36)
    assert pg.n == 8
    assert sorted(pg.adj[2]) == [1, 3, 4, 5]
    # nonprobe-incident edges are gone entirely
    assert all(u <= 8 for vs in pg.adj for u in vs)


def test_probe_subgraph_empty():
    pg = probe_subgraph(tagged_graph(0, 2, []))
    assert pg.n == 0


def test_blocks_twins(ex22):
    rg = compute_blocks(probe_subgraph(ex22))
    assert rg.blocks == ((1,), (2,), (3, 4), (5,), (6,), (7,), (8,))
    assert rg.block_of[3] == rg.block_of[4] == 3


def test_blocks_complete_graph():
    pg = probe_subgraph(tagged_graph(4, 0, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]))
    rg = compute_blocks(pg)
    assert rg.t == 1 and rg.blocks == ((1, 2, 3, 4),)


def test_blocks_path_all_singleton():
    rg = compute_blocks(probe_subgraph(tagged_graph(3, 0, [(1, 2), (2, 3)])))
    assert rg.t == 3


def test_components_single(ex36):
    cd = connected_components(probe_subgraph(ex36))
    assert cd.r == 1


def test_components_isolated_vertices():
    cd = connected_components(probe_subgraph(tagged_graph(3, 0, [])))
    assert cd.r == 3
    assert cd.components == ((1,), (2,), (3,))


def test_components_two_edges():
    cd = connected_components(probe_subgraph(tagged_graph(4, 0, [(1, 2), (3, 4)])))
    assert cd.r == 2


def test_two_stretch_ok_on_rejected_instance(ex33):
    # necessary but not sufficient: this graph passes the filter yet is
    # rejected by the full recognizer
    assert two_stretch_filter(ex33, [1, 2, 3, 4, 5, 6]) is None


def test_two_stretch_witness():
    g = tagged_graph(5, 1, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 1), (6, 3), (6, 5)])
    assert two_stretch_filter(g, [1, 2, 3, 4, 5]) == 6


def test_two_stretch_isolated_nonprobe():
    g = tagged_graph(2, 1, [(1, 2)])
    assert two_stretch_filter(g, [1, 2]) is None


edge_sets = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
)


@given(edge_sets, st.integers(0, 3))
def test_roundtrip_random(pair, q):
    n, edges = pair
    g = tagged_graph(n, q, edges)
    assert parse_tagged_graph(serialize_tagged_graph(g)).adj == g.adj


@given(edge_sets)
def test_blocks_form_a_quotient(pair):
    n, edges = pair
    pg = probe_subgraph(tagged_graph(n, 0, edges))
    rg = compute_blocks(pg)
    closed = {v: frozenset(pg.adj[v]) | {v} for v in range(1, n + 1)}
    for blk in rg.blocks:
        assert len({closed[v] for v in blk}) == 1
    # distinct adjacent blocks must be completely joined
    for a in range(1, n + 1):
        for b in pg.adj[a]:
            ka, kb = rg.block_of[a], rg.block_of[b]
            if ka != kb:
                for x in rg.blocks[ka - 1]:
                    for y in rg.blocks[kb - 1]:
                        assert y in closed[x]


@given(edge_sets)
def test_components_match_union_find(pair):
    n, edges = pair
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    cd = connected_components(probe_subgraph(tagged_graph(n, 0, edges)))
    roots = {v: find(v) for v in range(1, n + 1)}
    for comp in cd.components:
        assert len({roots[v] for v in comp}) == 1
    assert cd.r == len({find(v) for v in range(1, n + 1)})
