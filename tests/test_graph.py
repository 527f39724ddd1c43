import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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
from ptpig import graph
from ptpig.graph import MAX_VERTICES

from .conftest import BAD_WIRE_TEXTS, EX33_EDGES, EX36_EDGES, no_line_scan
from .reference_blocks import reference_compute_blocks


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
    with pytest.raises(GraphFormatError, match="^missing 'ptpig <p> <q>' header$"):
        parse_tagged_graph("# only a comment\n\n")


def test_parse_bad_edge_line_names_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_tagged_graph("ptpig 2 0\ne 1 2\nnonsense\n")
    # text the bulk reader takes up and then hands to the line scanner
    for text, message in BAD_WIRE_TEXTS:
        with pytest.raises(GraphFormatError) as exc:
            parse_tagged_graph(text)
        assert str(exc.value) == message


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError, match="^line 2: self-loop at vertex 1$"):
        parse_tagged_graph("ptpig 2 0\ne 1 1\n")
    with pytest.raises(GraphFormatError, match="^self-loop at vertex 1$"):
        tagged_graph(2, 0, [(1, 1)])


def test_parse_out_of_range_rejected():
    with pytest.raises(GraphFormatError):
        parse_tagged_graph("ptpig 2 1\ne 1 4\n")


@pytest.mark.parametrize("u, v, bad", [(0, 2, 0), (2, 9, 9), (9, 0, 9), (2, 5, 5)])
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
    with pytest.raises(GraphFormatError, match="^line 1: negative count$"):
        parse_tagged_graph("ptpig -1 2\n")


def test_vertex_limit_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_tagged_graph("ptpig 100000000 0\n")
        with pytest.raises(GraphFormatError, match="^line 1: more than 1000000 vertices$"):
            parse_tagged_graph(f"ptpig {MAX_VERTICES} 1\ne 1 2\n")
        with pytest.raises(GraphFormatError):
            tagged_graph(MAX_VERTICES, 1, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("line, message", [
    ("e 0 1", "line 2: vertex 0 out of range (n=1000000)"),
    ("e 1 1000001", "line 2: vertex 1000001 out of range (n=1000000)"),
    ("e 01 01", "line 2: self-loop at vertex 1"),
    ("e 7 7", "line 2: self-loop at vertex 7"),
    ("e 1 " + "9" * 5000, "line 2: non-integer endpoint"),
    ("e 1 2\nx", "line 3: expected 'e <u> <v>'"),
], ids=["zero", "past-n", "leading-zero", "self-loop", "long-numeral", "bad-line"])
def test_bad_line_found_before_tables_per_vertex(line, message):
    # a bad line under a header near MAX_VERTICES costs about its own length
    text = f"ptpig 999999 1\n{line}\n"
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as exc:
            parse_tagged_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1_000_000


@pytest.mark.parametrize("chunk", [1, 2**20])
def test_bulk_reader_refuses_exactly_the_vertices_past_n(monkeypatch, chunk):
    # a short first chunk is range-checked by numeral length and digits,
    # any other chunk by the table; either way exactly u > n is refused
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    for n in range(2, 120):
        for u in range(2, n + 12):
            for body in (f"e {u} 1\n", f"e 1 2\ne {u} 1\n", f"e 1 {u}\n" * 3):
                bulk = graph._read_canonical(f"ptpig {n} 0\n{body}")
                assert (bulk is None) == (u > n), (n, body)


def test_roundtrip_on_fixtures(ex36, ex33, monkeypatch):
    # what serialize_tagged_graph writes is read in bulk
    monkeypatch.setattr(graph, "_scan_lines", no_line_scan)
    for g in (ex36, ex33, tagged_graph(0, 0, []), tagged_graph(0, 3, [])):
        assert parse_tagged_graph(serialize_tagged_graph(g)) == g


def _wire(p, q, edges) -> str:
    return f"ptpig {p} {q}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _insert_line(text, line, rng) -> str:
    lines = text.splitlines(keepends=True)
    lines.insert(rng.randint(0, len(lines)), line)
    return "".join(lines)


def _replace_one(text, old, new, rng) -> str:
    at = [i for i in range(len(text)) if text.startswith(old, i)]
    i = rng.choice(at)
    return text[:i] + new + text[i + len(old):]


def test_bulk_and_line_reads_agree(monkeypatch):
    # the text in the writers' form is read in bulk, in one chunk or in
    # many; every variant of it goes through the line scanner; all give the
    # graph that tagged_graph builds, whose adjacency lists are the sorted
    # neighbour sets, whether the edges came sorted or not
    scanned = []
    scan = graph._scan_lines
    monkeypatch.setattr(graph, "_scan_lines", lambda text: scanned.append(text) or scan(text))
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice([0, rng.randint(1, 9)])
        q = rng.choice([0, rng.randint(1, 4)])
        n = p + q
        edges = []
        if n >= 2:
            for _ in range(rng.choice([0, rng.randint(1, 2 * n)])):
                u, v = rng.sample(range(1, n + 1), 2)
                edges.append((u, v))
                if rng.random() < 0.3:  # a duplicate, as written or reversed
                    edges.append(rng.choice([(u, v), (v, u)]))
        rng.shuffle(edges)
        monkeypatch.setattr(graph, "_CHUNK", rng.choice([1, 6, 20, 2**20]))
        want = tagged_graph(p, q, edges)
        ref = [set() for _ in range(n + 1)]
        for u, v in edges:
            ref[u].add(v)
            ref[v].add(u)
        assert want.adj == tuple(tuple(sorted(a)) for a in ref)
        text = _wire(p, q, edges)
        assert parse_tagged_graph(text) == want
        assert parse_tagged_graph(serialize_tagged_graph(want)) == want
        assert scanned == []
        variants = [
            _insert_line(text, "# comment\n", rng),
            _insert_line(text, "\n", rng),
            text.replace("\n", "\r\n"),
            _replace_one(text, " ", "\t", rng),
            _replace_one(text, " ", "  ", rng),
            text[:-1],
        ]
        if edges:
            variants.append(_replace_one(text, "\ne ", "\ne 0", rng))
        for variant in variants:
            assert parse_tagged_graph(variant) == want
            assert scanned.pop() == variant


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
    assert len(cd.components) == 1


def test_components_isolated_vertices():
    cd = connected_components(probe_subgraph(tagged_graph(3, 0, [])))
    assert len(cd.components) == 3
    assert cd.components == ((1,), (2,), (3,))


def test_components_two_edges():
    cd = connected_components(probe_subgraph(tagged_graph(4, 0, [(1, 2), (3, 4)])))
    assert len(cd.components) == 2


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_scan_lines", no_line_scan)
        assert parse_tagged_graph(serialize_tagged_graph(g)) == g


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
    # the block-level graph read off the representatives, each block's
    # smallest vertex, is the reference's quotient
    assert rg.reps == tuple(blk[0] for blk in rg.blocks)
    quotient = reference_compute_blocks(pg)[2]
    reps = set(rg.reps)
    for k, r in enumerate(rg.reps, 1):
        assert tuple(rg.block_of[u] for u in pg.adj[r] if u in reps) == quotient.adj[k]


def check_blocks(pg):
    """compute_blocks against the reference: the same blocks, numbering
    included, and representatives."""
    rg = compute_blocks(pg)
    blocks, block_of, _ = reference_compute_blocks(pg)
    assert (rg.blocks, rg.block_of) == (blocks, block_of)
    assert rg.reps == tuple(blk[0] for blk in blocks)
    return rg


@st.composite
def twin_graphs(draw):
    """Random graphs in which some vertices get twins: a copy of v is
    joined to v and to v's neighbours at the time, and then every vertex
    is relabelled at random."""
    n, edges = draw(edge_sets)
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for src in draw(st.lists(st.integers(1, n), max_size=4)):
        c = len(nbrs) + 1
        nbrs[c] = nbrs[src] | {src}
        for u in nbrs[c]:
            nbrs[u].add(c)
    label = draw(st.permutations(range(1, len(nbrs) + 1)))
    return probe_subgraph(tagged_graph(
        len(nbrs), 0, [(label[u - 1], label[v - 1]) for u in nbrs for v in nbrs[u] if u < v]))


@given(twin_graphs())
@settings(max_examples=300, deadline=None)
def test_blocks_match_the_reference(pg):
    check_blocks(pg)


def test_blocks_split_a_fingerprint_collision():
    # the C4 1-2-5-3: N[2] = {1, 2, 5} and N[3] = {1, 3, 5} have the same
    # size, smallest and largest vertex, but 2 and 3 are not twins
    pg = probe_subgraph(tagged_graph(5, 0, [(1, 2), (2, 5), (5, 3), (3, 1)]))
    rg = check_blocks(pg)
    assert rg.blocks == ((1,), (2,), (3,), (4,), (5,))


def test_blocks_split_many_non_twins_sharing_a_fingerprint():
    # 1 and n see every middle vertex; the middle vertices pair up, so
    # every pair {2i, 2i + 1} shares N = {1, 2i, 2i + 1, n}: all pairs have
    # one fingerprint and so do the lone middle vertices, but only the two
    # vertices of a pair are twins
    n = 40
    edges = [(a, v) for v in range(2, n) for a in (1, n)]
    edges += [(v, v + 1) for v in range(2, 30, 2)]
    pg = probe_subgraph(tagged_graph(n, 0, edges))
    rg = check_blocks(pg)
    assert rg.blocks == ((1,), *((v, v + 1) for v in range(2, 30, 2)),
                         *((v,) for v in range(30, n + 1)))


@pytest.mark.parametrize("seed", range(4))
def test_blocks_match_the_reference_on_large_graphs(seed):
    # a sparse random graph with every tenth vertex copied, some twice
    rng = random.Random(seed)
    n = 600
    nbrs = {v: set() for v in range(1, n + 1)}
    for _ in range(2 * n):
        u, v = rng.sample(range(1, n + 1), 2)
        nbrs[u].add(v)
        nbrs[v].add(u)
    for src in rng.sample(range(1, n + 1), n // 10) * 2:
        if rng.random() < 0.6:
            c = len(nbrs) + 1
            nbrs[c] = nbrs[src] | {src}
            for u in nbrs[c]:
                nbrs[u].add(c)
    label = list(range(1, len(nbrs) + 1))
    rng.shuffle(label)
    pg = probe_subgraph(tagged_graph(
        len(nbrs), 0, [(label[u - 1], label[v - 1]) for u in nbrs for v in nbrs[u] if u < v]))
    rg = check_blocks(pg)
    assert rg.t < pg.n


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
    assert len(cd.components) == len({find(v) for v in range(1, n + 1)})
