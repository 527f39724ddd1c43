"""Tagged-graph data model: parsing, validation, twin blocks, components.

A tagged graph splits its vertices into probes (1..p) and nonprobes
(p+1..p+q).  Nonprobes must form an independent set; that is validated
separately so the CLI can report a witness edge instead of a parse error.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import eq, lt


class GraphFormatError(ValueError):
    """Tagged-graph text that cannot be parsed (bad header, range, self-loop)."""


# Largest p + q accepted.  A graph allocates one adjacency list per vertex
# before it reads any edge, and the bulk reader one numeral per vertex too;
# at this bound they take about 180 MB, so a one-line header cannot ask for
# many gigabytes.
MAX_VERTICES = 1_000_000

# Largest input text accepted, in characters (bytes, for the ASCII wire
# format).  Read in bulk, a text peaks at about 34 bytes per edge and 200
# per vertex beyond itself, so this bounds memory by edges too: a 63 MiB
# text of 4.2M edges on 10^6 vertices peaks at about 510 MB of RSS.  It admits
# K_2000 (22 MB) and the planted 10^6-vertex instance of ``ptpig bench``
# (1.87M edges, about 30 MB).
MAX_INPUT_BYTES = 64 * 2**20


@dataclass(frozen=True)
class TaggedGraph:
    """Recognition input.  adj is 1-based: adj[0] is unused and empty, and
    each adj[v] is sorted, so a vertex's probe neighbours come first."""

    p: int
    q: int
    adj: tuple[tuple[int, ...], ...]
    edge_count: int

    @property
    def n(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class ProbeGraph:
    """Plain undirected graph on vertices 1..n (the probe-induced subgraph)."""

    n: int
    adj: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ReducedGraph:
    """Partition of a probe graph into blocks of equal closed neighborhoods.

    blocks[k-1] lists block k's vertices (sorted); block_of maps vertex ->
    block id; reps[k-1] is block k's smallest vertex, its representative,
    and block_size[k] its number of vertices (block_size[0] is 0).
    Blocks are numbered by smallest contained vertex, so the decomposition
    is reproducible.  Twins share closed neighbourhoods, so the block-level
    graph needs no copy: block j neighbours block k exactly when reps[j-1]
    is a neighbour of reps[k-1].
    """

    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]
    reps: tuple[int, ...]
    block_size: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]


def tagged_graph(p: int, q: int, edges) -> TaggedGraph:
    """Build a TaggedGraph from an edge iterable, collapsing duplicates."""
    if p < 0 or q < 0:
        raise GraphFormatError("vertex counts must be non-negative")
    n = p + q
    if n > MAX_VERTICES:
        raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    nbr: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        if not (1 <= u <= n) or not (1 <= v <= n):
            bad = u if not (1 <= u <= n) else v
            raise GraphFormatError(f"vertex {bad} out of range (n={n})")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        nbr[u].append(v)
        nbr[v].append(u)
    return _finish(p, q, nbr)


def _finish(p: int, q: int, nbr: list[list[int]]) -> TaggedGraph:
    """The graph in which nbr[v] lists v's neighbours: each edge at both of
    its ends, duplicates allowed.  A list already strictly increasing, as
    the writers' form gives every one, is kept as it is."""
    adj = tuple([tuple(a) if all(map(lt, a, a[1:])) else tuple(sorted(set(a)))
                 for a in nbr])  # a list builds faster
    return TaggedGraph(p=p, q=q, adj=adj, edge_count=sum(map(len, adj)) // 2)


# The form that serialize_tagged_graph writes: a header, then edge lines.
# Seven digits reach MAX_VERTICES, and a vertex has no leading zero, so a
# numeral that passes names a vertex of at most seven digits, or none.
_HEADER = re.compile(r"ptpig ([0-9]{1,7}) ([0-9]{1,7})\n")
_EDGE_LINES = re.compile(r"(?:e [1-9][0-9]{0,6} [1-9][0-9]{0,6}\n)*")
_CHUNK = 2**20  # characters matched and split at a time


def parse_tagged_graph(text: str) -> TaggedGraph:
    """Parse the line-oriented wire format.

    Line 1: ``ptpig <p> <q>``.  Then ``e <u> <v>`` lines, ``#`` comments,
    blank lines ignored.  Errors name the offending line.  A text longer
    than MAX_INPUT_BYTES is refused before any line is read.

    Text in the form that serialize_tagged_graph and ``ptpig gen`` write,
    ``ptpig <p> <q>`` and then ``e <u> <v>`` lines, with single spaces,
    ASCII digits and a newline after every line, is read in bulk.  Any other
    text goes through a line scanner: comments, blank lines, CRLF, tabs, a
    numeral with a leading zero or of more than seven digits, a missing
    final newline.  So does any text that fails a check of the bulk reader
    (a count over MAX_VERTICES, a vertex out of range, a self-loop); the
    scanner alone raises, naming the line.  Both give the same graph.
    """
    if len(text) > MAX_INPUT_BYTES:
        raise GraphFormatError(f"input longer than {MAX_INPUT_BYTES} bytes")
    g = _read_canonical(text)
    return g if g is not None else _scan_lines(text)


def _read_canonical(text: str) -> TaggedGraph | None:
    """The graph of a text in serialize_tagged_graph's form, or None if the
    text is not in that form or fails a check."""
    m = _HEADER.match(text)
    if m is None:
        return None
    p, q = int(m[1]), int(m[2])
    n = p + q
    if n > MAX_VERTICES:
        return None
    # Each chunk is matched whole, which bounds the matcher's state, and
    # split into tokens, which bounds the token lists.  The tables per
    # vertex are built only once the first chunk has passed the checks that
    # need none, so a short text with a bad line allocates little.
    vertex: dict[str, int] = {}
    nbr: list[list[int]] = []
    pos = m.end()
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK) + 1 or len(text)
        if _EDGE_LINES.fullmatch(text, pos, cut) is None:
            return None
        tokens = text[pos:cut].split()  # e u v e u v ...
        pos = cut
        us, vs = tokens[1::3], tokens[2::3]
        if any(map(eq, us, vs)):  # a self-loop, as no numeral has a leading zero
            return None
        # Numerals are looked up, not converted: a miss is a vertex past n,
        # and all mentions of a vertex share one int.  A first chunk with
        # fewer numerals than vertices is range-checked before the table,
        # which would cost more than the chunk, so a huge header over a short
        # bad body builds none.  With no leading zeros, a numeral is past n
        # exactly when it is longer than str(n), or as long and greater.
        if not vertex:
            top = len(str(n)), str(n)
            if 2 * len(us) < n and any(max(zip(map(len, xs), xs)) > top for xs in (us, vs)):
                return None
            vertex = {str(v): v for v in range(1, n + 1)}
        try:
            us = list(map(vertex.__getitem__, us))
            vs = list(map(vertex.__getitem__, vs))
        except KeyError:
            return None
        nbr = nbr or [[] for _ in range(n + 1)]
        for u, v in zip(us, vs):
            nbr[u].append(v)
            nbr[v].append(u)
    return _finish(p, q, nbr or [[] for _ in range(n + 1)])


_NUMERAL = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """int(text) for ASCII digits after an optional minus sign; any other
    text, '+2', '1_0' or '١' among them, raises int()'s bad-literal error."""
    if _NUMERAL.fullmatch(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _scan_lines(text: str) -> TaggedGraph:
    """parse_tagged_graph for any text, line by line."""
    p = q = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if p is None:
            if parts[0] != "ptpig" or len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected header 'ptpig <p> <q>'")
            try:
                p, q = parse_int(parts[1]), parse_int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer counts") from None
            if p < 0 or q < 0:
                raise GraphFormatError(f"line {lineno}: negative count")
            if p + q > MAX_VERTICES:
                raise GraphFormatError(f"line {lineno}: more than {MAX_VERTICES} vertices")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = parse_int(parts[1]), parse_int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
        if not (1 <= u <= p + q) or not (1 <= v <= p + q):
            bad = u if not (1 <= u <= p + q) else v
            raise GraphFormatError(f"line {lineno}: vertex {bad} out of range (n={p + q})")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if p is None:
        raise GraphFormatError("missing 'ptpig <p> <q>' header")
    return tagged_graph(p, q, edges)


def serialize_tagged_graph(g: TaggedGraph) -> str:
    lines = [f"ptpig {g.p} {g.q}"]
    for u in range(1, g.n + 1):
        for v in g.adj[u]:
            if u < v:
                lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def validate_nonprobe_independence(g: TaggedGraph) -> tuple[int, int] | None:
    """Return None if no edge joins two nonprobes, else the first offending
    edge (w, u), w < u, by w and then u."""
    for w in range(g.p + 1, g.n + 1):
        a = g.adj[w]
        if a and a[-1] > w:  # sorted, and every u > w > p is a nonprobe
            return (w, a[bisect_right(a, w)])
    return None


def probe_subgraph(g: TaggedGraph) -> ProbeGraph:
    p = g.p
    adj = [a[:bisect_right(a, p)] for a in g.adj[:p + 1]]  # nonprobes follow p
    return ProbeGraph(n=p, adj=tuple(adj))


def compute_blocks(g: ProbeGraph) -> ReducedGraph:
    """Group vertices with equal closed neighborhoods into blocks.

    Vertices are first grouped by a fingerprint of the closed neighbourhood
    read off the sorted adjacency in O(1): its size, smallest and largest
    vertex.  Twins share it, so a vertex alone in its group is a block
    alone, and only a group of two or more is split by the exact key, the
    closed neighbourhood (the open one with the vertex inserted in place).
    """
    adj = g.adj
    size = g.n + 1
    first: dict[int, int] = {}  # fingerprint -> its smallest vertex
    more: dict[int, list[int]] = {}  # fingerprint -> its vertices, if two or more
    for v, nb in enumerate(adj):  # adj[0] is empty: vertex 0 is alone
        if nb:
            lo = nb[0]
            hi = nb[-1]
            key = (len(nb) * size + (lo if lo < v else v)) * size + (hi if hi > v else v)
        else:  # isolated: below every other key
            key = v
        u = first.setdefault(key, v)
        if u != v:
            grp = more.get(key)
            if grp is None:
                more[key] = [u, v]
            else:
                grp.append(v)

    lead: dict[int, tuple[int, ...]] = {}  # smallest vertex -> a block of two or more
    for grp in more.values():
        exact: dict[tuple[int, ...], list[int]] = {}
        for v in grp:
            nb = adj[v]
            i = bisect_left(nb, v)
            exact.setdefault(nb[:i] + (v,) + nb[i:], []).append(v)
        for vs in exact.values():
            if len(vs) > 1:
                lead[vs[0]] = tuple(vs)

    # a vertex heads its block unless a smaller twin does; counting heads
    # numbers the blocks by smallest vertex
    head = bytearray(b"\1") * size
    head[0] = 0
    for vs in lead.values():
        for v in vs[1:]:
            head[v] = 0
    block_of = list(accumulate(head))
    blocks = list(zip(range(size)))  # (v,) at index v
    for h, vs in lead.items():
        blocks[h] = vs
        k = block_of[h]
        for v in vs[1:]:
            block_of[v] = k
    blocks = tuple(compress(blocks, head))
    return ReducedGraph(
        blocks=blocks,
        block_of=tuple(block_of),
        reps=tuple(compress(range(size), head)),
        block_size=(0, *map(len, blocks)),
    )


def connected_components(g: ProbeGraph) -> ComponentDecomposition:
    """Components numbered by smallest contained vertex (BFS in index order)."""
    comp_of = [0] * (g.n + 1)
    comps: list[tuple[int, ...]] = []
    for start in range(1, g.n + 1):
        if comp_of[start]:
            continue
        cid = len(comps) + 1
        comp_of[start] = cid
        stack = [start]
        seen = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if not comp_of[u]:
                    comp_of[u] = cid
                    stack.append(u)
                    seen.append(u)
        comps.append(tuple(sorted(seen)))
    return ComponentDecomposition(components=tuple(comps), component_of=tuple(comp_of))


def two_stretch_filter(g: TaggedGraph, ordering) -> int | None:
    """Fast necessary condition: each nonprobe's neighbors, read along the
    given probe ordering, must form at most two maximal runs.

    Returns None when every nonprobe passes, else the first witness nonprobe.
    This is only a pre-reject — passing it proves nothing.
    """
    pos = {v: i for i, v in enumerate(ordering)}
    for w in range(g.p + 1, g.n + 1):
        ps = sorted(pos[u] for u in g.adj[w] if u <= g.p)
        runs = 0
        prev = None
        for x in ps:
            if prev is None or x != prev + 1:
                runs += 1
            prev = x
        if runs > 2:
            return w
    return None
