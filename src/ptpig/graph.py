"""Tagged-graph data model: parsing, validation, twin blocks, components.

A tagged graph splits its vertices into probes (1..p) and nonprobes
(p+1..p+q).  Nonprobes must form an independent set; that is validated
separately so the CLI can report a witness edge instead of a parse error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Tagged-graph text that cannot be parsed (bad header, range, self-loop)."""


# Largest p + q accepted.  A graph allocates one adjacency set per vertex
# before it reads any edge; at this bound the empty sets alone take about
# 230 MB, so a one-line header cannot ask for many gigabytes.
MAX_VERTICES = 1_000_000

# Largest input text accepted, in characters (bytes, for the ASCII wire
# format).  Parsing keeps about 184 bytes per edge, so this bounds memory
# by edges too; it admits K_2000 (22 MB) and the planted 10^6-vertex
# instance of ``ptpig bench`` (1.87M edges, about 30 MB).
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
    block id; quotient is the block-level graph.  Blocks are numbered by
    smallest contained vertex, so the decomposition is reproducible.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]
    quotient: ProbeGraph

    @property
    def t(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.components)


def tagged_graph(p: int, q: int, edges) -> TaggedGraph:
    """Build a TaggedGraph from an edge iterable, collapsing duplicates."""
    if p < 0 or q < 0:
        raise GraphFormatError("vertex counts must be non-negative")
    n = p + q
    if n > MAX_VERTICES:
        raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    nbr: list[set[int]] = [set() for _ in range(n + 1)]
    count = 0
    for u, v in edges:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise GraphFormatError(f"vertex {max(u, v)} out of range (n={n})")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if v not in nbr[u]:
            nbr[u].add(v)
            nbr[v].add(u)
            count += 1
    adj = tuple(tuple(sorted(s)) for s in nbr)
    return TaggedGraph(p=p, q=q, adj=adj, edge_count=count)


def parse_tagged_graph(text: str) -> TaggedGraph:
    """Parse the line-oriented wire format.

    Line 1: ``ptpig <p> <q>``.  Then ``e <u> <v>`` lines, ``#`` comments,
    blank lines ignored.  Errors name the offending line.  A text longer
    than MAX_INPUT_BYTES is refused before any line is read.
    """
    if len(text) > MAX_INPUT_BYTES:
        raise GraphFormatError(f"input longer than {MAX_INPUT_BYTES} bytes")
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
                p, q = int(parts[1]), int(parts[2])
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
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
        if not (1 <= u <= p + q) or not (1 <= v <= p + q):
            raise GraphFormatError(
                f"line {lineno}: vertex {max(u, v)} out of range (n={p + q})"
            )
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

    Open neighborhoods are sorted tuples, so each closed neighborhood, the
    grouping key, is one with the vertex itself inserted in place.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, g.n + 1):
        nb = g.adj[v]
        i = bisect_left(nb, v)
        groups.setdefault(nb[:i] + (v,) + nb[i:], []).append(v)

    blocks = list(groups.values())  # each first inserted at its smallest vertex
    block_of = [0] * (g.n + 1)
    for k, vs in enumerate(blocks, start=1):
        for v in vs:
            block_of[v] = k

    t = len(blocks)
    qadj: list[tuple[int, ...]] = [()]
    for k, vs in enumerate(blocks, start=1):
        rep = vs[0]
        seen = set()
        for u in g.adj[rep]:
            b = block_of[u]
            if b != k:
                seen.add(b)
        qadj.append(tuple(sorted(seen)))
    quotient = ProbeGraph(n=t, adj=tuple(qadj))
    return ReducedGraph(
        blocks=tuple(tuple(vs) for vs in blocks),
        block_of=tuple(block_of),
        quotient=quotient,
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
