"""The twin blocks and block ordering as they were computed through a
quotient graph, kept as references for compute_blocks and order_blocks.

reference_compute_blocks groups vertices by their whole closed
neighbourhood and builds the block-level graph, the quotient;
reference_proper_order orders any graph given its components, by two BFS
passes, a sort per layer and the umbrella check.  On the quotient, which
has no twins, they give the block ordering.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import eq, itemgetter

from ptpig.graph import ComponentDecomposition, ProbeGraph
from ptpig.proper import _umbrella_spans


def reference_compute_blocks(g: ProbeGraph):
    """(blocks, block_of, quotient): blocks numbered by smallest vertex,
    block_of per vertex, and the block-level graph."""
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
    return tuple(tuple(vs) for vs in blocks), tuple(block_of), ProbeGraph(n=t, adj=tuple(qadj))


def normalize_component_order(fr: list, spans: list) -> tuple[list, list]:
    """Deterministic representative among the equivalent orderings, and each
    of its positions' rightmost closed-neighbor position: each run of twins
    (equal spans) sorted ascending, in the lexicographically smaller
    direction."""
    if not any(map(eq, spans, spans[1:])):  # no twins: every run is one vertex
        fwd = list(fr)
        rev = fwd[::-1]
    else:
        runs = [[v for _, v in grp] for _, grp in groupby(zip(spans, fr), key=itemgetter(0))]
        for run in runs:
            if len(run) > 1:
                run.sort()
        fwd = [v for run in runs for v in run]
        rev = [v for run in reversed(runs) for v in run]
    if fwd <= rev:
        return fwd, [hi for _, hi in spans]
    return rev, [len(fr) - 1 - lo for lo, _ in reversed(spans)]


def last_layer(adj, root, seen: bytearray) -> list:
    """The farthest BFS layer from root; marks the component in seen."""
    seen[root] = 1
    layer, nxt = [], [root]
    while nxt:
        layer, nxt = nxt, []
        for v in layer:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    nxt.append(u)
    return layer


def _end_bfs_order(adj, end, dist: list, key: list, m: int) -> list:
    """BFS from end, each layer sorted by key = fwd - m * back (m > any degree)."""
    dist[end] = 0
    layer = [end]
    out: list = []
    d = 0
    while layer:
        d += 1
        nxt = []
        for v in layer:
            fwd = 0
            for u in adj[v]:
                du = dist[u]
                if du < 0:
                    dist[u] = d
                    key[u] = -m
                    nxt.append(u)
                    fwd += 1
                elif du == d:
                    key[u] -= m
                    fwd += 1
            key[v] += fwd
        layer.sort(key=key.__getitem__)
        out.extend(layer)
        layer = nxt
    return out


def reference_proper_order(g: ProbeGraph, comp: ComponentDecomposition):
    """(order, upper) for g with components comp, upper[i] the rightmost
    closed-neighbor position of position i; or None if g is not proper
    interval."""
    adj = g.adj
    m = g.n + 1
    seen = bytearray(m)
    dist = [-1] * m
    key = [0] * m
    order: list[int] = []
    upper: list[int] = []
    for vs in comp.components:
        base = len(order)
        if len(vs) == 1:
            order.append(vs[0])
            upper.append(base)
            continue
        end = min(last_layer(adj, vs[0], seen), key=lambda v: len(adj[v]))
        cand = _end_bfs_order(adj, end, dist, key, m)
        spans = _umbrella_spans(g, cand)
        if spans is None:
            return None
        fr, hi = normalize_component_order(cand, spans)
        order.extend(fr)
        upper.extend(base + h for h in hi)
    return tuple(order), upper
