"""Proper interval graphs: recognition, canonical orderings, stair sequences.

A canonical ordering places every closed neighborhood consecutively; the
stair sequence lists each vertex twice so that intervals [first, second]
realize the graph.  Both exist exactly for proper interval graphs, and for
connected reduced graphs the sequence is unique up to reversal.  Recognition
checks one ordering per component; that check alone decides, and the
rightmost neighbors it finds are all the stair sequence needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import eq, itemgetter

from .graph import ComponentDecomposition, ProbeGraph, connected_components


@dataclass(frozen=True)
class CanonicalSequence:
    """A length-2n sequence with every vertex appearing exactly twice.

    L/R map each vertex to its first/second position (1-based)."""

    seq: tuple[int, ...]
    L: dict
    R: dict


def sequence_from_iterable(seq) -> CanonicalSequence:
    seq = tuple(seq)
    first: dict = {}
    second: dict = {}
    for idx, v in enumerate(seq, start=1):
        if v in first:
            if v in second:
                raise ValueError(f"{v} occurs more than twice")
            second[v] = idx
        else:
            first[v] = idx
    if len(second) != len(first):
        raise ValueError("every element must occur exactly twice")
    return CanonicalSequence(seq=seq, L=first, R=second)


def _normalize_component_order(fr: list, spans: list) -> tuple[list, list]:
    """Deterministic representative among the equivalent orderings, and each
    of its positions' rightmost closed-neighbor position.

    Twins (equal closed neighborhoods) are interchangeable wherever they sit,
    and the whole component may be read in either direction.  In an umbrella
    ordering the twins are the runs of equal closed-neighborhood spans; sort
    each run ascending and keep the lexicographically smaller direction.
    Sorting a run keeps its span at every position; reading backwards, the
    vertex at position j came from n - 1 - j and now reaches n - 1 - lo.
    """
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


def _last_layer(adj, root, seen: bytearray) -> list:
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
    """BFS from end, each layer sorted by key = fwd - m * back (m > any degree),
    counting neighbors in the layers after and before in the same scan."""
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


def _umbrella_spans(g: ProbeGraph, order) -> list | None:
    """Each position's closed-neighborhood span (lo, hi), or None when some
    closed neighborhood is not consecutive in order."""
    pos = {v: i for i, v in enumerate(order)}
    spans = []
    for v in order:
        lo = hi = pos[v]
        for u in g.adj[v]:
            pu = pos[u]
            if pu < lo:
                lo = pu
            elif pu > hi:
                hi = pu
        if hi - lo != len(g.adj[v]):
            return None
        spans.append((lo, hi))
    return spans


def recognize_proper_interval(g: ProbeGraph):
    """A vertex ordering with all closed neighborhoods consecutive, or None.

    Components are ordered independently, each by two plain BFS passes and a
    sort, and concatenated in index order.  Let v1..vn be an umbrella
    ordering: every N[vi] is an interval [l(i), r(i)], l and r nondecreasing.
    1. BFS distances from any x never decrease moving away from x along the
       ordering, so the last layer is a clique prefix [1, a] (where N[vi] =
       [1, r(i)]), a clique suffix [b, n] (where N[vi] = [l(i), n]), or both:
       a minimum-degree vertex of it is v1, vn or a twin of one, an end.
    2. From an end every layer is a clique and a run of the ordering.  In
       layer k >= 1 the count of neighbors in layer k - 1 fixes l and the
       count in layer k + 1 fixes r, so sorting by (k, -back, fwd) gives the
       umbrella ordering up to the order of twins.
    That ordering is unique up to reversal and twins (Roberts 1969; Deng,
    Hell and Huang, SIAM J. Comput. 25, 1996), so the normalized result does
    not depend on the start or on ties.  On any other graph the umbrella
    check, which alone decides, rejects whatever the sort gives.
    """
    got = _proper_order(g, connected_components(g))
    return None if got is None else got[0]


def _proper_order(g: ProbeGraph, comp: ComponentDecomposition):
    """recognize_proper_interval for a caller that has g's components:
    (order, upper), upper[i] the rightmost closed-neighbor position of
    position i, read off the umbrella check; or None."""
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
        end = min(_last_layer(adj, vs[0], seen), key=lambda v: len(adj[v]))
        cand = _end_bfs_order(adj, end, dist, key, m)
        spans = _umbrella_spans(g, cand)
        if spans is None:
            return None
        fr, hi = _normalize_component_order(cand, spans)
        order.extend(fr)
        upper.extend(base + h for h in hi)
    return tuple(order), upper


def _stair(order, upper) -> CanonicalSequence:
    """The stair sequence of a canonical ordering, upper[i] >= i the rightmost
    closed-neighbor position of position i: walk the order emitting first
    occurrences, flushing each second one once its last neighbor is passed."""
    seq: list = []
    ptr = 0
    for j, v in enumerate(order):
        while upper[ptr] < j:
            seq.append(order[ptr])
            ptr += 1
        seq.append(v)
    seq.extend(order[ptr:])
    return sequence_from_iterable(seq)


def canonical_sequence(g: ProbeGraph, order) -> CanonicalSequence:
    """The stair sequence of g under order; ValueError unless order is a
    canonical ordering of all of g's vertices."""
    if sorted(order) != list(range(1, g.n + 1)) or (spans := _umbrella_spans(g, order)) is None:
        raise ValueError("not a canonical ordering of the vertices")
    return _stair(order, [hi for _, hi in spans])
