"""Proper interval graphs: recognition, canonical orderings, stair sequences.

A canonical ordering places every closed neighborhood consecutively; the
stair sequence lists each vertex twice so that intervals [first, second]
realize the graph.  Both exist exactly for proper interval graphs, and for
connected reduced graphs the sequence is unique up to reversal.  Recognition
is three lexicographic-BFS sweeps per component and one check of the last
ordering; that check alone decides, with no PQ-tree fallback behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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


def _normalize_component_order(fr: list, spans: list) -> list:
    """Deterministic representative among the equivalent orderings.

    Twins (equal closed neighborhoods) are interchangeable wherever they sit,
    and the whole component may be read in either direction.  In an umbrella
    ordering the twins are the runs of equal closed-neighborhood spans; sort
    each run ascending and keep the lexicographically smaller direction.
    """
    runs = [sorted(v for _, v in grp) for _, grp in groupby(zip(spans, fr), key=itemgetter(0))]
    fwd = [v for run in runs for v in run]
    rev = [v for run in reversed(runs) for v in run]
    return min(fwd, rev)


class _Cell:
    """Bucket of still-unplaced vertices, kept in preference order."""

    __slots__ = ("items", "prev", "nxt")

    def __init__(self, items: dict):
        self.items = items
        self.prev = None
        self.nxt = None


def _lbfs_sweep(adj, prev: list) -> list:
    """One lexicographic-BFS pass, ties broken toward the back of prev.

    Buckets are refined in place; within a bucket vertices stay in
    descending preference, so next(iter(...)) is always the tie-break winner.
    """
    nbr_pref: dict = {v: [] for v in prev}
    for w in reversed(prev):
        for u in adj[w]:
            nbr_pref[u].append(w)
    first = _Cell(dict.fromkeys(reversed(prev)))
    where = {v: first for v in prev}
    out: list = []
    while first is not None:
        items = first.items
        v = next(iter(items))
        del items[v], where[v]
        if not items:
            first = first.nxt
            if first is not None:
                first.prev = None
        out.append(v)
        moved: dict = {}
        for u in nbr_pref[v]:
            c = where.get(u)
            if c is not None:
                moved.setdefault(id(c), (c, []))[1].append(u)
        for c, lst in moved.values():
            if len(lst) == len(c.items):
                continue  # whole bucket preferred: nothing to separate
            nc = _Cell(dict.fromkeys(lst))
            for u in lst:
                del c.items[u]
                where[u] = nc
            nc.prev, nc.nxt = c.prev, c
            if c.prev is None:
                first = nc
            else:
                c.prev.nxt = nc
            c.prev = nc
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

    Components are handled independently and concatenated in index order.
    Per component, an LBFS sweep followed by two LBFS+ sweeps yields an
    ordering with every closed neighborhood consecutive exactly when the
    component is a proper interval graph (Corneil, Discrete Applied Math.
    138, 2004), so checking the third sweep's ordering decides.
    """
    return _proper_order(g, connected_components(g))


def _proper_order(g: ProbeGraph, comp: ComponentDecomposition):
    """recognize_proper_interval for a caller that has g's components."""
    order: list[int] = []
    for vs in comp.components:
        if len(vs) == 1:
            order.append(vs[0])
            continue
        cand = list(vs)
        for _ in range(3):
            cand = _lbfs_sweep(g.adj, cand)
        spans = _umbrella_spans(g, cand)
        if spans is None:
            return None
        order.extend(_normalize_component_order(cand, spans))
    return tuple(order)


def is_canonical_ordering(g: ProbeGraph, order) -> bool:
    if sorted(order) != list(range(1, g.n + 1)):
        return False
    return _umbrella_spans(g, order) is not None


def canonical_sequence(g: ProbeGraph, order, validate: bool = True) -> CanonicalSequence:
    """The stair sequence of g under a canonical ordering.

    Walk the order emitting first occurrences, flushing each pending second
    occurrence as soon as its last neighbor has been passed.
    """
    if validate and not is_canonical_ordering(g, order):
        raise ValueError("ordering is not canonical")
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    upper = [0] * n  # rightmost adjacent position, per position
    for i, v in enumerate(order):
        m = i
        for u in g.adj[v]:
            pu = pos[u]
            if pu > m:
                m = pu
        upper[i] = m
    seq: list[int] = []
    ptr = 0
    for j in range(n):
        while ptr < j and upper[ptr] < j:
            seq.append(order[ptr])
            ptr += 1
        seq.append(order[j])
    while ptr < n:
        seq.append(order[ptr])
        ptr += 1
    return sequence_from_iterable(seq)


def interval_rep_from_sequence(cs: CanonicalSequence) -> dict:
    """Vertex -> [first position, second position]; a proper representation."""
    return {v: (cs.L[v], cs.R[v]) for v in cs.L}
