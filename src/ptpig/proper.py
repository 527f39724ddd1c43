"""Proper interval graphs: recognition, canonical orderings, stair sequences.

A canonical ordering places every closed neighborhood consecutively; the
stair sequence lists each vertex twice so that intervals [first, second]
realize the graph.  Both exist exactly for proper interval graphs, and for
connected reduced graphs the sequence is unique up to reversal.  Recognition
orders the twin blocks, walking only their smallest vertices, and checks
that one ordering per component; the check alone decides, and the rightmost
neighbours it finds are all the stair sequence needs.  A vertex ordering is
the block ordering with each block expanded in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ProbeGraph, ReducedGraph, compute_blocks


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


@dataclass(frozen=True)
class BlockOrder:
    """A canonical ordering of a probe graph's blocks, one component after
    another in the order of their smallest vertices.

    order lists block ids; upper[i] is the rightmost position of a block
    that neighbours or is the block at position i; component c occupies
    order[ends[c-2]:ends[c-1]] (from 0 for c = 1); component_of maps each
    block id to its component (index 0 unused).
    """

    order: list
    upper: list
    ends: list
    component_of: list


def order_blocks(g: ProbeGraph, rg: ReducedGraph) -> BlockOrder | None:
    """The canonical block ordering of g, or None if g is not a proper
    interval graph.

    The walk is over block representatives: since twins share closed
    neighbourhoods, block k's neighbour blocks are exactly those whose
    representatives neighbour reps[k-1], so the block-level graph is the
    subgraph the representatives induce, and it has no twins.  Per
    component, with v1..vt an umbrella ordering of it (every N[vi] an
    interval [l(i), r(i)], l and r nondecreasing):
    1. BFS distances from any x never decrease moving away from x along the
       ordering, so the first BFS's last layer is a clique prefix [1, a]
       (where N[vi] = [1, r(i)]), a clique suffix [b, t] (where N[vi] =
       [l(i), t]), or both: its minimum-degree vertex is v1 or vt, as
       N[v1] is strictly inside every other N[vi] of the prefix (there are
       no twins), and N[vt] of the suffix.  Expanding blocks keeps strict
       containment, so a representative's degree in g serves.  The same
       BFS finds the component.
    2. From an end every layer is a clique and a run of the ordering.  In
       layer k >= 1 the count of neighbours in layer k - 1 fixes l and the
       count in layer k + 1 fixes r, so the second BFS, sorting each layer
       by (-back, fwd), gives the umbrella ordering.
    3. The check that each closed neighbourhood spans deg + 1 positions,
       which alone decides, counts the degrees and finds upper.
    A twin-free connected proper interval graph has one umbrella ordering
    up to reversal (Roberts 1969; Deng, Hell and Huang, SIAM J. Comput. 25,
    1996); the direction kept starts at the smaller block id, and the
    reversal of an umbrella ordering is one too, so it is checked as kept.
    """
    adj = g.adj
    size = g.n + 1
    reps = rg.reps
    comp = [-1] * size  # -1 off the representatives, else 0 until reached
    for r in reps:
        comp[r] = 0
    # the second BFS's layers: -1 until reached, size off the representatives
    dist = [size] * size
    key = [0] * size
    pos = [0] * size
    order: list = []
    upper: list = []
    ends: list = []
    cid = 0

    for s in reps:
        if comp[s]:
            continue
        cid += 1
        comp[s] = cid
        dist[s] = -1
        layer, nxt = [], [s]
        while nxt:
            layer, nxt = nxt, []
            for v in layer:
                for u in adj[v]:
                    if not comp[u]:
                        comp[u] = cid
                        dist[u] = -1
                        nxt.append(u)
        base = len(order)
        if layer[0] == s:  # a one-block component
            order.append(s)
            upper.append(base)
            ends.append(base + 1)
            continue
        end = min(layer, key=lambda v: len(adj[v]))

        dist[end] = 0
        layer = [end]
        cand: list = []
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
                        key[u] = -size
                        nxt.append(u)
                        fwd += 1
                    elif du == d:
                        key[u] -= size
                        fwd += 1
                key[v] += fwd
            layer.sort(key=key.__getitem__)
            cand.extend(layer)
            layer = nxt

        if cand[0] > cand[-1]:
            cand.reverse()
        for i, v in enumerate(cand, base):
            pos[v] = i
        for v in cand:
            lo = hi = pos[v]
            d = 0
            for u in adj[v]:
                if comp[u] > 0:
                    d += 1
                    pu = pos[u]
                    if pu < lo:
                        lo = pu
                    elif pu > hi:
                        hi = pu
            if hi - lo != d:
                return None
            upper.append(hi)
        order.extend(cand)
        ends.append(len(order))
    block_of = rg.block_of
    return BlockOrder(
        order=list(map(block_of.__getitem__, order)),
        upper=upper,
        ends=ends,
        component_of=[0, *map(comp.__getitem__, reps)],
    )


def recognize_proper_interval(g: ProbeGraph):
    """A vertex ordering with all closed neighborhoods consecutive, or None.

    The canonical block ordering, each block's vertices in ascending order:
    twins expand into staggered copies of their block's interval.  Up to
    reversal and the order of twins a connected proper interval graph has
    one such ordering, so the result is its one representative that reads
    twins ascending and starts at the smaller end.
    """
    rg = compute_blocks(g)
    bo = order_blocks(g, rg)
    if bo is None:
        return None
    blocks = rg.blocks
    return tuple(v for k in bo.order for v in blocks[k - 1])


def stair_sequence(g: ProbeGraph) -> CanonicalSequence | None:
    """The stair sequence of recognize_proper_interval(g)'s ordering, or None
    if g is not a proper interval graph.

    The block check already found each block's rightmost neighbour block,
    so the ordering is not checked again: twins share their block's
    rightmost neighbour, so the vertex stair sequence is the block stair
    sequence with each block expanded into its vertices.
    """
    rg = compute_blocks(g)
    bo = order_blocks(g, rg)
    if bo is None:
        return None
    blocks = rg.blocks
    return sequence_from_iterable(v for k in _stair(bo.order, bo.upper).seq for v in blocks[k - 1])


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
