"""Brute-force reference implementations, deliberately naive.

Ground truth for small instances only: a tagged graph is accepted iff some
arrangement (component order x per-component canonical ordering) yields a
doubled endpoint sequence in which every nonprobe owns a perfect substring —
a contiguous piece containing only its neighbors and all of them at least
once.  Everything here enumerates permutations and scans substrings; the
real recognizer is checked against these functions, never the other way
round.
"""

from __future__ import annotations

from itertools import permutations, product

from .graph import (
    ProbeGraph,
    TaggedGraph,
    connected_components,
    probe_subgraph,
    validate_nonprobe_independence,
)

# Enumeration caps: vertices per permuted set (8! = 40,320 orderings), and
# arrangement states tried across components.
MAX_UNIVERSE = 8
MAX_ORDERINGS = 500_000


class OracleBudgetExceeded(RuntimeError):
    """Instance too large for honest enumeration under the caps above."""


def _is_canonical(g: ProbeGraph, order) -> bool:
    # closed neighborhood of every vertex must occupy contiguous positions
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        lo = hi = pos[v]
        for u in g.adj[v]:
            x = pos[u]
            if x < lo:
                lo = x
            elif x > hi:
                hi = x
        if hi - lo != len(g.adj[v]):
            return False
    return True


def enumerate_canonical_orderings(g: ProbeGraph):
    """Exact list of orderings with the consecutive closed-neighborhood
    property, by filtering all |V|! permutations."""
    if g.n > MAX_UNIVERSE:
        raise OracleBudgetExceeded(
            f"{g.n} vertices exceeds the enumeration cap ({MAX_UNIVERSE})"
        )
    out = []
    for perm in permutations(range(1, g.n + 1)):
        if _is_canonical(g, perm):
            out.append(perm)
    return out


def _stair_sequence(g: ProbeGraph, order) -> list[int]:
    """Doubled endpoint sequence of a canonical ordering (vertex ids).

    Walks positions 1..m emitting each vertex's first occurrence in order
    and interleaving second occurrences: the second occurrence of the vertex
    at position i precedes the first occurrence of position j iff no
    neighbor of i sits at or beyond j.
    """
    m = len(order)
    pos = {v: i + 1 for i, v in enumerate(order)}
    upper = []
    for i, v in enumerate(order, start=1):
        u = i
        for w in g.adj[v]:
            if pos[w] > u:
                u = pos[w]
        upper.append(u)
    seq: list[int] = []
    ptr = 0  # next candidate position whose second occurrence is pending
    for j in range(1, m + 1):
        while ptr < j - 1 and upper[ptr] < j:
            seq.append(order[ptr])
            ptr += 1
        seq.append(order[j - 1])
    while ptr < m:
        seq.append(order[ptr])
        ptr += 1
    return seq


def _has_perfect_substring(seq, nbrs: frozenset) -> bool:
    """Some maximal run of neighbor entries contains every neighbor."""
    need = len(nbrs)
    if need == 0:
        return True
    run: set = set()
    for x in seq:
        if x in nbrs:
            run.add(x)
            if len(run) == need:
                return True
        else:
            run.clear()
    return False


def oracle_recognize(g: TaggedGraph) -> bool:
    """True iff g is recognizable, by exhaustive arrangement search."""
    if validate_nonprobe_independence(g) is not None:
        return False
    if g.p == 0:
        return True
    gp = probe_subgraph(g)
    comps = connected_components(gp).components

    per_comp_orderings = []
    for comp in comps:
        if len(comp) > MAX_UNIVERSE:
            raise OracleBudgetExceeded(
                f"component of {len(comp)} vertices exceeds the cap"
            )
        cand = [
            perm for perm in permutations(comp) if _is_canonical(gp, perm)
        ]
        if not cand:
            return False  # probe subgraph is not a proper interval graph
        per_comp_orderings.append(cand)

    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    local_nonprobes: list[list[frozenset]] = [[] for _ in comps]
    cross_nonprobes: list[frozenset] = []
    for w in range(g.p + 1, g.n + 1):
        nbrs = frozenset(g.adj[w])
        if not nbrs:
            continue
        touched = {comp_of[u] for u in nbrs}
        if len(touched) == 1:
            local_nonprobes[touched.pop()].append(nbrs)
        else:
            cross_nonprobes.append(nbrs)

    # in-component nonprobes constrain only their own component's sequence,
    # so filter per-component candidates first
    filtered = []
    for ci, cand in enumerate(per_comp_orderings):
        keep = []
        for order in cand:
            seq = _stair_sequence(gp, order)
            if all(_has_perfect_substring(seq, nb) for nb in local_nonprobes[ci]):
                keep.append(seq)
        if not keep:
            return False
        filtered.append(keep)

    if not cross_nonprobes:
        return True

    states = 0
    for comp_perm in permutations(range(len(comps))):
        for choice in product(*(filtered[ci] for ci in comp_perm)):
            states += 1
            if states > MAX_ORDERINGS:
                raise OracleBudgetExceeded(
                    f"more than {MAX_ORDERINGS} arrangements"
                )
            seq = [x for part in choice for x in part]
            if all(_has_perfect_substring(seq, nb) for nb in cross_nonprobes):
                return True
    return False

