"""The paper's characterization against the interval definition, exhaustively.

A proper interval representation R of probes 1..p gives each probe a closed
interval; equal intervals are allowed, strict containment is not.  R is
taken up to the weak order of its 2p endpoints, so it is a sequence of tie
classes of endpoints.  A nonprobe whose interval runs over a contiguous run
of those classes sees the probes owning them, and F(R) is the set of those
owner sets.  The characterization reads the same sets off the stair
sequence of a canonical ordering σ: F(σ) is the set of owner sets of the
contiguous runs of σ's stair sequence.

The two must agree for every graph: each F(R) lies inside some F(σ), and
each F(σ) inside some F(R).  Nothing here uses the recognizer; it imports
only the standard library, ptpig.graph and ptpig.oracle.
"""

from __future__ import annotations

from itertools import product

from ptpig.graph import probe_subgraph, tagged_graph
from ptpig.oracle import _stair_sequence, enumerate_canonical_orderings


def _merges(k: int, i: int = 0, j: int = 0):
    """Each weak order of the endpoints of k distinct proper intervals,
    their left ends l_1 < ... < l_k and right ends r_1 < ... < r_k with
    l_a <= r_a, as a tuple of tie classes; a class is (a, None) for l_a,
    (None, b) for r_b, or (a, b) for l_a = r_b.  i left and j right ends
    are placed."""
    if i == j == k:
        yield ()
        return
    steps = []
    if i < k:
        steps.append((i + 1, None))
        steps.append((i + 1, j + 1))  # r_{j+1} = l_{i+1}: l_{j+1} comes first or ties
    if j < i:
        steps.append((None, j + 1))
    for a, b in steps:
        for rest in _merges(k, i + (a is not None), j + (b is not None)):
            yield ((a, b), *rest)


def _ordered_partitions(items: tuple):
    """Each ordered partition of items into nonempty groups."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _ordered_partitions(rest):
        # first joins a group, or starts a new one at any place
        for i in range(len(part)):
            yield part[:i] + ((first, *part[i]),) + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + ((first,),) + part[i:]


def representations(p: int):
    """Each proper interval representation of probes 1..p, up to the weak
    order of the endpoints, as (edges, classes): the intersection graph's
    edges (u, v), u < v, and the tie classes in order, each the set of
    probes owning an endpoint in it."""
    for groups in _ordered_partitions(tuple(range(1, p + 1))):
        k = len(groups)
        for merge in _merges(k):
            at = {}  # (end, interval) -> its class index
            for c, (a, b) in enumerate(merge):
                if a is not None:
                    at["l", a] = c
                if b is not None:
                    at["r", b] = c
            edges = set()
            for a, b in product(range(1, k + 1), repeat=2):
                # a's and b's intervals meet iff the later one starts by the
                # earlier one's end; twins share an interval
                if a <= b and at["l", b] <= at["r", a]:
                    edges.update((min(u, v), max(u, v)) for u in groups[a - 1]
                                 for v in groups[b - 1] if u != v)
            classes = [frozenset(groups[a - 1] if a is not None else ())
                       | frozenset(groups[b - 1] if b is not None else ()) for a, b in merge]
            yield frozenset(edges), classes


def run_sets(classes) -> frozenset:
    """The owner sets of the contiguous runs of a sequence of classes."""
    out = set()
    for i in range(len(classes)):
        owners = frozenset()
        for c in classes[i:]:
            owners |= c
            out.add(owners)
    return frozenset(out)


def check(p: int) -> int:
    """Check the characterization on every labelled proper interval graph
    on p probes; returns their number.  Raises AssertionError, naming the
    graph, where the two families disagree."""
    by_graph: dict = {}  # edges -> {F(R)}
    for edges, classes in representations(p):
        by_graph.setdefault(edges, set()).add(run_sets(classes))
    for edges, reps in by_graph.items():
        pg = probe_subgraph(tagged_graph(p, 0, edges))
        stairs = {run_sets([frozenset((x,)) for x in _stair_sequence(pg, order)])
                  for order in enumerate_canonical_orderings(pg, range(1, p + 1))}
        assert stairs, sorted(edges)
        for fr in reps:
            assert any(fr <= fs for fs in stairs), ("F(R)", sorted(edges))
        for fs in stairs:
            assert any(fs <= fr for fr in reps), ("F(σ)", sorted(edges))
    return len(by_graph)
