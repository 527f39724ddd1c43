"""An independent check of interval certificates.

It reads only builtins, the standard library and .graph, so that a fault of
the recognizer cannot hide in the check of its output.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import lt

from .graph import TaggedGraph, validate_nonprobe_independence


def verify_certificate(g: TaggedGraph, cert: dict):
    """Independent check of an interval certificate against the graph.

    Returns None when valid, else (kind, u, v) for the first violation, the
    checks running in this order:
    - a missing or inverted interval, the smallest such vertex;
    - an interval for no vertex of g, the smallest such number, else the
      first such key;
    - an edge between nonprobes, as validate_nonprobe_independence finds it;
    - probe properness (equal intervals are tolerated, strict containment
      is not): the first probe, by (lo, -hi), inside a wider one before it;
    - probe adjacency vs intersection: first a non-edge between intersecting
      probes, scanning probes by (lo, hi), then an edge between disjoint
      ones, by smaller and then larger vertex number;
    - tagged adjacency vs endpoint containment: the smallest nonprobe, with
      the smallest probe on which its neighbours and its interval disagree.

    Probes are sorted once by (lo, hi), so each probe's later intersecting
    probes are one slice of that order; apart from two sorts the checks are
    O(n + m) set and bisect operations, most of them inside builtins.  The
    containment and edge-count checks only tell whether a violation exists;
    when one fails, a scan in the order above names its witness.
    """
    for v in range(1, g.n + 1):
        iv = cert.get(v)
        if iv is None or iv[0] > iv[1]:
            return ("missing-interval", v, v)
    if len(cert) != g.n:  # every vertex is present, so some key is not one
        stray = [v for v in cert if v not in range(1, g.n + 1)]
        v = min((v for v in stray if isinstance(v, int)), default=stray[0])
        return ("unknown-vertex", v, v)
    bad = validate_nonprobe_independence(g)
    if bad is not None:
        return ("independence", bad[0], bad[1])
    p, adj = g.p, g.adj

    order = sorted(range(1, p + 1), key=cert.__getitem__)
    los = [cert[v][0] for v in order]
    his = [cert[v][1] for v in order]
    # read by (lo, hi), no interval strictly holds another iff lo and hi
    # grow at the same steps: an equal lo needs an equal hi, a larger lo a
    # larger hi
    if list(map(lt, los, los[1:])) != list(map(lt, his, his[1:])):
        return _first_containment(cert, p)

    # the probes after u = order[i] that meet it are the slice up to the
    # first lo past u's hi; they must all be its neighbours, and then the
    # number of such pairs must be the number of probe edges, or some edge
    # joins disjoint intervals
    pairs = 0
    for i, (u, hi) in enumerate(zip(order, his)):
        later = order[i + 1:bisect_right(los, hi, i)]
        if later:
            nb = set(adj[u])
            if not nb.issuperset(later):
                return ("probe-adjacency", u, next(v for v in later if v not in nb))
            pairs += len(later)
    if 2 * pairs != sum(map(bisect_right, adj[1:p + 1], repeat(p))):  # nonprobes follow p
        return _first_disjoint_edge(adj, cert, p)

    # his is sorted too now, so every endpoint sorts by one merge
    points = los + his
    ends = sorted(range(2 * p), key=points.__getitem__)
    values = list(map(points.__getitem__, ends))
    owners = list(map((order + order).__getitem__, ends))
    for w in range(p + 1, g.n + 1):
        lo, hi = cert[w]
        inside = set(owners[bisect_left(values, lo):bisect_right(values, hi)])
        actual = adj[w]
        if len(inside) != len(actual) or not inside.issuperset(actual):
            return ("tag-adjacency", w, min(inside.symmetric_difference(actual)))
    return None


def _first_containment(cert: dict, p: int):
    """The first probe, by (lo, -hi), whose interval lies strictly inside
    the widest one before it, as ("containment", wider, inner)."""
    keyed = sorted(range(1, p + 1), key=lambda v: (cert[v][0], -cert[v][1]))
    widest = None
    for v in keyed:
        lo, hi = cert[v]
        if widest is not None and hi <= cert[widest][1]:
            if (lo, hi) != cert[widest]:
                return ("containment", widest, v)
        if widest is None or hi > cert[widest][1]:
            widest = v
    return None


def _first_disjoint_edge(adj, cert: dict, p: int):
    """The first probe edge uv, u < v, whose intervals are disjoint."""
    for u in range(1, p + 1):
        lo, hi = cert[u]
        for v in adj[u]:
            if u < v <= p and max(lo, cert[v][0]) > min(hi, cert[v][1]):
                return ("probe-adjacency", u, v)
    return None
