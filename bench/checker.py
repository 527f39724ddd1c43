"""The benchmark's own certificate checker.

Applies the rules of a proper tagged probe interval representation directly
to an edge list, in sorted sweeps, without calling into the program:

- no edge joins two nonprobes;
- two probes are adjacent exactly when their intervals intersect;
- a probe and a nonprobe are adjacent exactly when the nonprobe's interval
  contains an endpoint of the probe's interval;
- no probe interval properly contains another (equal intervals are allowed).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right


def check_certificate(p: int, q: int, edges, cert: dict) -> str | None:
    """None if cert represents the tagged graph exactly, else the first fault."""
    n = p + q
    for v in range(1, n + 1):
        iv = cert.get(v)
        if iv is None or len(iv) != 2 or iv[0] > iv[1]:
            return f"vertex {v}: missing or inverted interval"
    if len(cert) != n:
        return "certificate names vertices outside the graph"
    probe_edges = set()
    tag_nbrs: dict = {}
    for u, v in edges:
        if u > p and v > p:
            return f"edge {u}-{v} joins two nonprobes"
        if u <= p and v <= p:
            probe_edges.add((min(u, v), max(u, v)))
        else:
            a, w = (u, v) if u <= p else (v, u)
            tag_nbrs.setdefault(w, set()).add(a)

    # properness: sweep by left end, widest first among equal left ends
    order = sorted(range(1, p + 1), key=lambda v: (cert[v][0], -cert[v][1]))
    top_hi = top_lo = None
    for v in order:
        lo, hi = cert[v]
        if top_hi is not None and (top_hi > hi or (top_hi == hi and top_lo < lo)):
            return f"probe {v}: interval {cert[v]} properly contained"
        if top_hi is None or hi > top_hi:
            top_hi, top_lo = hi, lo

    # probe-probe: every intersecting pair must be an edge, and there must be
    # exactly as many intersecting pairs as probe edges
    active: list = []  # (hi, v) of intervals open at the sweep point
    pairs = 0
    for v in sorted(range(1, p + 1), key=lambda v: cert[v][0]):
        lo, hi = cert[v]
        while active and active[0][0] < lo:
            heapq.heappop(active)
        for _, u in active:
            if (min(u, v), max(u, v)) not in probe_edges:
                return f"probes {u} and {v} intersect but are not adjacent"
            pairs += 1
        heapq.heappush(active, (hi, v))
    if pairs != len(probe_edges):
        return "some adjacent probes have disjoint intervals"

    # probe-nonprobe: the endpoints inside each nonprobe interval
    ends = sorted((cert[v][side], v) for v in range(1, p + 1) for side in (0, 1))
    at = [x for x, _ in ends]
    for w in range(p + 1, n + 1):
        lo, hi = cert[w]
        inside = {v for _, v in ends[bisect_left(at, lo):bisect_right(at, hi)]}
        if inside != tag_nbrs.get(w, set()):
            return f"nonprobe {w}: interval {cert[w]} does not match its neighbours"
    return None
