"""Planted instances: proper probe intervals plus nonprobe windows.

Probe endpoints come from a random balanced walk over 2p slots, so both
occurrence orders increase and the intervals are proper by construction;
nonprobe windows are random position intervals and edges follow from
endpoint containment.  The untouched instance is therefore a yes-instance
and its planted representation doubles as a checkable certificate.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .graph import TaggedGraph, tagged_graph


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one planted instance.

    overlap biases the endpoint walk toward keeping intervals open (more
    probe-probe edges); span scales the nonprobe window width as a fraction
    of the endpoint axis.  perturb > 0 flips that many probe-incident
    vertex pairs, after which nothing is guaranteed any more.
    """

    probes: int
    nonprobes: int
    seed: int = 0
    overlap: float = 0.5
    span: float = 0.05
    perturb: int = 0

    def __post_init__(self):
        if self.probes < 0 or self.nonprobes < 0 or self.perturb < 0:
            raise ValueError("counts must be non-negative")
        if not (0.0 <= self.overlap <= 1.0 and 0.0 <= self.span <= 1.0):
            raise ValueError("density factors must lie in [0, 1]")


def _endpoint_walk(rng: random.Random, p: int, overlap: float):
    """L, R and slot-owner arrays of a random balanced endpoint sequence.

    The walk opens the next interval with probability `overlap` whenever a
    close is also possible, except that it never closes the only open
    interval while others remain: the probe graph stays connected.
    """
    L = [0] * (p + 1)
    R = [0] * (p + 1)
    owner = [0] * (2 * p + 2)
    nxt_open = nxt_close = 1
    for pos in range(1, 2 * p + 1):
        if nxt_open <= p and (
            nxt_close >= nxt_open - 1  # zero or one open: must not close out
            or rng.random() < overlap
        ):
            L[nxt_open] = pos
            owner[pos] = nxt_open
            nxt_open += 1
        else:
            R[nxt_close] = pos
            owner[pos] = nxt_close
            nxt_close += 1
    return L, R, owner


def generate(spec: GenSpec) -> tuple[TaggedGraph, dict | None]:
    """Instance plus its planted representation (None once perturbed).

    Deterministic per seed.  With perturb=0 the returned dict maps every
    vertex to its interval and is a valid certificate for the instance.
    """
    rng = random.Random(spec.seed)
    p, q = spec.probes, spec.nonprobes
    L, R, owner = _endpoint_walk(rng, p, spec.overlap)
    edges = []
    for i in range(1, p + 1):
        j = i + 1
        while j <= p and L[j] < R[i]:
            edges.append((i, j))
            j += 1
    cert = {i: (L[i], R[i]) for i in range(1, p + 1)}
    axis = 2 * p + 1  # the slot past the last endpoint makes isolation possible
    width = int(spec.span * 2 * p)
    for k in range(1, q + 1):
        w = p + k
        lo = rng.randint(1, axis)
        hi = min(lo + (rng.randint(0, width) if width else 0), axis)
        cert[w] = (lo, hi)
        seen = {owner[pos] for pos in range(lo, min(hi, 2 * p) + 1)}
        seen.discard(0)
        edges.extend((v, w) for v in sorted(seen))
    if spec.perturb:
        # index i names the i-th flippable pair (u, v), u <= p, u < v, in
        # row-major order; sampling indices picks what sampling a list would
        n = p + q
        starts = list(accumulate((n - u for u in range(1, p)), initial=0))
        total = p * n - p * (p + 1) // 2
        es = set(edges)
        for i in rng.sample(range(total), min(spec.perturb, total)):
            u = bisect_right(starts, i)
            e = (u, u + 1 + i - starts[u - 1])
            if e in es:
                es.discard(e)
            else:
                es.add(e)
        return tagged_graph(p, q, sorted(es)), None
    return tagged_graph(p, q, edges), cert
