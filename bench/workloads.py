"""Seeded inputs for the four benchmark workloads.

Every generator returns ``Instance`` objects: the tagged graph as an edge
list and as wire-format text, plus what is known about it without asking
the recognizer (a planted certificate, an oracle verdict, or both).  Only
``planted_sparse`` calls into the program (``generate``), the way
``ptpig bench`` makes its instances; the other families are built here so
that their make-up does not move when the program changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Instance:
    p: int
    q: int
    edges: list  # (u, v) pairs with u < v, sorted, no duplicates
    cert: dict | None = None  # planted interval certificate, if any
    expect: bool | None = None  # known verdict; None until the oracle says

    @property
    def size(self) -> int:
        return self.p + self.q + len(self.edges)

    def text(self) -> str:
        lines = [f"ptpig {self.p} {self.q}"]
        lines.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _finish(p: int, q: int, edges, cert) -> Instance:
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Instance(p, q, es, cert, True if cert is not None else None)


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """Same instance under a random renumbering of probes and of nonprobes.

    Tags are kept, so membership is unchanged: a known verdict carries over.
    """
    pp = list(range(1, inst.p + 1))
    qq = list(range(inst.p + 1, inst.p + inst.q + 1))
    rng.shuffle(pp)
    rng.shuffle(qq)
    new = [0, *pp, *qq]
    edges = [(new[u], new[v]) for u, v in inst.edges]
    cert = None if inst.cert is None else {new[v]: iv for v, iv in inst.cert.items()}
    out = _finish(inst.p, inst.q, edges, cert)
    out.expect = inst.expect
    return out


# -- planted layouts -----------------------------------------------------------


def _walk(rng: random.Random, first: int, count: int, base: int, overlap: float, L, R, owner):
    """Connected proper layout of probes first..first+count-1 on the slots
    base+1..base+2*count: both endpoint orders increase, and the only open
    interval is never closed while probes remain to be opened."""
    nxt_open = nxt_close = first
    stop = first + count
    for pos in range(base + 1, base + 2 * count + 1):
        if nxt_open < stop and (nxt_close >= nxt_open - 1 or rng.random() < overlap):
            L[nxt_open] = pos
            owner[pos] = nxt_open
            nxt_open += 1
        else:
            R[nxt_close] = pos
            owner[pos] = nxt_close
            nxt_close += 1


def planted_components(rng: random.Random, sizes, local: float, cross: float,
                       overlap: float = 0.5) -> Instance:
    """Probe components of the given sizes laid out left to right, one empty
    slot between neighbours, with nonprobe windows inside components and
    windows that cross the gaps (sometimes eating a whole small component).

    ``local`` is the expected number of in-component windows per probe and
    ``cross`` the chance that a gap is crossed.  Edges follow from endpoint
    containment, so the planted intervals are a certificate.
    """
    p = sum(sizes)
    L = [0] * (p + 1)
    R = [0] * (p + 1)
    owner = [0] * (2 * p + len(sizes) + 2)
    spans = []
    first, base = 1, 0
    for s in sizes:
        _walk(rng, first, s, base, overlap, L, R, owner)
        spans.append((base + 1, base + 2 * s))
        first += s
        base += 2 * s + 1
    windows = []
    for lo_c, hi_c in spans:
        s = (hi_c - lo_c + 1) // 2
        for _ in range(sum(rng.random() < local for _ in range(s))):
            lo = rng.randint(lo_c, hi_c)
            windows.append((lo, min(hi_c, lo + rng.randint(0, s))))
    for c in range(len(spans) - 1):
        if rng.random() < cross:
            lo = rng.randint(*spans[c])
            far = spans[min(len(spans) - 1, c + (2 if rng.random() < 0.2 else 1))]
            windows.append((lo, rng.randint(*far)))
    rng.shuffle(windows)
    cert = {v: (L[v], R[v]) for v in range(1, p + 1)}
    edges = []
    for v in range(1, p + 1):
        # probe intervals of one component, in order of left endpoint
        u = v + 1
        while u <= p and L[u] < R[v]:
            edges.append((v, u))
            u += 1
    for k, (lo, hi) in enumerate(windows, start=1):
        w = p + k
        cert[w] = (lo, hi)
        edges.extend((owner[x], w) for x in range(lo, hi + 1) if owner[x])
    return _finish(p, len(windows), edges, cert)


def perturb(inst: Instance, rng: random.Random, flips: int) -> Instance:
    """Flip a few probe-incident vertex pairs; the verdict is then unknown."""
    es = set(inst.edges)
    n = inst.p + inst.q
    for _ in range(flips if n > 1 else 0):
        u = rng.randint(1, inst.p)
        v = rng.choice([x for x in range(1, n + 1) if x != u])
        es.symmetric_difference_update({(min(u, v), max(u, v))})
    return Instance(inst.p, inst.q, sorted(es), None, None)


# -- the four workloads ----------------------------------------------------------


def planted_sparse(seed: int, n: int = 20_000) -> list[Instance]:
    """One connected planted instance from the program's generator, with
    the spec ``ptpig bench`` uses for size n."""
    from ptpig import GenSpec, generate

    q = n // 6
    p = n - q
    g, cert = generate(GenSpec(probes=p, nonprobes=q, seed=seed, overlap=0.3,
                               span=min(1.0, 3.5 / (2 * p))))
    edges = [(u, v) for u in range(1, g.n + 1) for v in g.adj[u] if u < v]
    return [Instance(g.p, g.q, edges, cert, True)]


def nested_clique(seed: int, m: int = 250) -> list[Instance]:
    """Probes form K_m and nonprobe w_k sees probes 1..k (k = 1..m).  Probe i
    gets [i, m+i] and w_k gets [m+1, m+k].  The seed renumbers probes 2..m
    and the nonprobes; probe 1, the one every nonprobe sees, keeps its
    number, because the recognizer's work depends on where the lowest
    numbered probe sits in the nesting."""
    rng = random.Random(seed)
    new = list(range(2, m + 1))
    rng.shuffle(new)
    new = [0, 1, *new]
    cert = {new[i]: (i, m + i) for i in range(1, m + 1)}
    edges = [(new[i], new[j]) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ws = list(range(m + 1, 2 * m + 1))
    rng.shuffle(ws)
    for k, w in enumerate(ws, start=1):
        cert[w] = (m + 1, m + k)
        edges.extend((new[i], w) for i in range(1, k + 1))
    return [_finish(m, m, edges, cert)]


def multi_comp(seed: int, comps: int = 1_500) -> list[Instance]:
    """Thousands of small probe components in one instance, with windows
    that cross the gaps between them."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 8) for _ in range(comps)]
    inst = planted_components(rng, sizes, local=0.5, cross=0.6)
    return [relabel(inst, rng)]


# ROADMAP item 2: a yes-instance (its certificate verifies) that the capped
# choice search in the recognizer rejects with FINAL_CHECK_FAIL n8.
def item2_instance() -> Instance:
    cert = {1: (1, 3), 2: (2, 4)}
    for v in range(3, 14):
        cert[v] = (v + 2, v + 13)
    nbrs = [
        {3, 4, 5, 6, 7, 8, 13}, {3, 6, 7, 8, 9, 10, 11, 12, 13},
        set(range(6, 14)), set(range(5, 14)), {3, 4, 5, 6},
        {1, 2, 3, 4, 5, 6}, set(range(9, 14)), {3, 4, 12, 13},
    ]
    wins = [(15, 21), (8, 16), (19, 26), (18, 26), (5, 8), (3, 8), (22, 26), (14, 17)]
    edges = [(1, 2)] + [(u, v) for u in range(3, 14) for v in range(u + 1, 14)]
    for k, (ns, iv) in enumerate(zip(nbrs, wins), start=14):
        cert[k] = iv
        edges.extend((u, k) for u in ns)
    return _finish(13, 8, edges, cert)


POOL_SEED = 20_160_711
POOL_SIZE = 2_000


def batch_pool(seed: int = POOL_SEED, size: int = POOL_SIZE) -> list[Instance]:
    """Small instances: one to three probe components with at most 7 probes
    in all (so a perturbation that joins components still leaves the oracle
    at most 8 per component), half of them planted and half perturbed."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        ncomp = rng.choice((1, 1, 2, 3))
        cuts = sorted(rng.sample(range(1, 7), ncomp - 1))
        total = rng.randint(max(ncomp, cuts[-1] + 1 if cuts else 1), 7)
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        inst = planted_components(rng, sizes, local=rng.choice((0.5, 1.0, 1.5)),
                                  cross=0.7, overlap=rng.random())
        if i % 2:
            inst = perturb(inst, rng, rng.randint(1, 3))
        out.append(inst)
    return out
