"""verify_certificate against a reference: the plain pairwise verifier.

``reference_verify`` checks pairwise: one adjacency lookup per intersecting
probe pair, then a second walk over every probe edge.  It is slow and
plainly faithful to the definition, so verify_certificate, which works in a
few sorted passes, must name the same first violation on every certificate,
valid or tampered.
"""

import ast
import builtins
import importlib
import random
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path

from ptpig import GenSpec, generate, tagged_graph, validate_nonprobe_independence, verify_certificate

from .test_recognize import _flip, _planted_components


def _has_edge(g, u, v):
    a = g.adj[u]
    i = bisect_left(a, v)
    return i < len(a) and a[i] == v


def reference_verify(g, cert):
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
    p = g.p

    keyed = sorted(range(1, p + 1), key=lambda v: (cert[v][0], -cert[v][1]))
    widest = None
    for v in keyed:
        lo, hi = cert[v]
        if widest is not None and hi <= cert[widest][1]:
            if (lo, hi) != cert[widest]:
                return ("containment", widest, v)
        if widest is None or hi > cert[widest][1]:
            widest = v

    order = sorted(range(1, p + 1), key=lambda v: cert[v])
    los = [cert[v][0] for v in order]
    for idx, u in enumerate(order):
        hi_u = cert[u][1]
        jdx = idx + 1
        while jdx < p and los[jdx] <= hi_u:
            v = order[jdx]
            if not _has_edge(g, u, v):
                return ("probe-adjacency", u, v)
            jdx += 1
    for u in range(1, p + 1):
        for v in g.adj[u]:
            if u < v <= p:
                if max(cert[u][0], cert[v][0]) > min(cert[u][1], cert[v][1]):
                    return ("probe-adjacency", u, v)

    endpoints = sorted((cert[v][side], v) for v in range(1, p + 1) for side in (0, 1))
    values = [x for x, _ in endpoints]
    for w in range(p + 1, g.n + 1):
        lo, hi = cert[w]
        i = bisect_left(values, lo)
        j = bisect_right(values, hi)
        inside = {v for _, v in endpoints[i:j]}
        actual = set(g.adj[w])
        if inside != actual:
            off = min(inside.symmetric_difference(actual))
            return ("tag-adjacency", w, off)
    return None


def _nested_clique(m):
    """Probes form K_m, probe i on [i, m + i]; nonprobe m + k sees probes
    1..k on [m + 1, m + k]."""
    cert = {i: (i, m + i) for i in range(1, m + 1)}
    cert.update({m + k: (m + 1, m + k) for k in range(1, m + 1)})
    edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    edges += [(u, m + k) for k in range(1, m + 1) for u in range(1, k + 1)]
    return tagged_graph(m, m, edges), cert


def _past_every_endpoint(g, cert):
    """The smallest probe that has a neighbour moved past every endpoint."""
    v = next((u for u in range(1, g.p + 1) if g.adj[u]), None)
    if v is None:
        return None
    top = max(hi for _, hi in cert.values())
    return {**cert, v: (top + 1, top + 2)}


def _tampered(rng, g, cert):
    """Certificates near cert: endpoint shifts, swaps, drops, stray keys,
    one probe moved away, and cert itself on a slightly different graph."""
    keys = list(cert)
    for _ in range(8):
        v = rng.choice(keys)
        lo, hi = cert[v]
        d = rng.choice((-2, -1, 1, 2))
        yield g, {**cert, v: (lo + d, hi) if rng.random() < 0.5 else (lo, hi + d)}
    for _ in range(4):
        if len(keys) > 1:
            u, v = rng.sample(keys, 2)
            yield g, {**cert, u: cert[v], v: cert[u]}
    yield g, {v: iv for v, iv in cert.items() if v != rng.choice(keys)}
    yield g, {**cert, rng.choice((0, g.n + 1, g.n + 7, "x")): (1, 1)}
    moved = _past_every_endpoint(g, cert)
    if moved is not None:
        yield g, moved
    if g.p:
        yield _flip(rng, g, rng.randint(1, 2)), cert


def test_matches_reference_on_tampered_certificates():
    rng = random.Random(2_016)
    planted = [_nested_clique(m) for m in (1, 2, 12, 40)]
    for i in range(150):
        if i % 2:
            planted.append(generate(GenSpec(rng.randint(1, 40), rng.randint(0, 20),
                                            seed=rng.randrange(2**32), overlap=rng.random(),
                                            span=rng.choice((0.02, 0.1, 0.4)))))
        else:
            sizes = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
            planted.append(_planted_components(rng, sizes))
    tampered = 0
    kinds = set()
    for g, cert in planted:
        assert verify_certificate(g, cert) is None and reference_verify(g, cert) is None
        for h, bad in _tampered(rng, g, cert):
            got = verify_certificate(h, bad)
            assert got == reference_verify(h, bad), (h, bad)
            tampered += 1
            kinds.add(None if got is None else got[0])
    assert tampered >= 2_000
    assert kinds >= {None, "missing-interval", "unknown-vertex", "containment",
                     "probe-adjacency", "tag-adjacency"}


def test_same_hi_is_containment():
    # sorted by (lo, hi), hi never decreases here, yet (11, 12) lies inside
    # (10, 12)
    g = tagged_graph(2, 0, [(1, 2)])
    cert = {1: (10, 12), 2: (11, 12)}
    assert verify_certificate(g, cert) == reference_verify(g, cert) == ("containment", 1, 2)
    cert = {1: (10, 12), 2: (10, 11)}
    assert verify_certificate(g, cert) == reference_verify(g, cert) == ("containment", 1, 2)


def test_edge_between_disjoint_intervals():
    # every intersecting pair (1, 2) and (2, 3) is an edge, but so is 13,
    # whose intervals do not meet
    g = tagged_graph(3, 0, [(1, 2), (2, 3), (1, 3)])
    cert = {1: (1, 3), 2: (2, 5), 3: (4, 6)}
    assert verify_certificate(g, cert) == reference_verify(g, cert) == ("probe-adjacency", 1, 3)


VERIFIER = ("verify_certificate", "_first_containment", "_first_disjoint_edge")


def test_verifier_loads_only_the_standard_library_graph_and_builtins():
    # the verifier is deliberately independent of the recognizer that shares
    # its module: its three functions read no name but a builtin, one of
    # recognize.py's standard-library imports, a name imported from .graph,
    # or each other
    path = Path(importlib.import_module("ptpig.recognize").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set(dir(builtins)) | set(VERIFIER)
    for node in tree.body:  # recognize.py imports only with from
        if isinstance(node, ast.ImportFrom) and (
            node.module == "graph" if node.level else node.module.split(".")[0] in sys.stdlib_module_names
        ):
            allowed |= {a.asname or a.name for a in node.names}
    assert "bisect_right" in allowed and "validate_nonprobe_independence" in allowed
    assert "PQTree" not in allowed and "perfect_substring_bounds" not in allowed
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in VERIFIER:
        local = {a.arg for a in ast.walk(defs[name]) if isinstance(a, ast.arg)}
        loads = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                (loads if isinstance(node.ctx, ast.Load) else local).add(node.id)
        assert loads - local <= allowed, (name, sorted(loads - local - allowed))
