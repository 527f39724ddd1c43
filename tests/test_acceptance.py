"""Acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible under
-v with -s, and in the captured output on failure) before asserting.
The random sweeps are seeded, so every run exercises the same instances.
"""

import itertools
import random
import time

from ptpig import (
    GenSpec,
    canonical_sequence,
    generate,
    oracle_recognize,
    probe_subgraph,
    recognize,
    recognize_proper_interval,
    tagged_graph,
    two_stretch_filter,
    verify_certificate,
)
from ptpig.cli import main, run_bench

from .conftest import C4_CERT, C4_EDGES, EX22_STAIR, TABLE_CERT
from .test_pqtree import PQTree, brute_consecutive, frontier_set, oriented_agrees


def report(ok: bool, label: str) -> None:
    print(("PASS" if ok else "FAIL") + " " + label)
    assert ok, label


def best_of(f, reps=5):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        out.append(time.perf_counter() - t0)
    return min(out)


def mirrored(cert, top):
    flipped = {}
    for v, (lo, hi) in cert.items():
        if lo > top:  # parked isolated nonprobes stay put
            flipped[v] = (lo, hi)
        else:
            flipped[v] = (top + 1 - hi, top + 1 - lo)
    return flipped


def test_criterion_1_stair_sequence_golden(ex22):
    pg = probe_subgraph(ex22)

    def run():
        return canonical_sequence(pg, recognize_proper_interval(pg)).seq

    got = run()
    ok = got in (EX22_STAIR, tuple(reversed(EX22_STAIR)))
    elapsed = best_of(run)
    ok = ok and elapsed < 1e-3
    report(ok, f"criterion 1: stair sequence exact golden ({elapsed * 1e6:.0f} us)")


def test_criterion_2_certificate_golden(ex36):
    res = recognize(ex36)
    ok = res.accepted
    if ok:
        cert = res.certificate
        ok = cert in (TABLE_CERT, mirrored(TABLE_CERT, 16))
    elapsed = best_of(lambda: recognize(ex36))
    ok = ok and elapsed < 1e-3
    report(ok, f"criterion 2: accepted with the published intervals ({elapsed * 1e6:.0f} us)")


def test_criterion_3_rejection_goldens(ex33, g1):
    r1 = recognize(ex33)
    r2 = recognize(g1)
    ok = (not r1.accepted and r1.reason == "A1_FAIL" and r1.witness == 7
          and not r2.accepted and r2.reason == "PROBE_NOT_PROPER")
    report(ok, "criterion 3: rejection verdicts and witnesses exact")


def test_criterion_4_class_separation(tmp_path):
    claw = tagged_graph(3, 1, [(4, 1), (4, 2), (4, 3)])
    res = recognize(claw)
    ok = res.accepted and verify_certificate(claw, res.certificate) is None

    gpath = tmp_path / "c4.txt"
    gpath.write_text("ptpig 3 1\n" + "".join(f"e {u} {v}\n" for u, v in C4_EDGES))
    cpath = tmp_path / "c4.cert"
    cpath.write_text("".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(C4_CERT.items())))
    ok = ok and main(["verify", str(gpath), str(cpath)]) == 0
    report(ok, "criterion 4: nonprobe-center claw accepted, 4-cycle representation verifies")


def _tagged_adjacent(rep: dict, p: int, u: int, v: int) -> bool:
    """Adjacency of u < v in the tagged probe interval graph of the
    intervals rep, probes 1..p: probes whose intervals meet, and a probe and
    a nonprobe whose interval holds an endpoint of the probe's."""
    if v <= p:
        return max(rep[u][0], rep[v][0]) <= min(rep[u][1], rep[v][1])
    lo, hi = rep[v]
    return u <= p and any(lo <= x <= hi for x in rep[u])


def test_criterion_4_tpig_gap_golden():
    # probes K_4, nonprobes 5, 6 and 7 seeing {3, 4}, {1, 4} and {2, 4}: a
    # tagged probe interval graph with a proper probe part, yet not a
    # proper one.  Its block is complete, so its sets are arcs of one circle
    # and probe 4 cannot end three of them; rep, where interval 3 strictly
    # holds the others, is a TPIG representation that verify_certificate
    # refuses as no proper one
    g = tagged_graph(4, 3, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
                     + [(3, 5), (4, 5), (1, 6), (4, 6), (2, 7), (4, 7)])
    rep = {1: (0, 1), 2: (0, 2), 3: (0, 4), 4: (1, 3), 5: (3, 4), 6: (1, 1), 7: (2, 3)}
    res = recognize(g)
    ok = (res.accepted, res.reason, res.witness) == (False, "FINAL_CHECK_FAIL", 7)
    ok = ok and not oracle_recognize(g)
    ok = ok and all((v in g.adj[u]) == _tagged_adjacent(rep, g.p, u, v)
                    for u, v in itertools.combinations(range(1, g.n + 1), 2))
    ok = ok and verify_certificate(g, rep) == ("containment", 3, 2)
    report(ok, "criterion 4: a TPIG with a proper probe part but no proper"
               " representation is rejected, FINAL_CHECK_FAIL n3")


def _exhaustive_cases():
    for p in range(0, 5):
        for q in range(0, 2):
            pool = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
            pool += [(i, p + 1) for i in range(1, p + 1)] if q else []
            for r in range(len(pool) + 1):
                for edges in itertools.combinations(pool, r):
                    yield tagged_graph(p, q, edges)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    checked = mismatches = unsound = 0

    def check(g):
        nonlocal checked, mismatches, unsound
        res = recognize(g)
        if res.accepted != oracle_recognize(g):
            mismatches += 1
        if res.accepted and verify_certificate(g, res.certificate) is not None:
            unsound += 1
        checked += 1

    for g in _exhaustive_cases():
        check(g)
    exhaustive = checked

    rng = random.Random(202608)
    perturb_cycle = (0, 0, 1, 2, 0, 4)
    for i in range(10_000):
        p = rng.randint(1, 8)
        q = rng.randint(0, 3)
        spec = GenSpec(
            p, q, seed=rng.getrandbits(48),
            overlap=rng.random(), span=rng.random(),
            perturb=perturb_cycle[i % len(perturb_cycle)],
        )
        g, _ = generate(spec)
        check(g)

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and unsound == 0 and elapsed < 600
    report(ok, (f"criterion 5: oracle agreement on {exhaustive} exhaustive + "
                f"{checked - exhaustive} random instances in {elapsed:.1f}s"))


def test_criterion_6_pqtree_equivalence():
    rng = random.Random(6_2026)
    bad = 0
    for _ in range(500):
        n = rng.randint(3, 7)
        universe = list(range(1, n + 1))
        sets = []
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(2, n)
            sets.append(frozenset(rng.sample(universe, k)))
        tree = PQTree(universe)
        feasible = all(tree.restrict(s) for s in sets)
        expect = brute_consecutive(universe, sets)
        got = frontier_set(tree, 50_000) if feasible else set()
        if got != expect:
            bad += 1

    for _ in range(500):
        n = rng.randint(2, 6)
        universe = list(range(1, n + 1))
        pairs = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, n)
            pairs.append((frozenset(rng.sample(universe, k)), rng.choice((0, -1, 1, 2))))
        if not oriented_agrees(universe, pairs):
            bad += 1

    report(bad == 0, "criterion 6: 500 restrict + 500 oriented sequences match brute force")


def test_criterion_7_soundness():
    rng = random.Random(777)
    accepted = violations = 0
    for i in range(1_500):
        g, _ = generate(GenSpec(
            rng.randint(1, 12), rng.randint(0, 4), seed=i,
            overlap=rng.random(), span=rng.random(),
            perturb=(0, 1, 3)[i % 3],
        ))
        res = recognize(g)
        if res.accepted:
            accepted += 1
            if verify_certificate(g, res.certificate) is not None:
                violations += 1
    ok = violations == 0 and accepted > 0
    report(ok, f"criterion 7: {accepted} accepted instances, every certificate verified")


def test_criterion_8_empirical_linearity():
    t0 = time.perf_counter()
    rep = run_bench((10_000, 20_000, 40_000, 80_000), seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.slope is not None and rep.slope <= 1.25 and elapsed < 30
    report(ok, f"criterion 8: log-log slope {rep.slope:.3f} in {elapsed:.1f}s")


def test_criterion_9_filter_consistency(ex33):
    rng = random.Random(909)
    ok = True
    for i in range(600):
        g, _ = generate(GenSpec(
            rng.randint(1, 10), rng.randint(0, 4), seed=1000 + i,
            overlap=rng.random(), span=rng.random(),
            perturb=(0, 2)[i % 2],
        ))
        res = recognize(g)
        if res.accepted:
            order = list(dict.fromkeys(res.sequence.seq))
            if two_stretch_filter(g, order) is not None:
                ok = False

    # the filter alone is satisfied by a graph the recognizer refuses
    probe_order = recognize_proper_interval(probe_subgraph(ex33))
    ok = ok and two_stretch_filter(ex33, probe_order) is None
    ok = ok and not recognize(ex33).accepted
    report(ok, "criterion 9: accepted orderings pass the two-stretch filter; filter alone is not sufficient")
