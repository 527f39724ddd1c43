import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ptpig import (
    GenSpec,
    connected_components,
    generate,
    oracle_recognize,
    probe_subgraph,
    recognize,
    serialize_tagged_graph,
    tagged_graph,
    validate_nonprobe_independence,
    verify_certificate,
)
from ptpig.generate import _endpoint_walk


def test_deterministic_per_seed():
    a, ca = generate(GenSpec(20, 6, seed=11))
    b, cb = generate(GenSpec(20, 6, seed=11))
    assert serialize_tagged_graph(a) == serialize_tagged_graph(b) and ca == cb
    c, _ = generate(GenSpec(20, 6, seed=12))
    assert serialize_tagged_graph(a) != serialize_tagged_graph(c)


def test_planted_instances_carry_their_proof():
    g, cert = generate(GenSpec(40, 12, seed=3))
    assert verify_certificate(g, cert) is None
    assert recognize(g).accepted


def test_probe_part_stays_connected():
    for seed in range(8):
        g, _ = generate(GenSpec(30, 5, seed=seed, overlap=0.2))
        assert len(connected_components(probe_subgraph(g)).components) == 1


def test_small_seeded_examples():
    g, _ = generate(GenSpec(3, 1, seed=7))
    assert recognize(g).accepted

    g, cert = generate(GenSpec(0, 2, seed=0))
    assert g.p == 0 and g.q == 2 and g.edge_count == 0
    assert recognize(g).accepted and verify_certificate(g, cert) is None

    g, _ = generate(GenSpec(8, 3, seed=1))
    assert recognize(g).accepted and oracle_recognize(g)


def test_perturbed_loses_the_certificate():
    g, cert = generate(GenSpec(10, 3, seed=5, perturb=4))
    assert cert is None
    # flips touch only probe-incident pairs, so independence must survive
    assert validate_nonprobe_independence(g) is None


def listed_perturbation(spec):
    """generate() as first written, the reference for its perturbation: it
    lists every flippable pair and samples the list."""
    rng = random.Random(spec.seed)
    p, q = spec.probes, spec.nonprobes
    L, R, owner = _endpoint_walk(rng, p, spec.overlap)
    edges = []
    for i in range(1, p + 1):
        j = i + 1
        while j <= p and L[j] < R[i]:
            edges.append((i, j))
            j += 1
    axis = 2 * p + 1
    width = int(spec.span * 2 * p)
    for k in range(1, q + 1):
        w = p + k
        lo = rng.randint(1, axis)
        hi = min(lo + (rng.randint(0, width) if width else 0), axis)
        seen = {owner[pos] for pos in range(lo, min(hi, 2 * p) + 1)}
        seen.discard(0)
        edges.extend((v, w) for v in sorted(seen))
    flippable = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + q + 1)]
    es = set(edges)
    for e in rng.sample(flippable, min(spec.perturb, len(flippable))):
        es.symmetric_difference_update({e})
    return tagged_graph(p, q, sorted(es))


def test_perturbation_matches_listed_pairs():
    for p, q, perturb, seed in itertools.product(range(7), range(4), (1, 2, 5, 40), range(3)):
        spec = GenSpec(p, q, seed=seed, span=0.3, perturb=perturb)
        got, _ = generate(spec)
        assert serialize_tagged_graph(got) == serialize_tagged_graph(listed_perturbation(spec))
    # 2,000 probes have about 2e6 flippable pairs: listing them peaks at
    # about 200 MB, the instance itself at about 13 MB
    tracemalloc.start()
    try:
        g, _ = generate(GenSpec(2000, 0, perturb=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.p == 2000 and peak < 50e6


def test_bad_specs_raise():
    with pytest.raises(ValueError):
        GenSpec(-1, 0)
    with pytest.raises(ValueError):
        GenSpec(2, -2)
    with pytest.raises(ValueError):
        GenSpec(2, 2, overlap=1.5)
    with pytest.raises(ValueError):
        GenSpec(2, 2, span=-0.1)
    with pytest.raises(ValueError):
        GenSpec(2, 2, perturb=-1)
    # over the vertex limit: refused when the spec is built, so generate
    # never allocates for it
    for probes, nonprobes in ((1_000_001, 0), (0, 1_000_001), (500_001, 500_000)):
        with pytest.raises(ValueError, match="more than 1000000 vertices"):
            GenSpec(probes, nonprobes)


@given(
    st.integers(0, 14),
    st.integers(0, 5),
    st.integers(0, 2 ** 32),
    st.floats(0, 1),
    st.floats(0, 1),
)
@settings(max_examples=120, deadline=None)
def test_planted_always_accepts(p, q, seed, overlap, span):
    g, cert = generate(GenSpec(p, q, seed=seed, overlap=overlap, span=span))
    assert verify_certificate(g, cert) is None
    res = recognize(g)
    assert res.accepted
    assert verify_certificate(g, res.certificate) is None


@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 500), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_perturbed_matches_oracle(p, q, seed, perturb):
    g, _ = generate(GenSpec(p, q, seed=seed, perturb=perturb))
    assert recognize(g).accepted == oracle_recognize(g)
