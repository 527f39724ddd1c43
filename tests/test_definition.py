"""The characterization against the interval definition, on every labelled
proper interval graph of at most five probes (tests/definition.py)."""

import pytest

from .definition import check, representations, run_sets


@pytest.mark.parametrize("p, graphs", [(1, 1), (2, 2), (3, 8), (4, 57), (5, 637)])
def test_runs_of_representations_match_runs_of_stair_sequences(p, graphs):
    # the labelled proper interval graphs on p vertices number 1, 2, 8, 57, 637
    assert check(p) == graphs


def test_representations_are_proper_and_closed():
    # two probes: apart, touching at one point, staggered, equal; a point
    # interval is a closed interval too, but may not sit strictly inside one
    reps = {}
    for edges, classes in representations(2):
        reps.setdefault(edges, []).append(tuple(map(sorted, classes)))
    assert ([1], [1], [2], [2]) in reps[frozenset()]
    assert ([1], [1, 2], [2]) in reps[frozenset({(1, 2)})]
    assert ([1], [2], [1], [2]) in reps[frozenset({(1, 2)})]
    assert ([1, 2], [1, 2]) in reps[frozenset({(1, 2)})]
    assert ([1], [1, 2], [2], [1]) not in reps[frozenset({(1, 2)})]  # 2 strictly inside 1
    assert len(reps[frozenset()]) == 2 * 4  # each of 1, 2 first, each a point or not
    assert run_sets([frozenset({1}), frozenset({2}), frozenset({1})]) == {
        frozenset({1}), frozenset({2}), frozenset({1, 2})}
