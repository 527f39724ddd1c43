"""Shared frozen instances.

Edge lists are written out in full so a failing test shows exactly which
graph broke; nothing here is generated at import time except the graphs
themselves.
"""

import importlib.util
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from ptpig import perfect_substring_bounds, tagged_graph
from ptpig.pqtree import MARK_LEFT, MARK_RIGHT, _Node

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Connected reduced-ish proper interval graph on 8 vertices (vertices 3 and 4
# are closed twins).  Stair sequence golden lives in test_proper.
EX22_EDGES = [
    (1, 2),
    (2, 3), (2, 4), (2, 5),
    (3, 4), (3, 5), (3, 6),
    (4, 5), (4, 6),
    (5, 6), (5, 7),
    (6, 7),
    (7, 8),
]

# Same probe part plus six nonprobes with neighborhoods
#   n1={2,5,6}  n2={2..6}  n3={4..8}  n4={1..6}  n5={}  n6={1..8}
EX36_EDGES = EX22_EDGES + [
    (9, 2), (9, 5), (9, 6),
    (10, 2), (10, 3), (10, 4), (10, 5), (10, 6),
    (11, 4), (11, 5), (11, 6), (11, 7), (11, 8),
    (12, 1), (12, 2), (12, 3), (12, 4), (12, 5), (12, 6),
    (14, 1), (14, 2), (14, 3), (14, 4), (14, 5), (14, 6), (14, 7), (14, 8),
]

# Rejected instance: n1={2,4,5} admits no perfect substring in the (unique up
# to reversal) probe sequence, n2={4,5,6} does.
EX33_EDGES = [
    (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6),
    (7, 2), (7, 4), (7, 5),
    (8, 4), (8, 5), (8, 6),
]

# Probe part is a claw (center 1), so the probe subgraph alone disqualifies.
G1_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 5), (2, 7),
    (3, 5), (3, 6), (3, 7),
    (4, 6), (4, 7),
]

# Interval certificate matching EX36 under the identity ordering.
TABLE_CERT = {
    1: (1, 3), 2: (2, 7), 3: (4, 9), 4: (5, 10),
    5: (6, 12), 6: (8, 13), 7: (11, 15), 8: (14, 16),
    9: (6, 8), 10: (4, 10), 11: (10, 16), 12: (1, 10),
    13: (17, 17), 14: (1, 16),
}

EX22_STAIR = (1, 2, 1, 3, 4, 5, 2, 6, 3, 4, 7, 5, 6, 8, 7, 8)
EX33_PROBE_STAIR = (1, 2, 1, 3, 4, 2, 3, 5, 4, 6, 5, 6)

# 4-cycle with one nonprobe (vertex 4): the smallest interval graph that is
# not an interval graph once the nonprobe is untagged.
C4_EDGES = [(1, 2), (2, 3), (1, 4), (3, 4)]
C4_CERT = {1: (1, 3), 2: (2, 5), 3: (4, 6), 4: (3, 4)}


# Texts in the form that parse_tagged_graph reads in bulk, each with an error
# on a line, and the message that names it.  The endpoint and the count of
# 5,000 digits are past int()'s default limit on digits.
BAD_WIRE_TEXTS = [
    ("ptpig 3 1\ne 0 2\n", "line 2: vertex 0 out of range (n=4)"),
    ("ptpig 3 1\ne 1 2\ne 2 5\n", "line 3: vertex 5 out of range (n=4)"),
    ("ptpig 3 1\ne 1 2\ne 3 3\n", "line 3: self-loop at vertex 3"),
    ("ptpig 1000000 1\ne 1 2\n", "line 1: more than 1000000 vertices"),
    ("ptpig 3 1\ne 1 " + "9" * 5000 + "\n", "line 2: non-integer endpoint"),
    ("ptpig " + "9" * 5000 + " 1\ne 1 2\n", "line 1: non-integer counts"),
    # int() reads these, but a numeral is ASCII digits after an optional minus
    ("ptpig 10 1\ne 1 1_0\n", "line 2: non-integer endpoint"),
    ("ptpig 3 1\ne +1 2\n", "line 2: non-integer endpoint"),
    ("ptpig 3 1\ne 1 \u0662\n", "line 2: non-integer endpoint"),
    ("ptpig +3 1\ne 1 2\n", "line 1: non-integer counts"),
    ("ptpig 3 1_0\ne 1 2\n", "line 1: non-integer counts"),
    ("ptpig -1 1\ne 1 2\n", "line 1: negative count"),
    ("ptpig 3 1\ne 1 -2\n", "line 2: vertex -2 out of range (n=4)"),
]


def strip_markers(order) -> tuple:
    """Read an ordering of universe∪markers with the left marker first."""
    xs = list(order)
    if xs and xs[-1] == MARK_LEFT:
        xs.reverse()
    return tuple(x for x in xs if x != MARK_LEFT and x != MARK_RIGHT)


def serialize(tree) -> str:
    """A PQ-tree's nested-parentheses form, e.g. ``P(1 Q(2 3 4) 5)``."""
    if tree._root is None:
        return "()"
    # the stack holds nodes still to render and the text between them
    out = []
    stack = [tree._root]
    while stack:
        item = stack.pop()
        if not isinstance(item, _Node):
            out.append(item)
        elif item.kind == "L":
            out.append(str(item.label))
        else:
            out.append(f"{item.kind}(")
            stack.append(")")
            for i, c in enumerate(reversed(item.children())):
                stack.extend((" ", c) if i else (c,))
    return "".join(out)


def searched_windows(g, cs) -> dict:
    """build_certificate's windows for a bare sequence: each neighbourhood,
    keyed by g.adj[w], to its leftmost perfect substring in cs, where one
    exists."""
    windows = {}
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if nbrs and (got := perfect_substring_bounds(cs, nbrs)) is not None:
            windows[nbrs] = got
    return windows


def load_spans():
    """bench/spans.py, loaded from its file: bench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def no_line_scan(text):
    """Stands in for the line scanner where text must be read in bulk."""
    raise AssertionError("line scanner reached")


@contextmanager
def shallow_stack(frames: int):
    """Allow only `frames` more stack frames than the caller has now."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def ex22():
    return tagged_graph(8, 0, EX22_EDGES)


@pytest.fixture(scope="session")
def ex36():
    return tagged_graph(8, 6, EX36_EDGES)


@pytest.fixture(scope="session")
def ex33():
    return tagged_graph(6, 2, EX33_EDGES)


@pytest.fixture(scope="session")
def g1():
    return tagged_graph(4, 3, G1_EDGES)


@pytest.fixture(scope="session")
def c4():
    return tagged_graph(3, 1, C4_EDGES)
