"""Spans around the program's public functions, installed from outside.

The program's modules import each other's functions by name, so wrapping a
function means replacing every module binding of it, and the PQ-tree's
methods on the class.  Each call records a span (id, name, start, end, parent)
in memory; self time is the span's duration minus the time of the spans it
encloses.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, layer metric name); methods are "Class.method"
TRACED = (
    ("graph", "parse_tagged_graph", "graph.parse"),
    ("graph", "validate_nonprobe_independence", "graph.independence"),
    ("graph", "probe_subgraph", "graph.probe_subgraph"),
    ("graph", "connected_components", "graph.components"),
    ("graph", "compute_blocks", "graph.compute_blocks"),
    ("proper", "recognize_proper_interval", "proper.recognize_proper_interval"),
    ("proper", "canonical_sequence", "proper.canonical_sequence"),
    ("proper", "sequence_from_iterable", "proper.sequence_from_iterable"),
    ("pqtree", "PQTree.__init__", "pqtree.init"),
    ("pqtree", "PQTree.restrict", "pqtree.restrict"),
    ("pqtree", "PQTree.orestrict", "pqtree.orestrict"),
    ("pqtree", "PQTree.clone", "pqtree.clone"),
    ("pqtree", "PQTree.frontier", "pqtree.frontier"),
    ("recognize", "block_window_candidates", "recognize.block_window_candidates"),
    ("recognize", "perfect_substring_bounds", "recognize.perfect_substring_bounds"),
    ("recognize", "check_perfect_substrings", "recognize.check_perfect_substrings"),
    ("recognize", "build_certificate", "recognize.build_certificate"),
    ("recognize", "recognize", "recognize.self"),
    ("recognize", "verify_certificate", "verify.verify_certificate"),
)
NAMES = tuple(name for _, _, name in TRACED)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.spans: list = []  # (id, name, start_ns, end_ns, parent id)
        self.self_ns = dict.fromkeys(NAMES, 0)
        self.calls = dict.fromkeys(NAMES, 0)
        self.restrict_leaves = 0
        self.restrict_failed = 0
        self._stack: list = []  # [span id, child ns] of the open spans
        self._undo: list = []

    def take(self) -> tuple[dict, list]:
        """Per-name self seconds and call counts, and the spans, recorded
        since the last take."""
        out = {}
        for name in NAMES:
            out[f"{name}_s"] = self.self_ns[name] / 1e9
            out[f"{name}_calls"] = self.calls[name]
            self.self_ns[name] = 0
            self.calls[name] = 0
        out["pqtree.restrict_leaves"] = self.restrict_leaves
        out["pqtree.restrict_failed"] = self.restrict_failed
        self.restrict_leaves = self.restrict_failed = 0
        spans, self.spans = self.spans, []
        return out, spans

    def _wrap(self, fn, name):
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_ns[name] += dur - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                tracer.spans[sid] = (sid, name, start, end, parent)

        return traced

    def _wrap_restrict(self, fn):
        inner = self._wrap(fn, "pqtree.restrict")

        def restrict(tree, s):
            self.restrict_leaves += len(s)
            ok = inner(tree, s)
            if not ok:
                self.restrict_failed += 1
            return ok

        return restrict

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "ptpig" or k.startswith("ptpig.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[f"ptpig.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                new = self._wrap_restrict(fn) if name == "pqtree.restrict" else self._wrap(fn, name)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            new = self._wrap(fn, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._undo):
            setattr(obj, key, fn)
        self._undo.clear()
