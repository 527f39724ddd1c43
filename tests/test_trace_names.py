"""The benchmark's tracer wraps program functions by name (bench/spans.py);
a rename in src/ptpig must not leave one of those names dangling."""

import importlib

from .conftest import load_spans


def test_every_traced_name_resolves():
    spans = load_spans()
    assert spans.TRACED
    for modname, attr, _ in spans.TRACED:
        obj = importlib.import_module(f"ptpig.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"ptpig.{modname}.{attr}"
