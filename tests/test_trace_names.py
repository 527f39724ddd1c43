"""The benchmark's tracer wraps program functions by name (bench/spans.py);
a rename in src/ptpig must not leave one of those names dangling."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for modname, attr, _ in spans.TRACED:
        obj = importlib.import_module(f"ptpig.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"ptpig.{modname}.{attr}"
