"""The source stays inside the Python version that pyproject.toml declares,
>=3.10, though the tests may run on a newer interpreter that would accept
newer syntax without a word."""

import ast
import re
from pathlib import Path

import ptpig
from ptpig import graph

FLOOR = (3, 10)
# a possessive repeat (*+, ++, ?+, {m,n}+) or an atomic group, which re
# accepts only from Python 3.11 on; an escaped quantifier is a literal
NEWER_REGEX = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")


def test_source_parses_at_the_python_floor():
    for path in sorted(Path(ptpig.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
    assert all(map(NEWER_REGEX.search, ("a*+", "a++", "a?+", "[0-9]{1,7}+", "(?>a)")))
    assert not any(map(NEWER_REGEX.search, (r"\++", "a+?", "(?:e [1-9][0-9]{0,6}\n)*")))
    patterns = [v.pattern for v in vars(graph).values() if isinstance(v, re.Pattern)]
    assert len(patterns) >= 2
    for pattern in patterns:
        assert not NEWER_REGEX.search(pattern), pattern
