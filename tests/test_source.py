"""The source stays inside the Python version that pyproject.toml declares,
>=3.10, though the tests may run on a newer interpreter that would accept
newer syntax without a word, and it holds only code that the program runs."""

import ast
import re
from pathlib import Path

import ptpig
from ptpig import graph

from .conftest import load_spans

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


def _unused(trees: dict, exempt: set) -> list:
    """The top-level functions and classes of trees (module -> AST) that no
    other code names, and the methods and properties that no other code
    reads as an attribute, as "name" or "Class.method"; a use inside the
    definition itself does not count, and dunders are exempt."""
    uses = []  # (module, line, name, read as an attribute)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((mod, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses.append((mod, node.lineno, node.attr, True))
    defs = []  # (qualified name, module, definition, is a method)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, mod, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", mod, m, True) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return [
        qual for qual, mod, node, method in defs
        if qual not in exempt and not any(
            (name, attr) == (node.name, method)
            and not (m == mod and node.lineno <= line <= node.end_lineno)
            for m, line, name, attr in uses)
    ]


def test_every_definition_is_used_by_the_program():
    # code that only tests call belongs in tests/; the public API and the
    # names the benchmark's tracer wraps are used from outside src/ptpig
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(ptpig.__file__).parent.glob("*.py"))}
    exempt = set(ptpig.__all__) | {attr for _, attr, _ in load_spans().TRACED}
    assert _unused(trees, exempt) == []
    toy = {"m.py": ast.parse("class A:\n    def f(self): return self.f()\n"
                             "    def g(self): pass\n\ndef h(): return h()\nA().g\nprint(f, A.h)\n")}
    assert _unused(toy, set()) == ["A.f", "h"]
    assert _unused(toy, {"h"}) == ["A.f"]
