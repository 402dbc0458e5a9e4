"""Source rules for the library: no ``assert`` (stripped under ``python -O``)
and no handler that swallows every error (bare ``except`` or ``except
Exception``), so bugs cannot turn into flags or silent passes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nmcbounds"


def _violations(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None:
                found.append((node.lineno, "bare except"))
            elif any(isinstance(n, ast.Name) and n.id == "Exception" for n in names):
                found.append((node.lineno, "except Exception"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_and_no_catch_all(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_rule_detects_each_pattern():
    code = ("assert x\n"
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert [kind for _, kind in _violations(ast.parse(code))] == [
        "assert", "bare except", "except Exception"]
