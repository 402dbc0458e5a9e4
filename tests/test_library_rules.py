"""Source rules for the library: no ``assert`` (stripped under ``python -O``)
and no handler that swallows every error (bare ``except`` or ``except
Exception``), so bugs cannot turn into flags or silent passes; and no
``scipy`` import that runs when a module is imported (a statement at module
level, also inside a top-level ``if``, ``try``, ``with`` or class body), so
that ``import nmcbounds`` stays free of scipy and only the functions that
call scipy pay for loading it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nmcbounds"


def _import_time_nodes(node: ast.AST):
    """Every node under ``node`` that runs on import: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


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
    found += [(node.lineno, "module-level scipy import")
              for node in _import_time_nodes(tree) if _imports_scipy(node)]
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


def test_scipy_rule_fires_on_import_time_statements_only():
    code = ("import scipy\n"                                        # 1
            "import numpy, scipy.signal as sig\n"                   # 2
            "from scipy import special\n"                           # 3
            "if True:\n    from scipy.optimize import minimize\n"  # 5
            "try:\n    import scipy.stats\n"                        # 7
            "except ImportError:\n    pass\n"
            "class A:\n    from scipy import linalg\n"              # 11
            "def f():\n    from scipy import special\n"
            "async def g():\n    import scipy.signal\n"
            "h = lambda: __import__('scipy')\n"
            "import scipyx\n"
            "from .scipy import helper\n")
    assert _violations(ast.parse(code)) == [
        (line, "module-level scipy import") for line in (1, 2, 3, 5, 7, 11)]
