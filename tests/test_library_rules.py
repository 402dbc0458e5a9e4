"""Source rules for the library: no ``assert`` (stripped under ``python -O``)
and no handler that swallows every error (bare ``except`` or ``except
Exception``), so bugs cannot turn into flags or silent passes; no
``scipy`` import that runs when a module is imported (a statement at module
level, also inside a top-level ``if``, ``try``, ``with`` or class body), so
that ``import nmcbounds`` stays free of scipy and only the functions that
call scipy pay for loading it; no BLAS call (``@``, ``np.dot`` and the
like, ``np.linalg``, einsum's ``optimize=``) in the EM core or the flow
engine, whose results must not depend on the BLAS kernel; and no public
function or class that only the tests reach."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nmcbounds"


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


# ---------------------------------------------------------------------------
# no BLAS in the EM core, the flow engine, the exact alpha_k and the
# fixed-point solve: a BLAS call rounds as the machine's kernel does, so the
# EM fits and the sampled products contract with einsums that numpy runs in
# its own loops (no optimize=), and the Newton steps solve by elementwise
# Gauss-Jordan elimination

BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}
BLAS_FREE = {"ghmm": None,
             "chain": ("_free_steps", "_flow_steps", "_batch_product", "_solve"),
             "bounds": ("_alpha_of_matrix", "_sampled_kstep"),
             "experiments": ("_pairwise_total", "tv_envelope")}


def _blas_uses(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and (
                "linalg" in node.module or any(a.name in BLAS_NAMES for a in node.names)):
            found.append((node.lineno, "import"))
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append((node.lineno, "einsum optimize="))
    return found


@pytest.mark.parametrize("module", sorted(BLAS_FREE))
def test_no_blas_in_the_em_core_or_the_flow_engine(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = BLAS_FREE[module]
    nodes = [tree] if names is None else [n for n in tree.body if getattr(n, "name", None) in names]
    assert names is None or len(nodes) == len(names)
    assert [use for node in nodes for use in _blas_uses(node)] == []


def test_blas_rule_detects_each_pattern():
    code = ("a @ b\n"
            "a @= b\n"
            "np.dot(a, b)\n"
            "np.matmul(a, b)\n"
            "np.inner(a, b)\n"
            "np.tensordot(a, b)\n"
            "np.linalg.eigvals(a)\n"
            "np.einsum('ij,jk->ik', a, b, optimize=True)\n"
            "from numpy.linalg import inv\n"
            "from numpy import dot\n"
            "a.dot(b)\n"
            "np.einsum('ij,jk->ik', a, b)\n"
            "a * b\n")
    assert sorted(line for line, _ in _blas_uses(ast.parse(code))) == list(range(1, 12))


# ---------------------------------------------------------------------------
# public surface

PACKAGE = "nmcbounds"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}

# public names that nothing in src/, demos/ or perfbench/ calls, and why they stay
SURFACE_ALLOWLIST = {
    ("bounds", "initial_distance_bruteforce"): "criterion 6 API",
    ("bounds", "perturbation_bound"): "criterion 7 API",
    ("bounds", "likelihood_ratio_moments"): "criterion 8 API",
    ("ghmm", "fit_baum_welch"): "criterion 10 API",
    ("ghmm", "sample_ghmm"): "criterion 10 API",
    ("chain", "evaluate_kernel"): "rebound by name in perfbench/spans.py",
    ("bounds", "lipschitz_lambda"): "rebound by name in perfbench/spans.py; scalar face of "
                                     "the sampled k-step core",
    ("ghmm", "random_init"): "rebound by name in perfbench/spans.py",
    ("volatility", "transition_tv_bound"): "rebound by name in perfbench/spans.py",
}


def _top_level_defs(tree: ast.AST) -> dict:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _imported_module(node: ast.ImportFrom, inside: bool):
    """The package module an import names ("__init__" for the package
    itself), or None when it imports from elsewhere."""
    if node.level:
        return (node.module or "__init__") if inside else None
    if node.module == PACKAGE:
        return "__init__"
    if node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def _bindings(tree: ast.AST, inside: bool) -> dict:
    """Local name -> ("module", m) or ("name", m, name) for every import of
    the package in ``tree``, wherever it stands."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node, inside)
            if module is None:
                continue
            for alias in node.names:
                target = (("module", alias.name) if module == "__init__" and alias.name in MODULES
                          else ("name", module, alias.name))
                out[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == PACKAGE or alias.name.startswith(PACKAGE + "."):
                    if alias.asname:
                        out[alias.asname] = ("module", alias.name[len(PACKAGE) + 1:] or "__init__")
                    else:
                        out[PACKAGE] = ("module", "__init__")
    return out


def _canonical(module: str, name: str, seen=()):
    """(module, name) of the definition a package-level name resolves to,
    following re-exports; None when it is not defined in the package."""
    if module not in MODULES or (module, name) in seen:
        return None
    if name in _top_level_defs(MODULES[module]):
        return module, name
    target = _bindings(MODULES[module], inside=True).get(name)
    if target is None or target[0] != "name":
        return None
    return _canonical(target[1], target[2], seen + ((module, name),))


def _references(tree: ast.AST, own: str | None = None) -> set:
    """The (module, name) definitions that loads in ``tree`` reach: names
    bound by imports of the package, attributes of imported package modules
    and, for a package module ``own``, its own top-level names used outside
    their own definition.  Other attributes (``args.kappa``) reach nothing."""
    bindings = _bindings(tree, inside=own is not None)
    own_defs = _top_level_defs(tree) if own is not None else {}

    def resolve(node):
        if isinstance(node, ast.Name):
            if node.id in bindings:
                return bindings[node.id]
            return ("name", own, node.id) if node.id in own_defs else None
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base is not None and base[0] == "module":
                if base[1] == "__init__" and node.attr in MODULES:
                    return "module", node.attr
                return "name", base[1], node.attr
        return None

    found = set()
    for top in tree.body:
        enclosing = getattr(top, "name", None)      # the def or class this statement is
        for node in ast.walk(top):
            target = resolve(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if target is None or target[0] != "name":
                continue
            _, module, name = target
            if module != own:
                found.add(_canonical(module, name))
            elif name != enclosing:
                found.add((own, name))
    found.discard(None)
    return found


def _unreached_public_names() -> list:
    reached = set()
    for module, tree in MODULES.items():
        reached |= _references(tree, own=module)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return sorted((module, name) for module, tree in MODULES.items()
                  for name in _top_level_defs(tree)
                  if not name.startswith("_") and (module, name) not in reached)


def test_every_public_name_is_reached_or_allowlisted():
    unreached = _unreached_public_names()
    assert [n for n in unreached if n not in SURFACE_ALLOWLIST] == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(SURFACE_ALLOWLIST) == [n for n in unreached if n in SURFACE_ALLOWLIST]


def test_surface_rule_resolves_imports_not_identifiers():
    code = ("from nmcbounds import bounds as bounds_mod\n"
            "import nmcbounds.coupling as cp\n"
            "import nmcbounds.cli\n"
            "from nmcbounds import builtin_example, StochasticMatrix as SM\n"
            "def f(args):\n"
            "    from nmcbounds.volatility import tv_volatility\n"
            "    bounds_mod.full_report(builtin_example(1, args.kappa), 3)\n"
            "    nmcbounds.cli.main([])\n"
            "    return cp.spectral_radius, SM, tv_volatility\n"
            "kappa = lemma_check = None\n"
            "args.max_row_sum_norm, kappa(), cp\n")
    assert _references(ast.parse(code)) == {
        ("bounds", "full_report"), ("experiments", "builtin_example"), ("cli", "main"),
        ("coupling", "spectral_radius"), ("chain", "StochasticMatrix"),
        ("volatility", "tv_volatility")}


def test_surface_rule_skips_a_name_inside_its_own_definition():
    code = ("def a(n):\n    return a(n - 1) if n else b\n"
            "def b():\n    return a(1)\n"
            "class C:\n    def copy(self) -> 'C':\n        return C()\n")
    assert _references(ast.parse(code), own="synthetic") == {("synthetic", "a"),
                                                             ("synthetic", "b")}
