"""Every module-level import is used, every package parameter read (stdlib-only lint)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "actrchr").glob("*.py"))
MODULES = SOURCES + sorted(ROOT.glob("tests/*.py"))
REEXPORTS = ROOT / "src" / "actrchr" / "__init__.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and path != REEXPORTS:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    # the base of an attribute chain is itself a Name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"unused imports (line, name): {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_parameters(path):
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = fn.args
            names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
            read = {n.id for n in ast.walk(fn) if type(n) is ast.Name and type(n.ctx) is ast.Load}
            found += [(fn.lineno, n) for n in sorted(names - read - {"self", "cls"}) if n[0] != "_"]
    assert not found, f"unused parameters (line, name): {found}"
