"""Every module-level import is used, every package parameter read and
every package default overridden somewhere, every public function has a
caller outside the tests, the CHR engine imports no effect code of the
abstract machine, the package keeps no process-wide mutable state, every
name the benchmark traces exists, and importing the package loads no
module only one rarely called function needs (stdlib-only lint)."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "actrchr").glob("*.py"))
MODULES = SOURCES + sorted(ROOT.glob("tests/*.py"))
CALLERS = [ROOT / d for d in ("src", "tests", "perfbench")]
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


# public helpers kept for the tests: the effect-lemma oracle, and the
# generators of random stores, states and rule variants
TEST_ONLY = {"effect_lemma_check", "random_state", "random_store", "clashing_variant",
             "random_dropped_rule", "chunk_pool"}


def _named(node):
    """Every name a node reads, imports or spells as a string (the names
    the benchmark wraps); an attribute of a value may be a method or a
    regex's ``match``, so it names nothing."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (a.name.split(".")[-1] for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public name only the tests use is code the tool does not run
    defined, named = {}, set()
    for path in sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            names = set(_named(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # its own definition is no caller
                if path in SOURCES and not node.name.startswith("_"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            named |= names
    uncalled = sorted(f"{at} {name}" for name, at in defined.items() if name not in named | TEST_ONLY)
    assert not uncalled, f"public names no code outside the tests names: {uncalled}"
    assert TEST_ONLY <= defined.keys() and not TEST_ONLY & named, sorted(TEST_ONLY & named)


# modification and the store merge are fixed by the semantics, so the CHR
# engine solves them itself; only request handling is shared
ENGINE_EFFECTS = {"interpret_action", "interpret_modification", "merge"}


def test_the_chr_engine_solves_modify_and_merge_itself():
    path = ROOT / "src" / "actrchr" / "chr.py"
    tree = ast.parse(path.read_text(), str(path))
    named = set()  # imported, loaded or reached as an attribute
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert "interpret_request" in named
    assert not named & ENGINE_EFFECTS, sorted(named & ENGINE_EFFECTS)


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


def test_no_never_passed_defaults():
    # per function name: the keywords and the most positional arguments
    # any call passes, by bare or attribute name; ** or * passes everything
    keywords, positional = {}, {}
    for path in sorted(p for d in CALLERS for p in d.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args)
            keywords.setdefault(name, set()).update(
                k.arg or "**" for k in call.keywords
            )
            n = float("inf") if spread else len(call.args)
            positional[name] = max(positional.get(name, 0), n)
    never = []
    for path in SOURCES:
        for fn in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            ordered = [*a.posonlyargs, *a.args]
            defaulted = [(i, p.arg) for i, p in enumerate(ordered)][len(ordered) - len(a.defaults):]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            kw = keywords.get(fn.name, set())
            for i, arg in defaulted:
                by_position = i is not None and positional.get(fn.name, 0) > i
                if not (by_position or arg in kw or "**" in kw):
                    never.append(f"{path.name}:{fn.lineno} {fn.name}({arg})")
    assert not never, f"defaults no call overrides: {never}"


# Process-wide state is shared by every caller in the process, so one run or
# test could change the next.  Derived data lives on the immutable value it
# is derived from (``Chunk.content``, a list's index); class-level interning
# tables are not module-level names and so are not flagged.
CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque",
                   "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}
MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "add", "update",
            "setdefault", "pop", "popleft", "popitem", "clear", "remove", "discard"}
CACHES = {"cache", "lru_cache"}


def _module_containers(tree):
    """Names the module binds at top level to a list, dict or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            v = node.value
            f = v.func if isinstance(v, ast.Call) else None
            called = getattr(f, "id", getattr(f, "attr", None))
            if isinstance(v, CONTAINERS) or called in CONTAINER_CALLS:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_process_wide_mutable_state(path):
    tree = ast.parse(path.read_text(), str(path))
    containers = _module_containers(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.add((node.lineno, "global " + ", ".join(node.names)))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.update((node.lineno, f"functools.{a.name}") for a in node.names
                         if a.name in CACHES)
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if getattr(node.value, "id", None) == "functools":
                found.add((node.lineno, f"functools.{node.attr}"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            target = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
                target = node.func.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            if isinstance(target, ast.Name) and target.id in containers:
                found.add((node.lineno, f"mutates module-level {target.id}"))
    assert not found, f"process-wide mutable state (line, what): {sorted(found)}"


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/tracing.py wraps these names from outside the package, so a
    # change that drops one fails here rather than in a traced benchmark run
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for ts in tracing.LAYERS.values() for t in ts]
    missing = [(m, a) for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert targets and not missing, f"traced names missing from the package: {missing}"


# hashlib and json each have one user (state_fingerprint,
# BisimReport.records), which imports it when called; the record types are
# plain slotted classes, so nothing loads dataclasses and what it imports
LAZY = ["hashlib", "json", "dataclasses", "inspect", "ast", "dis", "tokenize"]


def test_importing_the_package_loads_neither_hashlib_nor_json():
    # start-up does not pay for modules the package rarely or never needs
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import actrchr;"
        f" print(sorted({set(LAZY)!r} & sys.modules.keys()))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
