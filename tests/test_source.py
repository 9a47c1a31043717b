import ast
import importlib
from pathlib import Path

import sgfact
from sgfact.grobner import toric_ideal

from conftest import pytest_runtest_setup

# the package's caches, each the output of one engine: the Graver completion
# of the homogenized semigroup and the reduced grlex basis of the toric ideal
CACHES = ["grobner.py:toric_ideal", "hilbert.py:_homogenized_graver"]


def _modules() -> list[tuple[str, ast.Module]]:
    sources = sorted(Path(sgfact.__file__).parent.glob("*.py"))
    assert any(path.name == "core.py" for path in sources)
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def _name(node: ast.AST) -> str | None:
    for field in ("id", "attr", "name"):  # Name, Attribute, alias and definitions
        if isinstance(value := getattr(node, field, None), str):
            return value
    return None


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant of the library may
    # rest on one
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_one_budget():
    # every counting loop spends its steps through errors._Budget, so no other
    # module reads the step limit or raises the budget error itself
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "errors.py"
        for node in ast.walk(tree)
        if _name(node) == "_step_limit"
        or isinstance(node, ast.Call) and _name(node.func) == "ResourceLimitError"
    ]
    assert not found, found


def test_caches_are_bounded():
    # a cache keeps a fixed number of answers: every one is an lru_cache
    # called with a literal integer maxsize, and CACHES are all there is
    cached, found = [], []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if _name(node) == "cache":  # functools.cache never evicts
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
                size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if not (len(size) == 1 and isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                    found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    if _name(deco) == "lru_cache":  # bare: the default maxsize
                        found.append(f"{name}:{deco.lineno}")
                    elif isinstance(deco, ast.Call) and _name(deco.func) == "lru_cache":
                        cached.append(f"{name}:{node.name}")
    assert not found, found
    assert sorted(cached) == CACHES


def test_every_test_starts_with_cold_caches():
    # conftest finds the caches itself; it must clear each one pinned above
    caches = [
        getattr(importlib.import_module(f"sgfact.{path.removesuffix('.py')}"), fn)
        for path, fn in (entry.split(":") for entry in CACHES)
    ]
    s = sgfact.affine_semigroup([3, 4, 5])
    sgfact.graver_basis(s)
    toric_ideal(s)
    assert all(cache.cache_info().currsize for cache in caches)
    pytest_runtest_setup(None)
    assert not any(cache.cache_info().currsize for cache in caches)


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps the functions it lists in TRACED by name and
    # reports a missing one as untraced, its per-layer rows then reading 0; the
    # list is read from the source, so nothing under bench/ is imported
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [_name(t) for t in node.targets] == ["TRACED"]
    ]
    names = [(module, fn) for module, fns in traced.items() for fn in fns]
    assert ("grobner", "toric_ideal") in names
    missing = [
        f"{module}.{fn}"
        for module, fn in names
        if not callable(getattr(importlib.import_module(f"sgfact.{module}"), fn, None))
    ]
    assert not missing, missing


def test_no_unused_imports():
    # every name a module imports is read in that module, so a leftover import
    # fails here as a linter would flag it; __init__ re-exports through __all__
    found = []
    for name, tree in _modules():
        imported = {
            alias.asname or alias.name.partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and [_name(t) for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        found += [f"{name}:{line}:{alias}" for alias, line in imported.items() if alias not in used]
    assert not found, found
