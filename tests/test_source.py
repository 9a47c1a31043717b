import ast
from pathlib import Path

import sgfact


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
    # called with a literal integer maxsize, and these two are all there is
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
    assert sorted(cached) == ["hilbert.py:_homogenized_graver", "presentation.py:minimal_presentation"]
