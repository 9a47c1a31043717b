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
