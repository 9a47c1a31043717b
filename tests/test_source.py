import ast
from pathlib import Path

import sgfact


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant of the library may
    # rest on one
    sources = sorted(Path(sgfact.__file__).parent.glob("*.py"))
    assert any(path.name == "core.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
