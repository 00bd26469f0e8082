"""Rules on the package source itself."""

import ast
from pathlib import Path

import p3lenard

PACKAGE = Path(p3lenard.__file__).parent


def test_no_assert_statements():
    """Program checks must raise real errors: ``python -O`` strips asserts."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lenard.py" in modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
