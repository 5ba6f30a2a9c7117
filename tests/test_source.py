"""Static checks on the package sources."""

import ast
from pathlib import Path

import sntorsion

PACKAGE = Path(sntorsion.__file__).parent


def unused_from_imports(source: str) -> list[str]:
    """Names bound by the module-level `from ... import` statements of a
    module that no expression of the module reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_from_imports_are_found():
    source = "from math import gcd, lcm\nfrom os import path as p\nprint(gcd, p)\n"
    assert unused_from_imports(source) == ["lcm"]


def test_modules_have_no_assert_statements():
    # runtime checks must stay in force under python -O
    asserts = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Assert)]
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: lines for name, lines in asserts.items() if lines} == {}


def test_modules_have_no_unused_from_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := unused_from_imports(path.read_text()))
    }
    assert unused == {}
