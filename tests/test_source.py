"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

import sntorsion
from sntorsion import solver

PACKAGE = Path(sntorsion.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


def kind_comparisons(source: str) -> list[int]:
    """Lines that compare a name `kind` against a string constant or a
    literal of string constants."""

    def is_text(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(map(is_text, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Name) and o.id == "kind" for o in operands) and any(
                map(is_text, operands)
            ):
                lines.append(node.lineno)
    return lines


def walk(tree, skip=()):
    """The nodes of tree, outside the subtrees in skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not any(node is s for s in skip):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def identifiers(tree, skip=()) -> set[str]:
    """Every name, attribute and imported name read in tree, outside the
    subtrees in skip."""
    found = set()
    for node in walk(tree, skip):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced_names(source: str, other_sources: list[str]) -> list[str]:
    """Top-level functions, classes and assignments of a module, public or
    private, that no code outside their own definitions names, in the
    module or in other_sources.  A name used only by such unreferenced
    definitions is unreferenced too."""
    tree = ast.parse(source)
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    elsewhere = set().union(*(identifiers(ast.parse(s)) for s in other_sources))
    dead: set[str] = set()
    while True:
        skipped = [defs[name] for name in dead]
        new = {
            name for name, node in defs.items()
            if name not in dead and name not in elsewhere
            and name not in identifiers(tree, skipped + [node])
        }
        if not new:
            return sorted(dead)
        dead |= new


def test_unreferenced_public_names_are_found():
    source = (
        "Ineq = int\n"
        "def used(x: Ineq):\n    return helper() + _private()\n"
        "def helper():\n    return 1\n"
        "def _private():\n    return 1\n"
        "_Leftover = tuple[int, ...]\n"
        "def recursive():\n    return recursive()\n"
        "def only_by_dead():\n    return 2\n"
        "def dead():\n    return only_by_dead()\n"
        "class Kept:\n    pass\n"
    )
    other = "from m import used\nimport m\nm.Kept()\n"
    assert unreferenced_names(source, [other]) == ["_Leftover", "dead", "only_by_dead", "recursive"]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_by_the_package(module):
    # library surface that only tests use belongs in the tests, and so does
    # a private helper; a re-export in __init__ is not a use, so __init__ is
    # neither checked nor read
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    del sources["__init__"]
    source = sources.pop(module)
    assert unreferenced_names(source, list(sources.values())) == []


def test_every_lattice_field_is_read_by_the_package():
    # each lattice stores every field of _Lattice, so a field that only the
    # tests read is stored for nothing; _lattice builds the record, and its
    # own reads do not count
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    builder = [
        node for tree in trees for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_lattice"
    ]
    read = {
        node.attr for tree in trees for node in walk(tree, builder)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [name for name in solver._Lattice._fields if name not in read] == []


def test_kind_comparisons_are_found():
    source = 'a = kind == "S"\nb = kind is None\nc = "A" in (kind,)\nd = kind not in ("S", "A")\n'
    assert kind_comparisons(source) == [1, 4]


def test_only_luthar_passi_reads_the_group_kind():
    # allowed_support is the one rule for what "S" and "A" mean; every other
    # module asks it instead of testing the kind itself
    found = {
        path.name: lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "luthar_passi.py" and (lines := kind_comparisons(path.read_text()))
    }
    assert found == {}


def imports_module(source: str, module: str) -> bool:
    """Whether the source imports module, by `import` or `from ... import`."""
    return any(
        isinstance(node, ast.Import) and any(alias.name == module for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == module
        for node in ast.walk(ast.parse(source))
    )


def test_module_imports_are_found():
    assert imports_module("import fractions\n", "fractions")
    assert imports_module("def f():\n    from fractions import Fraction\n", "fractions")
    assert not imports_module("from math import gcd\nimport fractionsx\n", "fractions")


def test_no_module_imports_fractions():
    # a form is integers over the unit's order, the solver's search ranges
    # are integer pairs and its recession rays integer points over a scale
    found = [
        path.name
        for path in sorted(PACKAGE.rglob("*.py"))
        if imports_module(path.read_text(), "fractions")
    ]
    assert found == []


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


def fourier_motzkin_eliminations(source: str) -> list[str]:
    """Functions that look like a Fourier-Motzkin elimination: they split
    rows by the sign of a coefficient (both `> 0` and `< 0` against the
    constant 0) and loop over pairs of rows, a `for` over one name inside a
    `for` over another."""

    def signs(node) -> set:
        return {
            type(c.ops[0]) for c in ast.walk(node)
            if isinstance(c, ast.Compare) and len(c.ops) == 1
            and isinstance(c.ops[0], (ast.Gt, ast.Lt))
            and isinstance(c.comparators[0], ast.Constant) and c.comparators[0].value == 0
        }

    def pairs_rows(node) -> bool:
        loops = [n for n in ast.walk(node) if isinstance(n, ast.For) and isinstance(n.iter, ast.Name)]
        return any(
            isinstance(inner.iter, ast.Name) and inner.iter.id != outer.iter.id
            for outer in loops for inner in ast.walk(outer)
            if isinstance(inner, ast.For) and inner is not outer
        )

    return [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and len(signs(node)) == 2 and pairs_rows(node)
    ]


def test_fourier_motzkin_eliminations_are_found():
    # the per-solve elimination of concrete rows is the tests' oracle now
    oracle = (Path(__file__).parent / "conftest.py").read_text()
    assert fourier_motzkin_eliminations(oracle) == ["fm_eliminate"]


def test_the_package_defines_one_fourier_motzkin_elimination():
    # the per-lattice chain, whose rows carry their multipliers, is the only
    # projection: no per-solve elimination of concrete rows beside it
    found = {
        path.name: names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := fourier_motzkin_eliminations(path.read_text()))
    }
    assert found == {"solver.py": ["_chain"]}


def indented_json_dumps(source: str) -> list[int]:
    """Lines that call json.dumps (or a bare dumps) with an `indent`
    keyword."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
             or isinstance(node.func, ast.Name) and node.func.id == "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]


def test_indented_json_dumps_are_found():
    source = (
        "import json\nfrom json import dumps\n"
        "a = json.dumps(x, indent=2, sort_keys=True)\nb = json.dumps(x, sort_keys=True)\n"
        "c = dumps(x, indent=None)\n"
    )
    assert indented_json_dumps(source) == [3, 5]


def test_report_text_has_one_writer():
    # reports._json_text writes every indented report; json.dumps with indent
    # runs json's pure-Python encoder and would be a second layout to keep
    found = {
        path.name: lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := indented_json_dumps(path.read_text()))
    }
    assert found == {}
