"""The library holds no code that only tests use: every public function
and class defined in src/wreathsph is named somewhere in src/, scripts/ or
perfbench/ other than on its own def or class line, and every public
method of a class body is reached there through an attribute access
`.name`, so that a function or local of the same name does not count.
Every name a module of src/wreathsph imports is used in that module, and
every name the package exports is defined in the module it is read from."""

import ast
import re
from pathlib import Path

from wreathsph import _EXPORTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wreathsph"


def public_definitions():
    """(name, is a method defined in a class body) per public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name, id(node) in methods


def test_every_public_name_is_used_outside_the_tests():
    lines = [
        line
        for top in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in path.read_text().splitlines()
    ]
    unused = []
    for name, method in sorted(set(public_definitions())):
        word = re.compile(rf"\.{name}\b" if method else rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


# Bindings kept for perfbench/test_tracing.py, which asserts that a call
# through each of them is counted.
TRACED_BINDINGS = {("spherical", "class_type"), ("acceptance", "wreath_character")}


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in TRACED_BINDINGS:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_export_is_defined_in_its_module():
    misplaced = []
    for module, names in sorted(_EXPORTS.items()):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        misplaced += [f"{module}.{name}" for name in names if name not in defined]
    assert misplaced == []
