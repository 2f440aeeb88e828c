"""The library holds no code that only tests use: every public function
and class defined in src/wreathsph is used in the code of src/, scripts/ or
perfbench/, outside its own definition: named, imported or reached as an
attribute `.name`.  A public method of a class body counts only through an
attribute access, so that a function or local of the same name does not
count; text in strings and comments counts for none.  Every name a module
of src/wreathsph imports is used in that module, and every name the package
exports is defined in the module it is read from."""

import ast
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


def code_uses(tree) -> set[tuple[str, str]]:
    """("name", name) per name read or imported and ("attr", name) per
    attribute access in tree, each outside a definition of that name."""
    uses = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            uses.add(("name", node.id))
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            uses.add(("attr", node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            uses.update(("name", alias.name.split(".")[-1]) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return uses


def test_every_public_name_is_used_outside_the_tests():
    uses = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            uses |= code_uses(ast.parse(path.read_text()))
    unused = [
        name
        for name, method in sorted(set(public_definitions()))
        if ("attr", name) not in uses and (method or ("name", name) not in uses)
    ]
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
