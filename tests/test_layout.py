"""The library holds no code that only tests use: every public function
and class defined in src/wreathsph is used in the code of src/, scripts/ or
perfbench/, outside its own definition: named, imported or reached as an
attribute `.name`.  A public method of a class body counts only through an
attribute access, so that a function or local of the same name does not
count, and a plain method (not a property) only where it is called,
`.name(...)`, or read off its class, `Cls.name`, so that a field or
property of the same name does not count either; text in strings and
comments counts for none.  Every name a module of src/wreathsph, tests/
or scripts/ imports is used in that module, every name the package
exports is defined in the module it is read from, and every named
parameter of a function in the package is read in its body."""

import ast
from pathlib import Path

from wreathsph import _EXPORTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wreathsph"


def is_property(node) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in node.decorator_list
    )


def public_definitions():
    """(name, kind, class name) per public definition: kind is "method" for
    a plain method of a class body, "property" for a property there, and
    "definition" (class name None) for any other function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    owner = owners.get(id(node))
                    if owner is None:
                        yield node.name, "definition", None
                    else:
                        kind = "property" if is_property(node) else "method"
                        yield node.name, kind, owner


def code_uses(tree) -> set[tuple[str, ...]]:
    """("name", name) per name read or imported, ("attr", name) per
    attribute access, ("call", name) per called attribute `.name(...)` and
    ("qualified", owner, name) per attribute read off a name `owner.name`,
    each outside a definition of that name."""
    uses = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            uses.add(("name", node.id))
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            uses.add(("attr", node.attr))
            if isinstance(node.value, ast.Name):
                uses.add(("qualified", node.value.id, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            uses.update(("name", alias.name.split(".")[-1]) for alias in node.names)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr not in inside
        ):
            uses.add(("call", node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return uses


def is_used(name: str, kind: str, owner: str | None, uses) -> bool:
    if kind == "definition":
        return ("name", name) in uses or ("attr", name) in uses
    if kind == "property":
        return ("attr", name) in uses
    return ("call", name) in uses or ("qualified", owner, name) in uses


def test_every_public_name_is_used_outside_the_tests():
    uses = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            uses |= code_uses(ast.parse(path.read_text()))
    unused = [
        f"{owner}.{name}" if owner else name
        for name, kind, owner in sorted(set(public_definitions()), key=str)
        if not is_used(name, kind, owner, uses)
    ]
    assert unused == []


# Bindings kept for perfbench/test_tracing.py, which asserts that a call
# through each of them is counted.
TRACED_BINDINGS = {("spherical", "class_type"), ("acceptance", "wreath_character")}


def test_every_imported_name_is_used_in_its_module():
    unused = []
    tops = (PACKAGE, ROOT / "tests", ROOT / "scripts")
    for path in sorted(path for top in tops for path in top.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in TRACED_BINDINGS:
                        unused.append(f"{path.parent.name}/{path.stem}.{name}")
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


def test_every_parameter_is_read():
    # self, cls, _-prefixed names, *args, **kwargs and lambdas are exempt
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.stem}.{node.name}({arg.arg})"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if arg.arg not in read
                and arg.arg not in ("self", "cls")
                and not arg.arg.startswith("_")
            ]
    assert unread == []
