"""The library holds no code that only tests use: every public function,
method and class defined in src/wreathsph is named somewhere in src/,
scripts/ or perfbench/ other than on its own def or class line."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wreathsph"


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name


def test_every_public_name_is_used_outside_the_tests():
    lines = [
        line
        for top in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in path.read_text().splitlines()
    ]
    unused = []
    for name in sorted(set(public_definitions())):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
