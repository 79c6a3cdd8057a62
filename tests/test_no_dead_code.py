"""Every function and class the package defines is referenced somewhere.

A name counts as referenced when it appears anywhere in src/, tests/,
demos/ or perfbench/ as a Name, an Attribute, an imported name or a whole
string constant (as getattr and monkeypatch take names). Dunder methods are
called by the interpreter and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tridg"
SEARCHED = ("src", "tests", "demos", "perfbench")


def parsed(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(), filename=str(path))


def python_files(dirs):
    return [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def referenced_names(trees):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def test_every_package_definition_is_referenced():
    trees = list(parsed(python_files(SEARCHED)))
    used = referenced_names(trees)
    unused = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in used):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                              f"{node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
