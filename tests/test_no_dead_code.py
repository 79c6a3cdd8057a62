"""Every function and class the package defines is referenced somewhere,
and every attribute it stores is read somewhere.

A name counts as referenced when it appears anywhere in src/, tests/,
demos/ or perfbench/ as a Name, an Attribute, an imported name or a whole
string constant (as getattr and monkeypatch take names). Dunder methods are
called by the interpreter and are exempt. An attribute counts as read by the
same rule by name, with Names left out and Attributes counted only where
they are not assigned to.
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


def referenced_names(trees, reads_only=False):
    """Names the trees reference. reads_only: only Attributes that are not
    assigned to and string constants, the names that read an attribute."""
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not (reads_only and isinstance(node.ctx, ast.Store)):
                    names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
            elif reads_only:
                continue
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
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


def stored_attributes(tree):
    """(line, name) of every `obj.x = ...` target and dataclass field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from ((a.lineno, a.target.id) for a in node.body
                        if isinstance(a, ast.AnnAssign))


def test_every_stored_attribute_is_read():
    trees = list(parsed(python_files(SEARCHED)))
    # ctypes reads a foreign function's argument and result types
    read = referenced_names(trees, reads_only=True) | {"argtypes", "restype"}
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees if path.is_relative_to(PACKAGE)
              for line, name in stored_attributes(tree) if name not in read]
    assert not unread, "stored but never read:\n" + "\n".join(unread)
