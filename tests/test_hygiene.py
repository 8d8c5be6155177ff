"""Every import in the package, the tests and the scripts is used, every
private top-level name of the package is read somewhere, and so is every
field of a package dataclass.

A name bound by an import counts as used when the module reads it anywhere,
names it in a string annotation, or lists it in __all__.  A private name
(one leading underscore) bound at the top level of a package module counts
as read when a file in the package, the tests or the scripts loads it as a
name or an attribute, or imports it.  A dataclass field counts as read when
a file in the package, the tests, the scripts or perfbench loads it as an
attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/nimreg", "tests", "scripts")
               for p in (ROOT / d).glob("*.py"))
# perfbench reads result fields of the package too
READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))


def _string_annotation_names(annotation):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for sub in ast.walk(ast.parse(node.value, mode="eval")):
                if isinstance(sub, ast.Name):
                    yield sub.id


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_string_annotation_names(node.returns))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name != "*" and name not in used)


def test_checker_counts_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.linalg\n"
        "from typing import TYPE_CHECKING\n"
        "from .a import Exported, Unused as Alias\n"
        "if TYPE_CHECKING:\n"
        "    from .b import Hinted\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Hinted') -> 'numpy.ndarray':\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "Alias")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def private_definitions(source: str) -> list:
    """(line, name) of every private name bound at the module's top level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(source: str) -> set:
    """Names the module loads, attributes it loads, and names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_checker_counts_loads_attributes_and_imports():
    package = (
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "__all__ = []\n"
        "def _f():\n"
        "    return _A\n"
        "class _K:\n"
        "    pass\n"
        "_D = 4\n"
        "_unused = 5\n"
    )
    other = "from pkg.mod import _B\nimport pkg\npkg.mod._C\npkg.mod._D = 0\n"
    read = names_read(package) | names_read(other)
    assert [(line, name) for line, name in private_definitions(package)
            if name not in read] == [(4, "_f"), (6, "_K"), (8, "_D"), (9, "_unused")]


def test_no_unread_private_names():
    read = set().union(*(names_read(path.read_text()) for path in FILES))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.parent.name == "nimreg"
             for line, name in private_definitions(path.read_text())
             if name not in read]
    assert not found, "private names nothing reads:\n" + "\n".join(found)


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def dataclass_fields(source: str) -> list:
    """(line, class, field) of every field of every dataclass in the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            found += [(stmt.lineno, node.name, stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attributes_read(source: str) -> set:
    """Attribute names the module loads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_field_checker_counts_attribute_loads_only():
    package = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    stored: int\n"
        "    named: int = 0\n"
        "    def total(self):\n"
        "        return self.read\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    kw: int\n"
        "class Plain:\n"
        "    attr: int\n"
    )
    other = "a.stored = 1\nnamed = 2\nB(kw=3)\nprint(a.read)\n"
    read = attributes_read(package) | attributes_read(other)
    assert [(line, cls, name) for line, cls, name in dataclass_fields(package)
            if name not in read] == [(6, "A", "stored"), (7, "A", "named"), (12, "B", "kw")]


def test_no_unread_dataclass_fields():
    read = set().union(*(attributes_read(path.read_text()) for path in READERS))
    found = [f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
             for path in FILES if path.parent.name == "nimreg"
             for line, cls, name in dataclass_fields(path.read_text())
             if name not in read]
    assert not found, "dataclass fields nothing reads:\n" + "\n".join(found)
