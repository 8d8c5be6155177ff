"""Every import in the package, the tests and the scripts is used, every
private top-level name of the package is read somewhere, and so is every
field of a package dataclass.  Every function and class of the package, and
every public method, is used outside the tests.  Package dataclasses are
frozen, and the package writes into no record field after the record is
built.

A name bound by an import counts as used when the module reads it anywhere,
names it in a string annotation, or lists it in __all__.  A private name
(one leading underscore) bound at the top level of a package module counts
as read when a file in the package, the tests or the scripts loads it as a
name or an attribute, or imports it.  A dataclass field counts as read when
a file in the package, the tests, the scripts or perfbench loads it as an
attribute.  A top-level function or class of the package, or a public method
of a top-level class, counts as used when a file in the package, the scripts
or perfbench loads it as a name or an attribute, or names it as the last
part of a dotted string (the benchmark tracer's targets); the package's
re-exports and the tests do not count.
"""

import ast
import re
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


def _loads(tree) -> set:
    """Names and attributes the tree loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def names_read(source: str) -> set:
    """Names the module loads, attributes it loads, and names it imports."""
    tree = ast.parse(source)
    return _loads(tree) | {alias.name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) for alias in node.names}


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def names_used(source: str) -> set:
    """Names the module loads, attributes it loads, and the last part of
    every dotted string it holds (the benchmark tracer's targets)."""
    tree = ast.parse(source)
    return _loads(tree) | {node.value.rsplit(".", 1)[1] for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str) and _DOTTED.fullmatch(node.value)}


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


def definitions(source: str) -> list:
    """(line, label, name) of every top-level function and class of the
    module, and of every public method of its top-level classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(sub.lineno, f"{node.name}.{sub.name}", sub.name)
                      for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not sub.name.startswith("_")]
    return found


def test_use_checker_counts_loads_and_dotted_strings_only():
    package = (
        "from .other import helper\n"
        "__all__ = ['traced']\n"
        "def used():\n"
        "    return helper()\n"
        "def traced():\n"
        "    pass\n"
        "def imported_only():\n"
        "    pass\n"
        "class Record:\n"
        "    def public(self):\n"
        "        return used()\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    other = ("from pkg.mod import imported_only, Record\n"
             "Record().public()\n"
             "TARGETS = ('mod.traced', 'not dotted.unread')\n")
    used = names_used(package) | names_used(other)
    assert [(line, label) for line, label, name in definitions(package)
            if name not in used] == [(7, "imported_only"), (12, "Record.unread")]


def test_package_code_is_used_outside_the_tests():
    users = sorted(p for d in ("src/nimreg", "scripts", "perfbench")
                   for p in (ROOT / d).glob("*.py"))
    used = set().union(*(names_used(path.read_text()) for path in users))
    found = [f"{path.relative_to(ROOT)}:{line}: {label}"
             for path in FILES if path.parent.name == "nimreg"
             for line, label, name in definitions(path.read_text())
             if name not in used]
    assert not found, "package code only the tests use:\n" + "\n".join(found)


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


# Records are frozen: a result handed to a caller is never changed after it
# is built, so no caller can see another's edits.  The tau chain is the one
# exemption: analysis.tau_image_box stores the image extent on it, and the
# benchmark's workloads read that attribute.
MUTABLE_RECORDS = {"TauChain"}
WRITABLE_FIELDS = {"image_extent"}


def _is_frozen(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def unfrozen_dataclasses(source: str) -> list:
    """(line, class) of every dataclass in the module not declared frozen=True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            decorators = [d for d in node.decorator_list if _is_dataclass(d)]
            if decorators and not any(map(_is_frozen, decorators)):
                found.append((node.lineno, node.name))
    return found


def record_writes(source: str, fields: set) -> list:
    """(line, field) of every write into a field named in fields: x.f = v,
    x.f[i] = v, x.f += v, setattr(x, "f", v) and object.__setattr__(x, "f", v).
    A __post_init__ builds its record, so its writes do not count."""
    tree = ast.parse(source)
    building = {id(sub) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in building:
            continue
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr == "__setattr__")):
            if node.args[1].value in fields:
                found.append((node.lineno, node.args[1].value))
            continue
        else:
            continue
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in fields:
                found.append((node.lineno, target.attr))
    return sorted(set(found))


def test_record_checkers_find_unfrozen_classes_and_writes():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "@dataclass\n"
        "class B:\n"
        "    y: dict\n"
        "@dataclasses.dataclass(frozen=False, eq=False)\n"
        "class C:\n"
        "    z: list\n"
        "def f(a, b, c, other):\n"
        "    a.x = 1\n"
        "    b.y['k'] = 2\n"
        "    c.z[0][1] += 3\n"
        "    other.w, (a.x, n) = 4, (5, 6)\n"
        "    local = {}\n"
        "    local['x'] = 7\n"
        "    object.__setattr__(a, 'x', 8)\n"
        "    setattr(b, 'y', 9)\n"
        "    object.__setattr__(a, '_cache', 10)\n"
        "class D:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 11)\n"
    )
    assert unfrozen_dataclasses(source) == [(7, "B"), (10, "C")]
    fields = {name for _, _, name in dataclass_fields(source)}
    assert record_writes(source, fields) == [
        (13, "x"), (14, "y"), (15, "z"), (16, "x"), (19, "x"), (20, "y")]


PACKAGE = [path for path in FILES if path.parent.name == "nimreg"]


def test_package_records_are_frozen():
    found = [f"{path.relative_to(ROOT)}:{line}: {cls}"
             for path in PACKAGE for line, cls in unfrozen_dataclasses(path.read_text())
             if cls not in MUTABLE_RECORDS]
    assert not found, "dataclasses not frozen=True:\n" + "\n".join(found)


def test_package_writes_into_no_record_field():
    fields = {name for path in PACKAGE
              for _, _, name in dataclass_fields(path.read_text())}
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in record_writes(path.read_text(), fields - WRITABLE_FIELDS)]
    assert not found, "writes into a built record:\n" + "\n".join(found)
