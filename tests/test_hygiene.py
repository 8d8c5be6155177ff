"""Every import in the package, the tests and the scripts is used.

A name bound by an import counts as used when the module reads it anywhere,
names it in a string annotation, or lists it in __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/nimreg", "tests", "scripts")
               for p in (ROOT / d).glob("*.py"))


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
