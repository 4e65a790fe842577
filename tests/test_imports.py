"""Every module-level import in the package is used.

A standard-library stand-in for a linter's unused-import check (F401): a
name bound by a module-level import must be read somewhere in the module,
or listed in its ``__all__``.  An import statement that carries
``# noqa: F401`` is exempt; the package keeps such bindings for callers
outside the module.
"""

import ast
from pathlib import Path

import pytest

import keller_lab

MODULES = sorted(Path(keller_lab.__file__).parent.glob("*.py"))


def names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code, in string annotations and in
    ``__all__``."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(sub.id for sub in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(sub, ast.Name))
    return read


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports and never read, with their
    line numbers."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = names_read(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_the_check_sees_each_kind_of_use():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "from math import gcd, lcm",
        "from typing import Sequence",
        "from fractions import Fraction as F",
        "from itertools import chain  # noqa: F401",
        "from json import dumps",
        "__all__ = ['dumps']",
        "def f(x: 'Sequence[int]') -> F:",
        "    return os.path.join(lcm(x))",
    ])
    assert unused_imports(source) == ["line 3: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
