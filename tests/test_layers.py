"""The import graph of the package: dependencies run one way.

Every module of ``src/deodhar`` is parsed, and the package modules it
imports must equal its row below.  A new module needs a row, and a new
import shows up as an edit of this table.  Each module is also imported
alone in a fresh interpreter, which must load its closure in this table
and nothing else of the package, and neither ``dataclasses`` nor
``inspect``.  Every name that a package or test module imports at
module level must be read in that module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deodhar"
TESTS = Path(__file__).resolve().parent

LAYERS = {
    "linalg": set(),
    "laurent": set(),
    "roots": {"linalg"},
    "weyl": {"roots"},
    "cells": {"laurent", "roots", "weyl"},
    "search": {"cells", "roots", "weyl"},
    "matrixgrp": {"weyl"},
    "chevalley": {"cells", "laurent", "linalg", "roots"},
    "cli": {"cells", "chevalley", "matrixgrp", "search", "weyl"},
    "__init__": set(),
}


def package_imports(path: Path) -> set[str]:
    """The package modules that one module imports, relatively or by the
    absolute name ``deodhar.<module>``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.startswith("deodhar"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:  # from . import cells
                found.update(alias.name for alias in node.names)
            else:
                found.add(module.partition(".")[0])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("deodhar.")
            )
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS)


def test_imports_follow_the_layers():
    graph = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph == LAYERS


def closure(module: str) -> set[str]:
    """The module, the package root and every module below it in LAYERS."""
    found, todo = set(), [module, "__init__"]
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo.extend(LAYERS[name])
    return found


# Standard modules that no package module may load: dataclasses pulls in
# inspect, ast, dis and tokenize, and its classes compile their methods at
# import; the package's records are NamedTuples and __slots__ classes
UNLOADED = ("dataclasses", "inspect")


@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"__init__"}))
def test_import_loads_only_the_layers_below(module):
    code = (
        f"import sys, deodhar.{module}\n"
        "print(*[m for m in sys.modules if m.split('.')[0] == 'deodhar'])\n"
        f"print(*[m for m in {UNLOADED!r} if m in sys.modules])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    expected = {"deodhar" if name == "__init__" else f"deodhar.{name}" for name in closure(module)}
    package, unloaded = result.stdout.split("\n")[:2]
    assert set(package.split()) == expected
    assert unloaded.split() == []


def unused_imports(path: Path) -> list[str]:
    """The names bound by the module-level imports of one module that no
    expression of the module reads; ``from __future__`` imports bind none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


@pytest.mark.parametrize(
    "path",
    sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_import_is_read(path):
    assert unused_imports(path) == []
