"""The import graph of the package: dependencies run one way.

Every module of ``src/deodhar`` is parsed, and the package modules it
imports must equal its row below.  A new module needs a row, and a new
import shows up as an edit of this table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deodhar"

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
    "__init__": {"cells", "chevalley", "laurent", "roots", "search", "weyl"},
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
