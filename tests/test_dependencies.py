"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmixer"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cmixer"}
MODULES = sorted(PACKAGE.glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Each absolute import in ``source`` whose top-level package is not allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: the package
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_every_module_is_scanned():
    assert {"engine.py", "model.py", "cli.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text()) == []


def test_a_third_party_import_is_caught():
    source = ("import os, scipy.linalg\nfrom numpy.lib import format\nfrom . import engine\n"
              "def f():\n    from sklearn.base import clone\n")
    assert foreign_imports(source) == ["scipy.linalg", "sklearn.base"]
