"""Rules on how the package's modules import one another and draw random
numbers, checked on their source: ``metrics`` does not reach into
``train``, ``train`` imports only at module level, and no module draws
from an unseeded generator."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmixer"
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cmixer."):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.startswith("cmixer.")}
    return {name.removeprefix("cmixer.").split(".")[0] for name in names}


def function_level_imports(source: str) -> list[str]:
    """The name of each function in ``source`` whose body holds an import."""
    return [
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn))
    ]


def unseeded_generators(source: str) -> list[int]:
    """The line of each ``default_rng()`` call in ``source`` with no argument."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
        and not node.args and not node.keywords
    ]


def test_metrics_imports_nothing_from_train():
    assert "train" not in package_imports((PACKAGE / "metrics.py").read_text())


def test_train_imports_only_at_module_level():
    assert function_level_imports((PACKAGE / "train.py").read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_draws_from_no_unseeded_generator(path):
    assert unseeded_generators(path.read_text()) == []


def test_each_rule_catches_a_breach():
    source = ("import numpy as np\nfrom .data import Split\nfrom . import train\n"
              "import cmixer.engine\n"
              "def f():\n    from .metrics import evaluate\n    return np.random.default_rng()\n"
              "g = default_rng(0)\n")
    assert package_imports(source) == {"data", "train", "engine", "metrics"}
    assert function_level_imports(source) == ["f"]
    assert unseeded_generators(source) == [7]
