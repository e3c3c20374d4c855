"""The package's modules form one import chain, with no cycle to break."""

import ast
from pathlib import Path

import pytest

# each module imports only modules to its left, and only at module top
CHAIN = ("errors", "seq_core", "nilmanifold", "generators", "uniformity",
         "duality", "ergodic_weights", "cli")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unif_lab"


def _package_imports(tree):
    """(line, imported module) for every `from .m import` and
    `from . import m` in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from ((node.lineno, alias.name) for alias in node.names)
            else:
                yield node.lineno, node.module.split(".")[0]


def test_every_module_sits_on_the_chain():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {*CHAIN, "__init__"}


@pytest.mark.parametrize("name", (*CHAIN, "__init__"))
def test_imports_run_down_the_chain(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [sub.lineno for sub in ast.walk(node)
                     if isinstance(sub, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.{node.name} imports at lines {inner}"
    # the package namespace may import every module of the chain
    rank = CHAIN.index(name) if name in CHAIN else len(CHAIN)
    for line, module in _package_imports(tree):
        assert module in CHAIN[:rank], (
            f"{name}.py:{line} imports {module}, which is not earlier in "
            f"the chain {' -> '.join(CHAIN)}")
