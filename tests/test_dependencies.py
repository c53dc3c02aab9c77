"""The package needs nothing beyond the standard library and numpy, and
its incidence verifiers multiply matrices only through exact_product."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_import_only_numpy_beyond_the_standard_library():
    found = set()
    for path in sorted((ROOT / "src" / "schemeforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - sys.stdlib_module_names == {"numpy"}


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy"]


def _outside_exact_product(tree):
    """Nodes of the module that are not inside def exact_product."""
    skip = {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "exact_product"
            for n in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in skip]


@pytest.mark.parametrize("module", ["geometry", "relation_scheme",
                                    "reconstruct"])
def test_verifiers_multiply_only_through_exact_product(module):
    path = ROOT / "src" / "schemeforge" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    products = [
        node.lineno for node in _outside_exact_product(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute)
        and node.attr in ("dot", "matmul", "einsum", "tensordot", "inner")]
    assert products == []
