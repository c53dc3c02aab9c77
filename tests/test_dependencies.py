"""The package needs nothing beyond the standard library and numpy."""

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
