from __future__ import annotations

import ast
import sys
from pathlib import Path

import tabnotate

SOURCES = sorted(Path(tabnotate.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                (path.name, module)
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_parses_at_the_python_floor():
    # pyproject.toml promises Python >= 3.10.
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))
