"""Every name a shiftlab module imports is used in that module, every
module it imports is in the standard library or the package itself, and
the package's ``__all__`` lists exactly the public names it binds."""

from __future__ import annotations

import ast
import pathlib
import sys
import types

import pytest

import shiftlab

PACKAGE_FILES = sorted(pathlib.Path(shiftlab.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                if alias.name != "annotations":  # from __future__
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    # names quoted in annotations ("TreeGeometry") count as used
    used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    assert _unused_imports("from collections import deque\nimport os\nos.sep\n") == ["deque (line 1)"]
    assert _unused_imports("from x import y  # noqa: F401\n") == []


def _non_stdlib_imports(source: str) -> list[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return sorted(name for name in names if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    assert _non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_a_non_stdlib_import_is_caught():
    source = "import numpy.linalg\nimport os.path\nfrom scipy import sparse\nfrom . import words\n"
    assert _non_stdlib_imports(source) == ["numpy.linalg", "scipy"]


def test_export_lists_agree():
    exported = shiftlab.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(shiftlab, name) for name in exported)
    bound = {name for name, value in vars(shiftlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound
