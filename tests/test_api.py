"""The package namespace re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import markovkit

MODULES = [m.name for m in pkgutil.iter_modules(markovkit.__path__)
           if hasattr(importlib.import_module(f"markovkit.{m.name}"), "__all__")]


def _package_imports() -> dict[str, list[str]]:
    """Module name -> the names markovkit/__init__.py imports from it."""
    tree = ast.parse(Path(markovkit.__file__).read_text())
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("module", MODULES)
def test_star_import_gives_every_public_name(module):
    namespace: dict = {}
    exec(f"from markovkit.{module} import *", namespace)
    assert set(importlib.import_module(f"markovkit.{module}").__all__) <= namespace.keys()


def test_package_reexports_are_declared_public():
    missing = [f"{module}.{name}" for module, names in _package_imports().items()
               for name in names
               if name not in importlib.import_module(f"markovkit.{module}").__all__]
    assert not missing
