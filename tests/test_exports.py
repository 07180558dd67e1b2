"""Every name the package and its modules export must resolve.

A name left in an `__all__` or in the package imports after its definition
is gone breaks `from khcv.<module> import *` and any tool that walks the
exported names with getattr.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import khcv

MODULES = sorted(info.name for info in pkgutil.iter_modules(khcv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"khcv.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(khcv.__file__).read_text())
    imports = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"khcv.{module_name}")
        assert getattr(khcv, name) is getattr(module, name), name
