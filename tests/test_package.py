"""Tests of the package's public surface: each module's __all__ and the package imports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import presliding

MODULES = sorted(m.name for m in pkgutil.iter_modules(presliding.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"presliding.{name}")
    missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing


def test_package_imports_only_names_in_all():
    # a name the package re-exports stays listed in its module's __all__, so
    # removing it from one place and not the other fails here
    imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(presliding)))
        if isinstance(node, ast.ImportFrom)
    ]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        public = importlib.import_module(f"presliding.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module
