"""The public names: every exported name resolves to a definition and is listed
in its module's __all__."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import gaitbo

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaitbo.__path__, "gaitbo."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale entry would otherwise only fail on `from module import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_import_resolves():
    imported = [(node.module, alias.name)
                for node in ast.parse(inspect.getsource(gaitbo)).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"gaitbo.{module}"), name), (module, name)
        assert hasattr(gaitbo, name), name


def test_every_package_import_is_in_its_module_all():
    # a name the package exports is public, so `from module import *` must give it too
    missing = [(node.module, alias.name)
               for node in ast.parse(inspect.getsource(gaitbo)).body
               if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name not in getattr(importlib.import_module(f"gaitbo.{node.module}"),
                                            "__all__", ())]
    assert missing == []
