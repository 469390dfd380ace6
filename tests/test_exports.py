"""The public names: every exported name resolves to a definition and is listed
in its module's __all__."""

import ast
import importlib
import inspect
import pathlib
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



def _unused_imports(tree: ast.Module) -> list:
    """The names a module's top-level imports bind that it never reads and
    its __all__ does not list."""
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    listed = {elt.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in read and name not in listed]


def test_every_import_is_used():
    # the package __init__ imports in order to export, so it is left out
    init = pathlib.Path(gaitbo.__file__)
    paths = sorted([*init.parent.glob("*.py"), *pathlib.Path(__file__).parent.glob("*.py")])
    unused = {f"{path.parent.name}/{path.name}": names for path in paths if path != init
              and (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}
