"""Every exported name resolves, and no export takes a tolerance knob.

A name deleted from a module but left in its ``__all__`` breaks only
``from vechgarch.<module> import *``, and one left in the package's
``__init__.py`` imports breaks ``import vechgarch``; both should fail this
suite by name rather than surprise a user.  Retired knobs stay retired:
tolerances are private module constants beside the code that reads them,
and the Bartlett HAC is the one long-run covariance, so no export takes a
``tol`` or a ``method`` parameter.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import vechgarch

PACKAGE = Path(vechgarch.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
RETIRED = ("tol", "method")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"vechgarch.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        for alias in node.names:
            if node.module is None:
                # ``from . import module``; the package's ``simulate`` is the
                # function, which shadows the module of the same name.
                importlib.import_module(f"vechgarch.{alias.name}")
                continue
            source = importlib.import_module(f"vechgarch.{node.module}")
            assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
            # A module that declares ``__all__`` exports what the package takes.
            assert alias.name in getattr(source, "__all__", [alias.name]), \
                f"{alias.name} is not in vechgarch.{node.module}.__all__"
            assert getattr(vechgarch, alias.asname or alias.name) is getattr(source, alias.name)


def _functions(obj):
    """``obj`` when it is a function, else the functions and methods of a class."""
    if inspect.isfunction(obj):
        return [obj]
    if inspect.isclass(obj):
        return [f for f in (getattr(v, "__func__", v) for v in vars(obj).values())
                if inspect.isfunction(f)]
    return []


@pytest.mark.parametrize("name", MODULES)
def test_no_export_takes_a_tol_parameter(name):
    module = importlib.import_module(f"vechgarch.{name}")
    found = [(f.__qualname__, knob) for export in getattr(module, "__all__", [])
             for f in _functions(getattr(module, export))
             for knob in RETIRED if knob in inspect.signature(f).parameters]
    assert found == []
