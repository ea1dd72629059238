"""Every exported name resolves, the package exports the chain and nothing
else, and no export takes a tolerance knob.

A name deleted from a module but left in its ``__all__`` breaks only
``from vechgarch.<module> import *``, and one left in the package's
``__init__.py`` imports breaks ``import vechgarch``; both should fail this
suite by name rather than surprise a user.  The package's top level is the
estimator chain, and the README lists exactly those names; a stage helper
is imported from its own module.  Retired knobs stay retired:
tolerances are private module constants beside the code that reads them,
and the Bartlett HAC is the one long-run covariance, so no export takes a
``tol`` or a ``method`` parameter.
"""

import ast
import importlib
import inspect
import re
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
                # ``from . import module``.  The ``simulate`` module is not
                # among these: the package's ``simulate`` is the function,
                # which shadows the module of the same name.
                importlib.import_module(f"vechgarch.{alias.name}")
                continue
            source = importlib.import_module(f"vechgarch.{node.module}")
            assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
            # A module that declares ``__all__`` exports what the package takes.
            assert alias.name in getattr(source, "__all__", [alias.name]), \
                f"{alias.name} is not in vechgarch.{node.module}.__all__"
            assert getattr(vechgarch, alias.asname or alias.name) is getattr(source, alias.name)


# The package's top level is the paper's chain: moments -> closed-form
# (c, A, B, Sigma) -> delta-method standard errors -> temporal aggregation,
# plus the typed errors.  Each stage's helpers are imported from their module.
CHAIN = {
    "GarchSpec", "MomentSet", "Diagnostics", "population_moments", "diagnostics", "uncond_h",
    "random_spec", "random_sigma", "SimulationResult", "simulate", "to_x", "sample_moments",
    "PsiEstimate", "hac_psi", "EstimateReport", "estimate", "AsymptoticReport", "JacobianState",
    "standard_errors", "jacobian_matrix", "xi", "AggregationInput", "AggregatedSpec",
    "aggregate_params", "aggregate_data", "vech", "unvech",
    "VechGarchError", "InvalidInput", "InsufficientData", "MissingSigmaW", "NonStationary",
    "NotPositiveDefinite", "NumericalFailure", "PositivityViolation", "SingularLyapunov",
    "SingularMatrix", "UnimodularEigenvalues",
}
SUBMODULES = {"aggregation", "asymptotics", "cli", "exceptions", "linalg", "model", "moments", "solver"}
HELPERS = {
    "solver": ["gammas", "phi_lstsq", "solve_b", "recover_sigma", "pme_residual", "nme_residual",
               "build_p", "GammaState", "SolventResult", "SigmaRecovery"],
    "asymptotics": ["jacobian_action", "param_names"],
    "aggregation": ["stock_gammas", "flow_gammas"],
    "linalg": ["dlyap"],
    "moments": ["default_bandwidth"],
}


def test_package_exports_are_the_chain():
    public = {n for n in dir(vechgarch) if not n.startswith("_")}
    assert len(CHAIN) == 38 and len(SUBMODULES) == 8
    assert public == CHAIN | SUBMODULES
    for module_name, names in HELPERS.items():
        module = importlib.import_module(f"vechgarch.{module_name}")
        for name in names:
            assert hasattr(module, name) and name in module.__all__, f"vechgarch.{module_name}.{name}"


def _readme_public_names():
    """The names listed under the README's "Public names" heading."""
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    # The list starts at the first bullet; the paragraph above it names helpers.
    bullets = section[section.index("\n- "):]
    return re.findall(r"`(\w+)`", bullets)


def test_readme_lists_the_package_exports():
    listed = _readme_public_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    public = {n for n in dir(vechgarch) if not n.startswith("_")}
    assert set(listed) == public - SUBMODULES


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
