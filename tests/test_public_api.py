"""Public-API surface tests: every exported name resolves and is exported
consistently."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.fluid",
    "repro.nn",
    "repro.models",
    "repro.data",
    "repro.core",
    "repro.farm",
    "repro.serve",
    "repro.obs",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} has no __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.11.0"


def test_top_level_framework_importable():
    from repro import OfflineConfig, SmartFluidnet, UserRequirement

    assert SmartFluidnet is not None
    assert UserRequirement(q=0.1, t=1.0).q == 0.1
    assert OfflineConfig().check_interval == 5


def test_facade_exports_solvers_and_metrics():
    import repro

    assert issubclass(repro.PCGSolver, repro.PressureSolver)
    assert issubclass(repro.MultigridSolver, repro.PressureSolver)
    assert issubclass(repro.NNProjectionSolver, repro.PressureSolver)
    assert repro.metrics.MetricsRegistry is repro.MetricsRegistry
    assert repro.get_metrics() is repro.metrics.get_metrics()


def test_facade_exports_scenario_registry():
    import repro
    from repro.fluid import build_scenario, list_scenarios

    assert repro.build_scenario is build_scenario
    assert repro.list_scenarios is list_scenarios
    names = {info.name for info in repro.list_scenarios()}
    assert len(names) >= 5
    assert "smoke_plume" in names
    spec = repro.parse_scenario("dam_break:grid=16")
    assert spec == repro.ScenarioSpec("dam_break", grid=16)


def test_unknown_root_attribute_raises():
    import repro

    with pytest.raises(AttributeError):
        repro.definitely_not_a_name


def test_public_submodule_docstrings():
    """Every public module in the tree carries a docstring."""
    import pathlib

    root = pathlib.Path(importlib.import_module("repro").__file__).parent
    for path in root.rglob("*.py"):
        rel = path.relative_to(root)
        if rel.name == "__main__.py":  # importing it would run the CLI
            continue
        mod_name = "repro." + str(rel.with_suffix("")).replace("/", ".")
        mod_name = mod_name.removesuffix(".__init__")
        mod = importlib.import_module(mod_name)
        assert mod.__doc__, f"{mod_name} lacks a module docstring"
