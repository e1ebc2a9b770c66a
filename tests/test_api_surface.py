"""API-surface guard: every module imports and every ``__all__`` name exists.

The top-level package re-exports the planning and execution facades; this
test walks every ``repro`` module and verifies that (a) it imports cleanly
and (b) every name it advertises in ``__all__`` actually resolves, so a
refactor can never silently break an advertised import.
"""

import importlib
import pkgutil

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULES = sorted(set(_iter_module_names()))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), f"duplicate names in {name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ advertises missing names: {missing}"


def test_facade_is_exported_top_level():
    for attr in ("plan", "Plan", "PlanConfig", "PlanCache", "strategy_names"):
        assert attr in repro.__all__
        assert hasattr(repro, attr)
