"""Export lists name only what their module defines, and the package's
list is the union of its modules' lists."""

import importlib
import pkgutil

import pytest

import hypersir

MODULES = ["hypersir"] + [f"hypersir.{m.name}" for m in pkgutil.iter_modules(hypersir.__path__)]
# the modules the package re-exports; cli is the console entry point
REEXPORTED = ["data_io", "generators", "hypergraph", "influence", "message_passing", "sir"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_package_exports_are_the_union_of_module_exports():
    owners: dict[str, list[str]] = {}
    for mod in REEXPORTED:
        module = importlib.import_module(f"hypersir.{mod}")
        for n in module.__all__:
            owners.setdefault(n, []).append(mod)
            assert getattr(hypersir, n) is getattr(module, n), (mod, n)
    package = set(hypersir.__all__) - {"__version__"}
    assert len(hypersir.__all__) == len(set(hypersir.__all__))
    assert {n: o for n, o in owners.items() if len(o) != 1} == {}
    assert package == set(owners)
