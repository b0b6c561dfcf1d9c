"""Export lists name only what their module defines."""

import importlib
import pkgutil

import pytest

import hypersir

MODULES = ["hypersir"] + [f"hypersir.{m.name}" for m in pkgutil.iter_modules(hypersir.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
