import importlib
import pkgutil

import pytest

import rdesplit

MODULES = ["rdesplit"] + [f"rdesplit.{info.name}"
                          for info in pkgutil.iter_modules(rdesplit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
