"""Public names: every entry of a module's ``__all__`` resolves, so ``import *`` works."""

import importlib

import pytest

MODULES = ["mzvsums", "mzvsums.indices", "mzvsums.zeta", "mzvsums.series", "mzvsums.harmonic", "mzvsums.closedform"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
