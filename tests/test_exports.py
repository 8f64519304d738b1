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


def test_the_package_exports_exactly_its_modules_names():
    package = importlib.import_module("mzvsums")
    union = {n for name in MODULES[1:] for n in importlib.import_module(name).__all__}
    assert sorted(package.__all__) == sorted(union)
    assert len(package.__all__) == len(union)  # each name once
