"""Every name a package lists in ``__all__`` resolves, so ``import *`` works."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["rawnoise", "rawnoise.estimator", "rawnoise.io"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
