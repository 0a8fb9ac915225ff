"""Every name a module exports through ``__all__`` exists."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["robsurv", "robsurv.autodiff", "robsurv.vq"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
