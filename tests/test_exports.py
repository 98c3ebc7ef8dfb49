"""Every name a chemorelax module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import chemorelax

MODULES = ["chemorelax"] + [f"chemorelax.{info.name}"
                            for info in pkgutil.iter_modules(chemorelax.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has an empty __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
