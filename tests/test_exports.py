"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib
import pkgutil

import pytest

import dunham

MODULES = sorted(m.name for m in pkgutil.iter_modules(dunham.__path__, "dunham."))


@pytest.mark.parametrize("module", ["dunham"] + MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
