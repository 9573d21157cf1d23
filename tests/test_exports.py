"""Every exported name resolves: a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import qazb

MODULES = ["qazb"] + sorted("qazb." + m.name for m in pkgutil.iter_modules(qazb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
