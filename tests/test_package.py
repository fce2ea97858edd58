"""The package surface: every exported name resolves, so a deleted function
cannot leave a stale export behind."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import vi_ident

MODULES = ["vi_ident", *(f"vi_ident.{info.name}" for info in pkgutil.iter_modules(vi_ident.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
