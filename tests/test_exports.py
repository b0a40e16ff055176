"""Every name a pldlab module lists in ``__all__`` must exist in it, so a
removed function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import pldlab

MODULES = ["pldlab"] + [
    m.name for m in pkgutil.walk_packages(pldlab.__path__, prefix="pldlab.")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
