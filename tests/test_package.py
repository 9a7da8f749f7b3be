"""Package surface: every module imports, and every exported name exists."""

import importlib
import pkgutil

import pytest

import noiselab

MODULES = ["noiselab"] + [f"noiselab.{m.name}" for m in pkgutil.iter_modules(noiselab.__path__)]


def test_every_module_is_listed():
    assert {"noiselab.denoiser", "noiselab.training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
