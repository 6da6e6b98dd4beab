"""Export surface: every exported name resolves, and each library module
exports the public functions and classes it defines."""

import importlib
import inspect
import pkgutil

import pytest

import zetatrap
from zetatrap import specfun

# cli is the command-line entry point, not a library module.
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(zetatrap.__path__) if m.name != "cli"
)


def test_package_exports_resolve():
    assert [n for n in zetatrap.__all__ if not hasattr(zetatrap, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_its_definitions(name):
    module = importlib.import_module(f"zetatrap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_specfun_exports_the_array_functions():
    assert set(specfun.__all__) == {
        "EULER_GAMMA",
        "Hankel01",
        "bessel_j_array",
        "hankel1_array",
    }
