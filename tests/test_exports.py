"""Export surface: every exported name resolves, each library module
exports the public functions and classes it defines, every zetatrap
name that the benchmark in perfbench/ uses or traces exists, and no
private name or import of the package is left unread."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

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


def test_warm_start_names_are_exported():
    # a sweep warm-starts GMRES with the resampled density of the previous N
    from zetatrap import nystrom

    warm = {"solve_gmres", "resample_density"}
    assert warm <= set(nystrom.__all__) and warm <= set(zetatrap.__all__)


def test_specfun_exports_the_array_functions():
    assert set(specfun.__all__) == {
        "EULER_GAMMA",
        "Hankel01",
        "bessel_j_array",
        "hankel1_array",
    }


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_spans_resolve(monkeypatch):
    # spans.py wraps each (module, attribute) of TRACED, looked up with
    # getattr; a name it cannot find breaks `perfbench/run.py --trace 1`
    spans = _perfbench_module("spans", monkeypatch)
    missing = [
        (module, attr)
        for module, attr, *_ in spans.TRACED
        if not callable(
            getattr(importlib.import_module(f"zetatrap.{module}"), attr, None)
        )
    ]
    assert missing == []


def test_perfbench_names_resolve(monkeypatch):
    # workloads.py calls zetatrap through the modules it imports
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports reference
    workloads = _perfbench_module("workloads", monkeypatch)
    modules = {
        name: obj
        for name, obj in vars(workloads).items()
        if inspect.ismodule(obj) and obj.__name__.startswith("zetatrap.")
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(Path(workloads.__file__).read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {m for m, _ in used} == set(modules) == {"harness", "nystrom"}
    assert sorted(u for u in used if not hasattr(modules[u[0]], u[1])) == []


SRC = Path(zetatrap.__file__).resolve().parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(node):
    """The names a module-level statement defines, imports aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _exported(tree):
    """The strings of a module's ``__all__``."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def test_no_dead_private_names_or_imports():
    # what a deletion leaves behind: a module-level private name that no
    # module of the package reads, or an import that its module never reads
    # (nor re-exports in __all__)
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read_in = {
        module: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for module, tree in trees.items()
    }
    read = set().union(*read_in.values())
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if _is_private(name) and name not in read
    ]
    unused = [
        f"{module}: import {alias.asname or alias.name.split('.')[0]}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0])
        not in read_in[module] | _exported(tree)
    ]
    assert dead == []
    assert unused == []
