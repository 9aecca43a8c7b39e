import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rdesplit

MODULES = ["rdesplit"] + [f"rdesplit.{info.name}"
                          for info in pkgutil.iter_modules(rdesplit.__path__)]

# Imported but not called: bench/spans.py patches these module attributes.
PATCH_POINTS = {("cli", "solve_milstein"), ("convergence_lab", "solve_split")}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


SOURCES = sorted(Path(rdesplit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is used by being exported
    exported = set(getattr(importlib.import_module(
        "rdesplit" if path.stem == "__init__" else f"rdesplit.{path.stem}"),
        "__all__", ()))
    unused = [f"{name} (line {line})"
              for name, line in sorted(imported.items())
              if name not in used | exported
              and (path.stem, name) not in PATCH_POINTS]
    assert not unused, (f"{path.name} imports names it never uses: "
                        + ", ".join(unused))


def test_the_solver_imports_no_map_kind_from_model():
    # every Z evaluation of a march goes through ``model.stack_grids``: the
    # solver reads no map's kind, orientation or contraction itself
    from rdesplit import model, splitting_solver

    tree = ast.parse(Path(splitting_solver.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "model"
             for alias in node.names]
    kinds = [name for name in names
             if name == "_Z_SUBSCRIPTS"
             or isinstance(getattr(model, name), type)
             and issubclass(getattr(model, name),
                            (model.SecondOrderMap, model.GridZ))
             and getattr(model, name) is not model.SecondOrderMap]
    assert names and not kinds, kinds


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_calls_numpys_einsum_wrapper(path):
    # ``np.einsum`` is ``model.c_einsum`` behind a Python wrapper and the
    # ``__array_function__`` dispatcher, which the hot loops would pay on
    # every call
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "einsum"
                  or isinstance(node.func, ast.Name)
                  and node.func.id == "einsum")]
    assert not calls, f"{path.name} calls np.einsum at lines {calls}"
