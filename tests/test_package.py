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


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_presets_define_only_stacked_hooks():
    # a preset field is one stacked form: no per-state fn or grad_fn, and
    # no Hessian, beside it
    from rdesplit import model

    calls = [node for node in ast.walk(_tree(model))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "VectorField"]
    bad = [node.lineno for node in calls
           if len(node.args) > 2
           or any(kw.arg in ("fn", "grad_fn", "hess_fn")
                  for kw in node.keywords)]
    assert calls and not bad, f"per-state forms passed at lines {bad}"


def test_the_lift_defines_only_batch_queries():
    from rdesplit import rough_path

    [lift] = [node for node in ast.walk(_tree(rough_path))
              if isinstance(node, ast.ClassDef)
              and node.name == "_PiecewiseLinearLift"]
    methods = {node.name for node in lift.body
               if isinstance(node, ast.FunctionDef)}
    assert "area_many" in methods
    assert not methods & {"locate", "increment", "area", "value",
                          "base_value"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_reads_a_per_state_field_form(path):
    # fields have no ``_fn``: the only ``._fn`` read is a grid's of its own
    # second-order map (``self._z._fn``)
    reads = [node.lineno for node in ast.walk(ast.parse(
                 path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "_fn"
             and isinstance(node.ctx, ast.Load)
             and not (isinstance(node.value, ast.Attribute)
                      and node.value.attr == "_z")]
    assert not reads, f"{path.name} reads ._fn at lines {reads}"


def test_grid_forms_have_one_evaluation_method():
    # a grid form evaluates through ``rows`` alone: ``every`` is one view of
    # it, written in ``GridZ``, and no ``at`` remains beside them
    from rdesplit import model

    def methods(tree, name):
        return [node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any(isinstance(item, ast.FunctionDef) and item.name == name
                        for item in node.body)]

    assert methods(_tree(model), "every") == ["GridZ"]
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "at"]
        assert not methods(tree, "at"), f"{path.name} defines at"
        assert not calls, f"{path.name} calls .at( at lines {calls}"


def test_the_solver_has_one_march_and_a_flat_reference():
    # ``solve_many`` is the march, and the reference's finite checks are
    # the module-level ``_check_rows``, not closures over its loop state
    from rdesplit import splitting_solver

    top = {node.name: node for node in _tree(splitting_solver).body
           if isinstance(node, ast.FunctionDef)}
    assert "solve_many" in top and "_march" not in top
    reference = top["solve_ode_reference"]
    nested = [getattr(node, "name", "lambda") for node in ast.walk(reference)
              if isinstance(node, (ast.FunctionDef, ast.Lambda))
              and node is not reference]
    assert not nested, nested
