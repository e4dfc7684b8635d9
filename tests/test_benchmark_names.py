"""The benchmark's names still resolve to what its tracer wraps and its
workloads call.

``perfbench/run.py`` reports one self time per name in ``SELF_TIMED``.  Its
tracer wraps the public functions each perfstruct module defines, plus a few
``Matrix`` and ``Coloring`` methods; a name that stops resolving would read 0
calls without any error.  ``perfbench/workloads.py`` calls ``ps.<name>`` on
the package and ``<kind>_spec`` for each named product kind.  Both files are
read, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
WORKLOADS = RUN.with_name("workloads.py")

#: per-layer names the tracer takes from ``Matrix`` methods rather than from
#: module functions; both matmul names split ``Matrix.__matmul__`` by domain
MATRIX_METHODS = {"matmul_exact": "__matmul__", "matmul_complex": "__matmul__",
                  "exact": "exact", "to_complex": "to_complex", "inverse": "inverse"}


def _self_timed() -> dict:
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SELF_TIMED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SELF_TIMED")


NAMES = [(layer, name) for layer, names in _self_timed().items() for name in names]


def test_names_were_read():
    assert ("contraction", "contract_named") in NAMES


@pytest.mark.parametrize("layer, name", NAMES)
def test_name_resolves(layer, name):
    module = importlib.import_module(f"perfstruct.{layer}")
    if layer == "matrix" and name in MATRIX_METHODS:
        assert callable(getattr(module.Matrix, MATRIX_METHODS[name]))
    elif "." in name:
        owner, attr = name.split(".")
        assert owner == "Coloring" and callable(getattr(getattr(module, owner), attr))
    else:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            f"{layer}.{name} is not a public function defined in perfstruct.{layer}"
        assert not name.startswith("_")


def _workload_names() -> list:
    """Every ``ps.<name>`` in the workloads, plus ``<kind>_spec`` per kind."""
    from perfstruct.products import NAMED_SPECS

    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ps"}
    return sorted(used | {f"{kind}_spec" for kind in NAMED_SPECS})


WORKLOAD_NAMES = _workload_names()


def test_workload_names_were_read():
    assert {"product_spectrum", "unity_eigensystem", "contract_named",
            "lexicographic_spec"} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    perfstruct = importlib.import_module("perfstruct")
    assert hasattr(perfstruct, name), f"perfbench/workloads.py calls ps.{name}"
