"""The package's structure, read from the source with ``ast``: no function
imports a package module, the import graph between the package's modules
has no cycle, and only ``files`` opens files."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perfstruct"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node) -> set:
    """The package modules an import statement imports; a name imported from
    the package itself counts as an import of ``__init__``."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "perfstruct." + base if base else "perfstruct"
        dotted = [f"{base}.{alias.name}" for alias in node.names]
    else:
        return set()
    out = set()
    for name in dotted:
        parts = name.split(".")
        if parts[0] == "perfstruct":
            out.add(parts[1] if len(parts) > 1 and parts[1] in TREES else "__init__")
    return out


def import_graph() -> dict:
    return {name: set().union(*map(imported_modules, ast.walk(tree)))
            for name, tree in TREES.items()}


def find_cycle(graph: dict) -> list | None:
    """One cycle of ``graph`` as a list of nodes, or None."""
    state = {}  # node -> "open" while on the search path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [node])
            if cycle:
                return cycle
    return None


def test_the_package_is_found():
    assert {"matrix", "graphs", "products", "cli"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_imports_a_package_module(module):
    inside = [(func.name, sorted(imported_modules(node)))
              for func in ast.walk(TREES[module])
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if imported_modules(node)]
    assert inside == []


def test_the_import_graph_has_no_cycle():
    assert find_cycle(import_graph()) is None



@pytest.mark.parametrize("module", sorted(set(TREES) - {"files"}))
def test_only_files_opens_files(module):
    # the builtin only: os.open is an attribute call
    calls = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert calls == []
