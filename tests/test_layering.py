"""The package's structure, read from the source with ``ast``: no function
imports a package module, the import graph between the package's modules
has no cycle, only ``files`` opens files, no module imports
``dataclasses`` or compiles a regular expression at import, and tolerance
factors and the exact-integer kernel live in ``matrix``."""

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


def import_time_nodes(node):
    """``node`` and the nodes under it that run when the module is imported:
    functions and lambdas are skipped, as their bodies run only when called."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from import_time_nodes(child)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_dataclasses_or_regex_compiled_at_import(module):
    """Each interpreter that imports perfstruct pays for dataclass methods
    generated by ``exec`` and for regular expressions compiled at module
    level at start-up, so the package has neither."""
    imports = [alias.name for node in ast.walk(TREES[module])
               if isinstance(node, ast.Import) for alias in node.names]
    imports += [node.module for node in ast.walk(TREES[module])
                if isinstance(node, ast.ImportFrom) and not node.level]
    assert "dataclasses" not in imports
    compiles = [node.lineno for node in import_time_nodes(TREES[module])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"]
    assert compiles == []


def small_floats(node) -> list:
    """The lines of the float literals strictly between 0 and 1 under
    ``node``, leaving out the body of ``cli._format_value``."""
    if isinstance(node, ast.FunctionDef) and node.name == "_format_value":
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, float) \
            and 0 < node.value < 1:
        return [node.lineno]
    return [line for child in ast.iter_child_nodes(node) for line in small_floats(child)]


@pytest.mark.parametrize("module", sorted(set(TREES) - {"matrix"}))
def test_tolerance_factors_live_in_matrix(module):
    """A small float is a tolerance factor: ``matrix`` holds every one, so
    that there is one tolerance policy.  ``cli._format_value`` may round for
    display only."""
    assert small_floats(TREES[module]) == []


@pytest.mark.parametrize("module", ["products", "graphs"])
def test_exact_kernel_helpers_stay_in_matrix(module):
    """``matrix`` alone applies the exact-integer rules: the product and
    family layers sum Kronecker terms through it, never by hand."""
    kernel = {"_guarded", "_magnitude", "_narrow", "_kron_add"}
    imported = {alias.name for node in ast.walk(TREES[module])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & kernel == set()


def layout_tags(tree) -> list:
    """The line of every string constant that names a factor of a named
    product's layout: "M", "L", "I" or "J"."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and node.value in ("M", "L", "I", "J")]


@pytest.mark.parametrize("module", sorted(set(TREES) - {"products"}))
def test_layout_tags_stay_in_products(module):
    """A named product becomes its ``ProductSpec`` in ``products``, and
    every other layer reads the spec's factors, not the tags; contraction's
    one "J" test is the one exception left."""
    assert len(layout_tags(TREES[module])) == (module == "contraction")
