"""The import graph inside the nel package, pinned.

The three science layers import nothing from each other: ``spectra`` (shear
spectra) imports only ``errors``; ``lax`` (transport) the spectral-field
layer ``grids``/``fields``/``fields3d``; and of the wave-chaos layer,
``forcing`` and ``diagnostics`` import only ``errors`` and ``models`` also
``forcing``.  Only ``cli`` joins them.  ``fields`` writes its snapshots with
``runio``'s atomic writer.  An edge added or dropped must be made here on
purpose.

Outside the standard library, a module imports only numpy at module level,
and scipy is imported in one place: the fallback of spectra's assignment
solver, which otherwise loads scipy's compiled module without the package.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nel"

EDGES = {
    "__init__": set(),
    "cli": {
        "__init__", "diagnostics", "errors", "fields", "fields3d", "forcing", "grids", "lax", "models", "runio",
        "spectra",
    },
    "diagnostics": {"errors"},
    "errors": set(),
    "fields": {"errors", "grids", "runio"},
    "fields3d": {"fields", "grids"},
    "forcing": {"errors"},
    "grids": {"errors"},
    "lax": {"errors", "fields", "fields3d", "grids"},
    "models": {"errors", "forcing"},
    "runio": {"__init__", "errors"},
    "spectra": {"errors"},
}


def nel_imports(path: pathlib.Path) -> set[str]:
    """The nel modules a source file imports, at any depth of its code; a
    name taken from the package itself, like __version__, counts as __init__."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["nel" if node.level else "", node.module or ""]))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "nel":
                out.add(parts[1] if len(parts) > 1 and (SRC / f"{parts[1]}.py").exists() else "__init__")
    return out


def test_import_graph_is_pinned():
    graph = {path.stem: nel_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert graph == EDGES


def third_party_imports(path: pathlib.Path) -> set[tuple[str | None, str]]:
    """(enclosing function or class, module) for each import of a source file
    from outside the standard library and nel; None is module level."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.update((scope, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                out.add((scope, child.module))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return {(scope, name) for scope, name in out if name.split(".")[0] not in sys.stdlib_module_names | {"nel"}}


def test_third_party_imports_are_pinned():
    found = {(path.stem, *imp) for path in sorted(SRC.glob("*.py")) for imp in third_party_imports(path)}
    assert {name for _, scope, name in found if scope is None} == {"numpy"}
    assert {imp for imp in found if imp[2].split(".")[0] != "numpy"} == {
        ("spectra", "_assignment_solver", "scipy.optimize")
    }
