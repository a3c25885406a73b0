"""The package's import graph, read from the sources: every import of one
package module by another sits at module level, and the modules import each
other without a cycle, so importing any one of them never needs another
that is still half-initialised."""
import ast
import graphlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tracecoef"
MODULES = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}


def _package_imports(node) -> list:
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
        return [n.split(".")[1] for n in names if n.startswith("tracecoef.")]
    if node.level == 0:
        mod = node.module or ""
        return [mod.split(".")[1]] if mod.startswith("tracecoef.") else []
    if node.module:  # from .x import names
        return [node.module.split(".")[0]]
    return [a.name for a in node.names if a.name in MODULES]  # from . import x


def _imports(path) -> tuple[set, list]:
    """(package modules imported anywhere in the file, [(line, module)] of
    those imported inside a function body)."""
    tree = ast.parse(path.read_text())
    everywhere, in_body = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            everywhere.update(_package_imports(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    in_body += [(sub.lineno, m) for m in _package_imports(sub)]
    return everywhere, in_body


def test_no_function_body_imports_a_package_module():
    found = {name: in_body for name, path in MODULES.items() if (in_body := _imports(path)[1])}
    assert found == {}


def test_the_module_import_graph_is_acyclic():
    graph = {name: _imports(path)[0] for name, path in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order.index("arith") < order.index("coeff") < order.index("cli")


def test_no_module_imports_scipy():
    """scipy is a test dependency only: no import in the package names it,
    at module level or inside a function."""
    found = []
    for name, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module or ""]
            else:
                continue
            found += [(name, node.lineno) for m in mods if m.split(".")[0] == "scipy"]
    assert found == []
