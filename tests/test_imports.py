"""The package's modules import each other at module top level only, and
the import graph has no cycle, so any module can be imported first."""

import ast
import graphlib
from pathlib import Path

import nomalink

PACKAGE = Path(nomalink.__file__).resolve().parent


def _package_imports(tree: ast.Module):
    """(node, imported module) for every import of a package module in a
    module's syntax tree, wherever it sits."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import rng
                yield from ((node, alias.name) for alias in node.names)
            elif node.level == 1:
                yield node, node.module.split(".")[0]
            elif node.level == 0 and (node.module or "").startswith("nomalink."):
                yield node, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from ((node, alias.name.split(".")[1]) for alias in node.names
                        if alias.name.startswith("nomalink."))


def _graph() -> tuple[dict, list]:
    """module -> the package modules it imports, and every import found
    anywhere but the top level of a module body."""
    graph, misplaced = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        graph[path.stem] = set()
        for node, target in _package_imports(tree):
            graph[path.stem].add(target)
            if node not in tree.body:
                misplaced.append(f"{path.stem}:{node.lineno} imports {target}")
    return graph, misplaced


def test_modules_import_each_other_at_top_level_only():
    # no import deferred into a function or held back under TYPE_CHECKING
    graph, misplaced = _graph()
    assert misplaced == []
    assert set(graph) >= {"channel", "cli", "config", "link", "modem", "qam", "quant",
                          "regions", "rng", "srate"}
    for path in PACKAGE.glob("*.py"):
        assert "TYPE_CHECKING" not in path.read_text(), path.name


def test_the_import_graph_is_acyclic():
    graph, _ = _graph()
    assert all(target in graph for targets in graph.values() for target in targets)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph)
    # the leaves: the detector and the stream keys import nothing of the package
    assert graph["qam"] == set() and graph["rng"] == set()
