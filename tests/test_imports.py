"""The package's import graph: sibling imports sit at module level and form no cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import fairsim

SOURCES = sorted(Path(fairsim.__file__).parent.glob("*.py"))


def _is_type_checking_block(node) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
        and node.test.id == "TYPE_CHECKING"


def _sibling_imports(tree: ast.Module):
    """Each ``from .x import ...`` as ``(x, line, where)``, ``where`` being "module",
    "type-checking" or "nested"; ``from . import`` names the package, not a sibling."""
    placed = {id(node): "module" for node in tree.body}
    for block in filter(_is_type_checking_block, tree.body):
        placed.update({id(node): "type-checking" for node in block.body})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            yield node.module, node.lineno, placed.get(id(node), "nested")


def test_sibling_imports_sit_at_module_level_and_form_no_cycle():
    graph, nested = {}, []
    for path in SOURCES:
        edges = graph[path.stem] = set()
        for sibling, line, where in _sibling_imports(ast.parse(path.read_text(), str(path))):
            if where == "nested":
                nested.append(f"{path.name}:{line} imports .{sibling} at call time")
            elif where == "module":
                edges.add(sibling)
    assert not nested
    assert set().union(*graph.values()) <= graph.keys()
    assert "learner" in graph["fairreg"]  # the parse sees the edges
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"sibling modules import each other in a cycle: {exc.args[1]}")
