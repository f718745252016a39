import ast
from pathlib import Path

import tdrepdyn

PACKAGE = Path(tdrepdyn.__file__).parent
# each module imports only modules to its left at run time; an import under
# ``if TYPE_CHECKING:`` serves annotations only and is not run
LAYERS = ("metrics", "mdp", "dynamics", "experiments", "invariants", "cli")


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function():
    # a deferred import hides a cycle or a slow dependency
    found = []
    for module, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(module, func.name, ast.unparse(node)) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _run_time_nodes(node):
    """Every node below ``node``, save those inside an ``if TYPE_CHECKING:`` block."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING"):
            yield child
            yield from _run_time_nodes(child)


def test_modules_import_one_way():
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        imported = set()
        for node in _run_time_nodes(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {node.module} if node.module else {alias.name for alias in node.names}
        assert imported <= set(LAYERS[:LAYERS.index(module)]), module
