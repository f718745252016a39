import ast
from pathlib import Path

import tdrepdyn

PACKAGE = Path(tdrepdyn.__file__).parent
# each module imports only modules to its left
LAYERS = ("mdp", "metrics", "dynamics", "experiments", "invariants", "cli")


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


def test_modules_import_one_way():
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {node.module} if node.module else {alias.name for alias in node.names}
        assert imported <= set(LAYERS[:LAYERS.index(module)]), module
