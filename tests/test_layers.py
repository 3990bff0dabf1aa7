"""The package's layers import one way: bits, qsim, hashing -> adversary -> protocol -> harness -> cli."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqkdlab"


def package_imports() -> dict:
    """Each module's intra-package imports (``from .x import ...`` and ``from . import x``), from its source."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
        graph[path.stem] = imported
    return graph


def test_package_imports_have_no_cycle():
    graph = package_imports()
    assert {"bits", "qsim", "hashing", "adversary", "protocol", "harness", "cli"} <= set(graph)
    assert all(imported <= set(graph) for imported in graph.values())
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(module):] + [module])}")
        if module in done:
            return
        path.append(module)
        for imported in sorted(graph[module]):
            visit(imported)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_adversary_imports_only_qsim():
    # Strategies and their wire form need no numpy: only the protocol's
    # compile touches state rows, and the strategy checks its gate by name.
    assert package_imports()["adversary"] == {"qsim"}
    tree = ast.parse((PACKAGE / "adversary.py").read_text())
    imported, from_qsim = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module == "qsim":
            from_qsim.extend(alias.name for alias in node.names)
    assert "numpy" not in imported
    assert from_qsim == ["GATE_NAMES"]
