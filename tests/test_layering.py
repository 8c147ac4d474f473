"""Import layering: the lower layers never import solver modules."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import maxqp

PACKAGE = Path(maxqp.__file__).parent


def _package_imports(module: str) -> set[str]:
    """Sibling modules that `module` imports, relative or through `maxqp.`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or ".")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("maxqp"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("maxqp"))
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("io", {"errors", "graph"}),
        ("graph", {"errors"}),
        ("schemes", {"errors", "graph", "io", "treewidth"}),
        ("packing", {"errors", "graph", "matching"}),
        ("matching", {"errors", "graph"}),
        ("treewidth", {"errors", "graph", "io"}),
        ("oracle", {"errors", "graph"}),
    ],
)
def test_module_imports_only_lower_layers(module, allowed):
    assert _package_imports(module) <= allowed
