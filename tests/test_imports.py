"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ape"
# perfbench/test_perfbench.py rebinds these module attributes to check that
# its tracer patches names bound with ``from .engine import ...``.
REBOUND = {("cli", "ape_logits"), ("trainer", "cache_affinity")}


def unused_imports(source: str) -> set[str]:
    """Names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom . import dataio, numkit\nnp.zeros(numkit.X)\n"
    assert unused_imports(source) == {"os", "dataio"}


def test_library_modules_have_no_dead_imports():
    dead = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert sorted(dead - REBOUND) == []
