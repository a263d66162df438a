"""Every name a library module imports is used in that module, every
private module-level function or class is used in the library, and every
name a library module exports is exported by the package or used in the
library."""

import ast
from pathlib import Path

import ape

SRC = Path(__file__).resolve().parents[1] / "src" / "ape"
# perfbench/test_perfbench.py rebinds this module attribute to check that
# its tracer patches names bound with ``from .engine import ...``.
REBOUND = {("trainer", "cache_affinity")}
# The only functions that may name each helper, so that each value has one
# producer: the cache scores and their class runs come from
# ``engine._support_runs``, a refined row's r from ``refine._take_channels``.
PRODUCERS = {
    "_cache_scores": {"engine._support_runs"},
    "_run_plan": {"engine._support_runs"},
    "_divisors": {"numkit._normalize_rows_inplace", "refine._take_channels"},
}


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


def scan(sources) -> tuple[set[str], set[str], set[str]]:
    """The private module-level functions and classes of the ``sources``,
    the names their ``__all__`` lists give, and every name that a statement
    reads other than the one it defines."""
    defined, listed, named = set(), set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.endswith("__"):
                defined.add(own)
            if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]:
                listed.update(ast.literal_eval(stmt.value))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    named.add(name)
    return defined, listed, named


def unreferenced_privates(sources) -> set[str]:
    """Private module-level functions and classes of the ``sources`` that no
    statement but their own definition names."""
    defined, _, named = scan(sources)
    return defined - named


def unexported_publics(sources, exported) -> set[str]:
    """Names in the ``__all__`` of the ``sources`` that are not ``exported``
    and that no statement but their own definition names."""
    _, listed, named = scan(sources)
    return listed - set(exported) - named


def callers(sources: dict, names) -> dict:
    """For each of ``names``, the ``module.function`` of every top-level
    statement of the ``sources`` (module name to text) that names it, an
    import included (``module.<module>``), other than its own definition."""
    found = {name: set() for name in names}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
                if name in found and name != own:
                    found[name].add(f"{module}.{own or '<module>'}")
    return found


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


def test_unreferenced_privates_are_found():
    one = "def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\nclass _Lone:\n    pass\n"
    other = "from . import one\n\n\ndef public():\n    return one._used()\n"
    assert unreferenced_privates([one, other]) == {"_recursive", "_Lone"}


def test_library_privates_are_used_in_the_library():
    """A private helper that only the tests use belongs in the tests."""
    assert unreferenced_privates(path.read_text(encoding="utf-8") for path in SRC.glob("*.py")) == set()


def test_unexported_publics_are_found():
    one = '__all__ = ["used", "shown", "lone"]\n\n\ndef used():\n    pass\n\n\ndef shown():\n    pass\n\n\ndef lone():\n    return lone()\n'
    other = "from . import one\n\n\ndef run():\n    return one.used()\n"
    assert unexported_publics([one, other], ["shown"]) == {"lone"}


def test_library_publics_are_exported_or_used_in_the_library():
    """A module-level public name that neither the package exports nor the
    library uses belongs in the tests: ``ape.__all__`` is the public surface."""
    sources = (path.read_text(encoding="utf-8") for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert unexported_publics(sources, ape.__all__) == set()


def test_callers_are_found():
    one = "def _helper():\n    return _helper()\n\n\ndef run():\n    return _helper()\n"
    other = "from .one import _helper\nfrom . import one\n\n\ndef use():\n    return one._helper()\n"
    assert callers({"one": one, "other": other}, ["_helper"]) == {
        "_helper": {"one.run", "other.<module>", "other.use"}
    }


def test_each_value_has_one_producer():
    """Cache scores, their class runs and a refined row's r are each made by
    one function, so a fresh training state gives ``ape_logits``'s logits by
    construction, not by two copies of one rule kept equal by hand."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert callers(sources, PRODUCERS) == PRODUCERS
