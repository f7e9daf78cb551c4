"""Every module of the package uses each name it imports.

No linter ships with the package, so the check walks each module's syntax
tree: a name bound by an import must be read somewhere in the module.
``__init__.py`` re-exports by importing, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

import optrf

SRC = Path(optrf.__file__).resolve().parent

# perfbench/worker.py's CLI span shim wraps these on optrf.cli by name;
# ``optrf eval`` reaches them through tasks.evaluate
SHIM_ONLY = {
    "cli.py": {"predict", "f_star", "classification_error",
               "function_distances", "regularized_empirical_loss"},
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        {"os", "b"}
    assert unused_imports("from __future__ import annotations\n") == set()


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert unused == SHIM_ONLY.get(module, set())
