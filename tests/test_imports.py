"""No module of the package imports a name it never uses.

No linter ships with the project, so this reads each module's syntax tree:
every name bound by a top-level import must be read somewhere in the module.
The package ``__init__.py`` files exist to re-export, and ``from __future__``
imports bind no name, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relhyp"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))
