"""No module of the package, test or demo imports a name it never uses,
and no module of the package imports inside a function.

No linter ships with the project, so this reads each module's syntax tree:
every name bound by a top-level import must be read somewhere in the module.
The package ``__init__.py`` files exist to re-export, and ``from __future__``
imports bind no name, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relhyp"
ROOT = SRC.parent.parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def _imported(tree):
    """(bound name, line) of every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else ROOT)),
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_no_function_level_imports():
    """Every import of the package sits at a module's top, where a reader
    sees what the module depends on (and an import cycle shows at once)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    "%s.%s (line %d)" % (path.relative_to(SRC), fn.name, node.lineno)
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, "imports inside functions: %s" % ", ".join(found)


READERS = sorted(
    p
    for d in ("src", "tests", "demos", "perfbench")
    for p in (ROOT / d).rglob("*.py")
    # this file reads ast fields (name, body, attr) that would mask methods so named
    if p != Path(__file__).resolve()
)


def test_no_unread_methods():
    """Every non-dunder method or property of a class in the package is read
    as an attribute (``obj.name``) somewhere in src, tests, demos or
    perfbench.

    The check goes by name only, so a method whose name another attribute
    also uses escapes it, whatever object that attribute is read on:
    ``BacktrackInstance.first`` escaped through ``ctx.first``
    (``ConditionContext.first``) while nothing read it, and a method named
    like a list method (``reverse``) escapes through every list.
    """
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (
                    isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                    and fn.name not in read
                ):
                    unread.append("%s.%s (%s)" % (cls.name, fn.name, path.relative_to(SRC)))
    assert not unread, "methods nothing reads: %s" % ", ".join(unread)


def _wrapped_by_tracer():
    """Top-level names that ``perfbench/tracer.py`` wraps by module path."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            spans = ast.literal_eval(node.value)
    return {attr for targets in spans.values() for _, attr in targets if "." not in attr}


def _unread_top_level(readers):
    """Top-level functions and classes of the package that no file of
    ``readers`` reads by name (``name`` or ``obj.name``).  An import alone is
    not a read, so a name that only ``__init__.py`` re-exports is unread.
    Functions the tracer wraps are exempt: it finds them by their module
    path."""
    read = _wrapped_by_tracer()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in read
            ):
                unread.append("%s (%s)" % (node.name, path.relative_to(SRC)))
    return unread


def test_no_unread_functions():
    """Every top-level function and class of the package is read somewhere
    in src, tests, demos or perfbench."""
    unread = _unread_top_level(READERS)
    assert not unread, "functions and classes nothing reads: %s" % ", ".join(unread)


# src, demos, perfbench, the shared oracles of tests/conftest.py and the
# acceptance criteria: every reader but the unit tests
OUTSIDE_UNIT_TESTS = [
    p for p in READERS
    if p.parent.name != "tests" or p.name in ("conftest.py", "test_acceptance.py")
]


def test_no_functions_only_unit_tests_read():
    """Every top-level function and class of the package is read outside the
    unit tests: in src, demos, perfbench, the shared oracles of
    ``tests/conftest.py`` or the acceptance criteria.  A function that only
    its own unit tests call has no user; it belongs in ``conftest.py`` as a
    reference, or nowhere."""
    unread = _unread_top_level(OUTSIDE_UNIT_TESTS)
    assert not unread, "functions and classes only unit tests read: %s" % ", ".join(unread)


def _is_dataclass(cls):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def test_no_fields_only_unit_tests_read():
    """Every field of a ``@dataclass`` class of the package is read as an
    attribute (``obj.name``) outside the unit tests, by the readers of
    ``test_no_functions_only_unit_tests_read``.  A field that no such reader
    reads is carried and never looked at.  ``NamedTuple`` classes are not
    checked: their fields are read by position too.

    Like its siblings the check goes by name only, so a field whose name is
    read anywhere else escapes it, on whatever object: ``PathRep.kind``
    escaped through ``PeripheralSpec.kind`` (and through its own checks) while
    every representative built was of kind I."""
    read = {
        node.attr
        for path in OUTSIDE_UNIT_TESTS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                unread += [
                    "%s.%s (%s)" % (cls.name, field.target.id, path.relative_to(SRC))
                    for field in cls.body
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read
                ]
    assert not unread, "fields only unit tests read: %s" % ", ".join(unread)


def test_one_bfs_kernel():
    """Every breadth-first traversal of the package runs on ``groups.bfs``:
    no module imports ``collections.deque`` (``from collections import
    deque``, or ``import collections`` and then ``collections.deque``).
    ``rational.least_word`` keeps its own level loop, as it stops at the
    first hit."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "collections":
                hit = any(alias.name == "deque" for alias in node.names)
            else:
                hit = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "deque"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "collections"
                )
            if hit:
                found.append("%s (line %d)" % (path.relative_to(SRC), node.lineno))
    assert not found, "deque traversals outside groups.bfs: %s" % ", ".join(found)
