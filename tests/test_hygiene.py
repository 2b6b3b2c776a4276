"""Import and definition hygiene of the package source, checked with the standard library's ``ast``.

A module may not import a name it never uses: a dead import hides which
modules really depend on each other.  Modules that re-export names through
``__all__`` are exempt, and every name they export must resolve.  A
function, class or method that nothing in the package reads is dead code,
whatever the tests call.  Only ``ingest._read`` opens a file for reading.
The benchmark's tracer finds no fewer of its patch points in the package.
"""

import ast
import pathlib

import pytest

import specfilter

SOURCE = pathlib.Path(specfilter.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SOURCE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds at any level, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exports(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for node in tree.body
    )


@pytest.mark.parametrize("name", [name for name, tree in TREES.items() if not _exports(tree)])
def test_no_unused_imports(name):
    tree = TREES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{imported} (line {line})" for imported, line in _imported_names(tree).items()
                    if imported not in used)
    assert not unused, f"{name} imports names it never uses: {', '.join(unused)}"


def test_every_export_resolves():
    missing = [name for name in specfilter.__all__ if not hasattr(specfilter, name)]
    assert not missing, f"specfilter.__all__ names missing attributes: {missing}"
    assert len(set(specfilter.__all__)) == len(specfilter.__all__)


def _module_level_names(tree: ast.Module) -> list[str]:
    """Names a module binds by a top-level def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


# Every name the package reads, as a variable or as an attribute.  Imports,
# the re-exports of ``__init__.py`` among them, and assignments are not reads.
READ = {node.id if isinstance(node, ast.Name) else node.attr
        for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_no_orphaned_private_helpers():
    # A private helper that nothing in the package reads any more was left
    # behind by the code that used to call it.  Tests do not count as
    # readers, and neither does an assignment to an attribute of that name.
    orphans = sorted(f"{module}: {name}" for module, tree in TREES.items() for name in _module_level_names(tree)
                     if name.startswith("_") and not name.startswith("__") and name not in READ)
    assert not orphans, f"private module-level names nothing in the package reads: {', '.join(orphans)}"


def _definitions(tree: ast.Module) -> list[str]:
    """Names of a module's top-level functions and classes, and of its classes' methods, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_read_in_the_package():
    # The package holds what its command line runs.  A public function,
    # class or method read only by tests is a wrapper around a kernel the
    # tests can call themselves.
    unread = sorted(f"{module}: {name}" for module, tree in TREES.items() for name in _definitions(tree)
                    if name not in READ)
    assert not unread, f"definitions nothing in the package reads: {', '.join(unread)}"


def _setflags_calls(node: ast.AST) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "setflags"]


def test_only_frozen_array_sets_array_flags():
    # Every value type holds its arrays through spectra.frozen_array, so one
    # rule decides their layout, flags and checks; a hand-written copy of it
    # would drift.  cie1931's module-level table is data, not a field.
    (frozen_array,) = [node for node in TREES["spectra.py"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "frozen_array"]
    allowed = {id(call) for call in _setflags_calls(frozen_array)}
    allowed |= {id(call) for node in TREES["cie1931.py"].body
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) for call in _setflags_calls(node)}
    stray = sorted(f"{module} line {call.lineno}" for module, tree in TREES.items()
                   for call in _setflags_calls(tree) if id(call) not in allowed)
    assert not stray, f".setflags( outside spectra.frozen_array: {', '.join(stray)}"


def _open_calls(node: ast.AST) -> list[ast.Call]:
    """Every call of ``open`` under ``node``, as a builtin (``open(...)``) or an attribute (``io.open(...)``)."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (getattr(call.func, "id", None) == "open" or getattr(call.func, "attr", None) == "open")]


def _reads(call: ast.Call) -> bool:
    """Whether an ``open`` call may read: its mode, "r" by default, holds "r" or "+", or is not a literal."""
    modes = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    if not modes:
        return True
    return not isinstance(modes[0], ast.Constant) or "r" in modes[0].value or "+" in modes[0].value


def test_only_ingest_read_opens_a_file_for_reading():
    # Each input is opened once, by ingest._read, which hands the bytes it
    # parses to the caller's record: report.json's digest is of exactly
    # those bytes.  A second reader would load or hash another copy.
    (read,) = [node for node in TREES["ingest.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "_read"]
    assert [_reads(call) for call in _open_calls(read)] == [True]
    allowed = {id(call) for call in _open_calls(read)}
    readers = sorted(f"{module} line {call.lineno}" for module, tree in TREES.items()
                     for call in _open_calls(tree) if id(call) not in allowed and _reads(call))
    assert not readers, f"open( for reading outside ingest._read: {', '.join(readers)}"


# The patch points of perfbench/tracing.py that the package no longer has.
# Each leaves its traced layer reading 0; the benchmark's own rework deletes
# them (ROADMAP item 1), and until then the list may shrink but not grow.
ORPHANED_PATCH_POINTS = {
    "specfilter.cli.optimize_als_multistart", "specfilter.cli.optimize_ga_multistart",
    "specfilter.als.vora_value", "specfilter.gradient.vora_value",
    "specfilter.als.rank_ratio", "specfilter.gradient.rank_ratio", "specfilter.colorimetry.rank_ratio",
}


def test_benchmark_patch_points_are_not_orphaned_further():
    # tracing.py wraps program functions under the names their callers look
    # them up by, so a refactor that stops importing a wrapped name into
    # specfilter.cli would silently zero a traced layer.  The module is
    # compiled in memory, so nothing is written under perfbench/, and a
    # Tracer patches nothing until install().
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    missing = set(namespace["Tracer"]().missing)
    assert missing <= ORPHANED_PATCH_POINTS, f"newly orphaned patch points: {sorted(missing - ORPHANED_PATCH_POINTS)}"
