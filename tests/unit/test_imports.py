"""The package's import hygiene, checked with the standard library alone.

No linter runs in CI, so this is the one: every module of ``src/``,
``tests/`` and ``benchmarks/`` uses what it imports, and every module of
``src/`` imports nothing but the standard library and ``repro`` itself,
which is also all ``pyproject.toml`` may declare.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
#: Every file whose imports must all be used.  A package's
#: ``__init__.py`` re-exports what it imports and a ``conftest.py`` may
#: import fixtures that pytest, not the file, uses, so both are skipped.
CHECKED = sorted(
    path for tree in (SRC, ROOT / "tests", ROOT / "benchmarks")
    for path in tree.rglob("*.py")
    if path.name not in ("__init__.py", "conftest.py"))


def _imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom)
                     and node.module == "__future__")]


def _annotation_strings(tree):
    """String constants inside annotations (forward references)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                yield node.value


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used.update(node.id for node in ast.walk(ast.parse(text, mode="eval"))
                    if isinstance(node, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return used


def _where(path, node):
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def test_modules_use_what_they_import():
    unused = []
    for path in CHECKED:
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        for node in _imports(tree):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{_where(path, node)}: unused import "
                                  f"{name!r}")
    assert unused == []


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in 3.10")
def test_modules_import_only_the_stdlib_and_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    foreign = []
    for path in MODULES:
        for node in _imports(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: inside repro
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            foreign.extend(f"{_where(path, node)}: imports {name!r}"
                           for name in names
                           if name.split(".")[0] not in allowed)
    assert foreign == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
