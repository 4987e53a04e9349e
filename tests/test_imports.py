"""Every name a module of the package imports is used or re-exported, and
no module imports ``dataclasses``."""

import ast
from pathlib import Path

import pytest

import spreadcodes

SOURCES = sorted(Path(spreadcodes.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads and
    ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    src = "import os\nfrom x import a, b as c\n__all__ = ['a']\nprint(os)\n"
    assert _unused_imports(src) == [(2, "c")]


def _dataclass_imports(source: str) -> list:
    """Lines of ``source`` that import ``dataclasses``: it loads ``inspect``,
    ``ast`` and ``dis`` at the start of every command, so records are
    ``NamedTuple`` or plain classes instead."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "dataclasses"
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert _dataclass_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_dataclasses_import():
    src = "import os\nimport dataclasses\ndef f():\n    from dataclasses import field\n"
    assert _dataclass_imports(src) == [2, 4]
