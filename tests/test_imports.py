"""Every name a module of the package imports is used or re-exported, every
name it exports is read by the program, and no module imports
``dataclasses``."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spreadcodes

SOURCES = sorted(Path(spreadcodes.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _exports(tree) -> list:
    """The names of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads and
    ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set(_exports(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
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


# the program: the package, the benchmark and the acceptance criteria
ROOT = Path(__file__).resolve().parent.parent
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
READERS += [ROOT / "tests" / "test_acceptance.py"]


def _reads(tree, own=()) -> set:
    """Names that ``tree`` reads as a name or an attribute, leaving out a
    read inside the top-level definition of that name among ``own``."""
    spans = {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in own
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        lo, hi = spans.get(name, (0, -1))
        if not lo <= node.lineno <= hi:
            out.add(name)
    return out


def _unread_exports(module: str, others) -> list:
    """Names in the ``__all__`` of ``module`` (source text) that neither it,
    outside their own definitions, nor any of ``others`` reads."""
    tree = ast.parse(module)
    exported = _exports(tree)
    read = _reads(tree, exported).union(*(_reads(ast.parse(o)) for o in others))
    return sorted(set(exported) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_read_by_the_program(path):
    others = [p.read_text(encoding="utf-8") for p in READERS if p != path]
    assert _unread_exports(path.read_text(encoding="utf-8"), others) == []


def test_detects_an_export_only_tests_read():
    src = (
        "__all__ = ['used', 'twin', 'rec', 'Rec']\n"
        "def used(): pass\n"
        "def twin(): return used()\n"
        "def rec(n): return rec(n - 1)\n"
        "class Rec: pass\n"
    )
    assert _unread_exports(src, ["import m\nm.Rec()\n"]) == ["rec", "twin"]


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


# a fresh interpreter: this one has numpy and every module loaded
CLI_IMPORT = textwrap.dedent(
    """
    import contextlib, hashlib, io, json, sys
    import spreadcodes.cli

    watched = ("csv", "spreadcodes.corpus", "numpy")
    out = {"loaded": [m for m in watched if m in sys.modules]}
    for argv in (["enumerate", "lines", "--format", "csv"], ["verify-paper"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = spreadcodes.cli.main(argv)
        out[argv[0]] = hashlib.sha256(f"{rc}\\n{buf.getvalue()}".encode()).hexdigest()
    print(json.dumps(out))
    """
)


def test_cli_loads_csv_and_corpus_on_demand():
    """``import spreadcodes.cli`` loads neither ``csv`` nor the corpus nor
    numpy; the commands that need the first two still print their pinned
    output (``TestOutputPins`` in ``tests/test_cli.py``) in that process."""
    src = str(Path(spreadcodes.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_IMPORT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(proc.stdout) == {
        "loaded": [],
        "enumerate": "152d237b532d8cad46bec3ea586ae9fff1db666abf777ac3f72d571d65be566f",
        "verify-paper": "d5bca078674d1709ee5f2a429a4383cc4b534ea616e0a1f9076da8afc9b39e42",
    }
