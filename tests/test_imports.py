"""Every name a module of the package imports is used or re-exported, every
name it exports is read by the program, every field of its ``NamedTuple``
records is read, no module imports ``dataclasses``, and none names
``AssertionError`` or holds an ``assert``."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spreadcodes

PACKAGE = Path(spreadcodes.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
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


def _imported(tree, package: bool) -> set:
    """Names that ``tree`` binds by an import from ``spreadcodes``: absolute,
    or relative where ``package`` (a module of the package itself)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "spreadcodes":
                    out.add(a.asname or "spreadcodes")
        elif isinstance(node, ast.ImportFrom):
            ours = package if node.level else node.module.split(".")[0] == "spreadcodes"
            if ours:
                out.update(a.asname or a.name for a in node.names)
    return out


def _root(node):
    """The name an attribute chain such as ``a.b.c`` starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _reads(tree, bound, own=()) -> set:
    """Names that ``tree`` reads as one of the names ``bound``, or as an
    attribute of one, leaving out a read inside the top-level definition of
    that name among ``own``."""
    spans = {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in own
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
            if name not in bound:
                continue
        elif isinstance(node, ast.Attribute) and _root(node.value) in bound:
            name = node.attr
        else:
            continue
        lo, hi = spans.get(name, (0, -1))
        if not lo <= node.lineno <= hi:
            out.add(name)
    return out


def _unread_exports(module: str, others) -> list:
    """Names in the ``__all__`` of ``module`` (source text) that neither it,
    outside their own definitions, nor any of ``others`` reads.  ``others``
    are ``(source text, package)`` pairs: a reader counts a name only where
    it binds that name, or a module holding it, by an import from
    ``spreadcodes`` (see `_imported`), so a name of its own, or an attribute
    of an object of its own, that happens to match does not count."""
    tree = ast.parse(module)
    exported = _exports(tree)
    read = _reads(tree, set(exported), exported)
    for text, package in others:
        other = ast.parse(text)
        read |= _reads(other, _imported(other, package))
    return sorted(set(exported) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_read_by_the_program(path):
    others = [
        (p.read_text(encoding="utf-8"), p.parent == PACKAGE)
        for p in READERS
        if p != path
    ]
    assert _unread_exports(path.read_text(encoding="utf-8"), others) == []


def test_detects_an_export_only_tests_read():
    src = (
        "__all__ = ['used', 'twin', 'rec', 'Rec', 'span', 'dot']\n"
        "def used(): pass\n"
        "def twin(): return used()\n"
        "def rec(n): return rec(n - 1)\n"
        "class Rec: pass\n"
        "def span(): pass\n"
        "def dot(): pass\n"
    )
    readers = [
        ("from spreadcodes import m\nm.Rec()\n", False),
        # a name of the reader's own, and an attribute of its own object
        ("def span(): pass\nspan()\ntracer.span()\n", False),
        # a relative import reads the package only inside the package
        ("from .m import dot\ndot()\n", False),
    ]
    assert _unread_exports(src, readers) == ["dot", "rec", "span", "twin"]
    readers[2] = (readers[2][0], True)
    assert _unread_exports(src, readers) == ["rec", "span", "twin"]


def _unread_fields(sources, readers) -> list:
    """(class, field) for each field of a ``NamedTuple`` class in ``sources``
    that no text of ``readers`` reads as an attribute (``x.field``): a field
    nothing reads is a copy of a fact held elsewhere, or no fact at all."""
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (node.name, stmt.target.id)
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    )


def test_every_namedtuple_field_is_read():
    readers = SOURCES + sorted((ROOT / "bench").glob("*.py"))
    readers += sorted((ROOT / "tests").glob("*.py"))
    assert _unread_fields(
        [p.read_text(encoding="utf-8") for p in SOURCES],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == []


def test_detects_an_unread_field():
    src = (
        "class A(NamedTuple):\n    x: int\n    y: int = 0\n    TAGS = ('a',)\n"
        "class B:\n    z: int\n"
    )
    # a store, a keyword and a name of the same spelling are no reads
    readers = ["a.x\nb.w\n", "a.y = 1\nA(y=2)\ny = 3\n"]
    assert _unread_fields([src], readers) == [("A", "y")]


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


def _assertion_errors(source: str) -> list:
    """Lines of ``source`` that name ``AssertionError`` or hold an
    ``assert``, which ``python -O`` drops: a failed invariant is a
    ``SpreadAnomaly``, which the command line reports with exit 3."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assertion_error_in_src(path):
    assert _assertion_errors(path.read_text(encoding="utf-8")) == []


def test_detects_an_assertion_error():
    src = (
        "assert x\n"
        "def f():\n"
        "    raise AssertionError('bad')\n"
        "try:\n"
        "    f()\n"
        "except AssertionError:\n"
        "    pass\n"
    )
    assert _assertion_errors(src) == [1, 3, 6]


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
