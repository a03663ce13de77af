"""Every module of the package and of the tests uses each name it imports,
and every top-level definition of the package is read somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "sasmamba").glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# read only by tests: the one-cloud form of the P2 alignment, and the
# context that checks every op for NaNs
ONLY_TESTS_READ = {"procrustes_align", "checked_mode"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def unread_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes of ``sources`` that none of them reads,
    by name or as an attribute."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_every_definition_is_read():
    unread = unread_definitions([p.read_text() for p in PACKAGE])
    assert sorted(set(unread) - ONLY_TESTS_READ) == []


def test_an_unread_definition_is_found():
    # g is read by name and f as an attribute, in another module
    sources = ["def f():\n    return g()\n\n\ndef g():\n    return 1\n",
               "import m\n\n\nclass C:\n    pass\n\n\nclass D:\n    x = m.f\n"]
    assert unread_definitions(sources) == ["C", "D"]
