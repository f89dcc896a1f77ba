"""Source hygiene checks that need no linter: every name a `gwharmonic`
module, a test or a script imports must be used in that file, every public
function and class must be used somewhere in the package (code that only
tests reach belongs in tests/oracles.py), and the CLI imports no scipy, not
even to build a p-ary law."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gwharmonic"
SOURCES = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    assert unused_imports("import numpy as np\nfrom a import b, c\nnp.x(c)\n") == ["line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def _references(node):
    """Names a node reads: bare names, attributes, and the imported name of
    `from m import a as b` (a)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes of the given modules that no
    module refers to outside their own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = Counter(ref for tree in trees.values() for ref in _references(tree))
    return [f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and used[node.name] == Counter(_references(node))[node.name]]


def test_every_public_definition_is_used_in_the_package():
    assert unreferenced_definitions({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_unreferenced_definition_detector():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\ndef _h():\n    pass\n",
               "b": "from .a import g as k\n\nclass C:\n    pass\n\nk()\n"}
    assert unreferenced_definitions(sources) == ["a.f", "b.C"]


def test_cli_import_loads_no_scipy():
    # scipy costs about a second of import; only the test oracles need it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, gwharmonic.cli; gwharmonic.offspring.from_spec('pary:3'); "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
