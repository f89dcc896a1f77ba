"""Source hygiene checks that need no linter: every name a `gwharmonic`
module imports must be used in that module, and the CLI imports no scipy,
not even to build a p-ary law."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gwharmonic"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    assert unused_imports("import numpy as np\nfrom a import b, c\nnp.x(c)\n") == ["line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_cli_import_loads_no_scipy():
    # scipy costs about a second of import; only the test oracles need it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, gwharmonic.cli; gwharmonic.offspring.from_spec('pary:3'); "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
