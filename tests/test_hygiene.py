"""Source hygiene checks that need no linter: every name a `gwharmonic`
module, a test or a script imports must be used in that file, every public
function and class, and every public method and property of a class, must be
used somewhere in the package (code that only tests reach belongs in
tests/oracles.py), the CLI imports no scipy, not even to build a p-ary
law, nor `concurrent.futures` before the thread pool is first used, and one
function of the CLI reads the clock: every report is timed in one place."""

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


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Public definitions (see _definitions) of the given modules that no
    module refers to outside their own definition; a member is matched by
    its bare name."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = Counter(ref for tree in trees.values() for ref in _references(tree))
    return [f"{name}.{qualname}" for name, tree in trees.items()
            for qualname, node in _definitions(tree)
            if not node.name.startswith("_") and used[node.name] == Counter(_references(node))[node.name]]


def test_every_public_definition_is_used_in_the_package():
    assert unreferenced_definitions({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_unreferenced_definition_detector():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\ndef _h():\n    pass\n",
               "b": "from .a import g as k\n\nclass C:\n    pass\n\nk()\n"}
    assert unreferenced_definitions(sources) == ["a.f", "b.C"]
    members = {"a": "class C:\n    @property\n    def p(self):\n        return self.p\n\n"
                    "    def m(self):\n        pass\n\n    def _q(self):\n        pass\n\nC().m()\n"}
    assert unreferenced_definitions(members) == ["a.C.p"]


CLOCKS = {"time", "perf_counter"}


def clock_reads(source: str) -> list[str]:
    """The innermost function around each `time.time` or `time.perf_counter`
    of a module ("<module>" outside any), in source order; a clock imported
    by name from `time` counts where it is imported."""
    reads, scope = [], ["<module>"]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "time" and node.attr in CLOCKS:
                reads.append(scope[-1])
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "time":
                reads.extend(scope[-1] for alias in node.names if alias.name in CLOCKS)

    Visitor().visit(ast.parse(source))
    return reads


def test_only_the_cli_runner_reads_the_clock():
    reads = {p.stem: clock_reads(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: funcs for module, funcs in reads.items() if funcs} == {"cli": ["_run"] * 2}


def test_clock_read_detector():
    source = ("import time\nfrom time import perf_counter\n\ndef f():\n    t = time.time()\n\n"
              "    def g():\n        return time.perf_counter() - t\n\n    return g\n\n"
              "x = time.sleep\n")
    assert clock_reads(source) == ["<module>", "f", "g"]


def _fresh_modules(code: str, package: str) -> list[str]:
    """The modules of `package` loaded after `code` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += f"; print([m for m in sys.modules if m.partition('.')[0] == {package!r}])"
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return ast.literal_eval(out.strip())


def test_cli_import_loads_no_scipy():
    # scipy costs about a second of import; only the test oracles need it
    assert _fresh_modules("import gwharmonic.cli; gwharmonic.offspring.from_spec('pary:3')",
                          "scipy") == []


def test_thread_pool_is_imported_on_first_use():
    # the CLI import pays nothing for the pool; its first user imports concurrent.futures
    assert _fresh_modules("import gwharmonic.cli", "concurrent") == []
    assert "concurrent.futures" in _fresh_modules("import gwharmonic.rngs; gwharmonic.rngs.pool()",
                                                  "concurrent")
