"""Source hygiene checks that need no linter: every name a `gwharmonic`
module, a test or a script imports must be used in that file, every public
function and class, and every public method and property of a class, must be
used somewhere in the package (code that only tests reach belongs in
tests/oracles.py), and so must every name a module-level assignment binds,
private ones too, the CLI imports no scipy, not even to build a p-ary
law, nor `concurrent.futures` before the thread pool is first used,
theorem1 runs without `numpy.ma`, one
function of the CLI reads the clock: every report is timed in one place,
`experiments.check` is the one place that writes a check row,
pyproject.toml declares only the runtime dependencies the package
imports, at the version every report writes, `rngs` is the one module
that names a bit generator, and only `cli` calls its stream factory."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gwharmonic import __version__, rngs

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


def _constants(tree):
    """(name, node) of each name bound by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Names bound by top-level assignments of the given modules, private
    ones too, that no module reads outside their own assignment."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = Counter(ref for tree in trees.values() for ref in _references(tree))
    return [f"{name}.{const}" for name, tree in trees.items() for const, node in _constants(tree)
            if used[const] == Counter(_references(node))[const]]


def test_every_constant_is_read_in_the_package():
    assert unread_constants({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_unread_constant_detector():
    sources = {"a": "_N = 8\nX, _Y = 1, 2\nZ: int = X\nW = W_OLD = 3\n\ndef f():\n    return _Y + W\n",
               "b": "from .a import Z as k\n_T = _T\n"}
    assert unread_constants(sources) == ["a._N", "a.W_OLD", "b._T"]


CLOCKS = {"time", "perf_counter"}


def scopes_of(source: str, hits) -> list[str]:
    """The innermost function around each node of a module ("<module>"
    outside any), once per hit that `hits(node)` counts, in source order."""
    found, scope = [], ["<module>"]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def generic_visit(self, node):
            found.extend(scope[-1:] * hits(node))
            super().generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def clock_reads(source: str) -> list[str]:
    """The function around each `time.time` or `time.perf_counter` of a
    module (see scopes_of); a clock imported by name from `time` counts
    where it is imported."""
    def hits(node):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            return sum(alias.name in CLOCKS for alias in node.names)
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "time" and node.attr in CLOCKS)

    return scopes_of(source, hits)


def test_only_the_cli_runner_reads_the_clock():
    reads = {p.stem: clock_reads(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: funcs for module, funcs in reads.items() if funcs} == {"cli": ["_run"] * 2}


def test_clock_read_detector():
    source = ("import time\nfrom time import perf_counter\n\ndef f():\n    t = time.time()\n\n"
              "    def g():\n        return time.perf_counter() - t\n\n    return g\n\n"
              "x = time.sleep\n")
    assert clock_reads(source) == ["<module>", "f", "g"]


def check_rows(source: str) -> list[str]:
    """The function around each dict literal with a "criterion" key, or
    `dict(criterion=...)` call, of a module (see scopes_of)."""
    def hits(node):
        if isinstance(node, ast.Dict):
            return any(isinstance(k, ast.Constant) and k.value == "criterion" for k in node.keys)
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
                and any(kw.arg == "criterion" for kw in node.keywords))

    return scopes_of(source, hits)


def test_only_experiments_check_builds_a_check_row():
    rows = {p.stem: check_rows(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: funcs for module, funcs in rows.items() if funcs} == {"experiments": ["check"]}


def test_check_row_detector():
    source = ("ROW = {'criterion': 'a', 'passed': True}\n\ndef f(z):\n"
              "    return [{'detail': 'x', 'criterion': 'b'}, {'passed': z}, {**ROW}]\n\n"
              "def g():\n    return dict(criterion='c', passed=False)\n")
    assert check_rows(source) == ["<module>", "f", "g"]


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


def test_cli_import_loads_no_numpy_fft_or_polynomial():
    # numpy loads both on first use; only the lattice routines call numpy.fft, and nothing numpy.polynomial
    loaded = _fresh_modules("import gwharmonic.cli", "numpy")
    assert [m for m in loaded if m.startswith(("numpy.fft", "numpy.polynomial"))] == []


def test_theorem1_loads_no_numpy_ma():
    # np.quantile imports numpy.ma on its first call, about 10 ms of a stage
    code = ("from gwharmonic import experiments as ex, offspring as off; "
            "from gwharmonic.rngs import task_stream; "
            "ex.run_theorem1(off.geometric(), [8, 16], 0.25, 50, task_stream(1, 'experiments', 1), 0.7845)")
    assert "numpy.ma" not in _fresh_modules(code, "numpy")


def test_pyproject_declares_what_the_package_imports_at_its_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    nodes = [node for p in SRC.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))]
    imported = {name.partition(".")[0] for node in nodes
                for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else
                             [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                             else [])}
    runtime = {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]}
    assert runtime <= imported  # scipy, which only the tests import, sits in the test extra
    assert project["version"] == __version__  # every report writes it as `version`


def test_thread_pool_is_imported_on_first_use():
    # the CLI import pays nothing for the pool; its first user imports concurrent.futures
    assert _fresh_modules("import gwharmonic.cli", "concurrent") == []
    assert "concurrent.futures" in _fresh_modules("import gwharmonic.rngs; gwharmonic.rngs.pool()",
                                                  "concurrent")


# numpy's bit generators by class name, and its seeding shortcut
BIT_GENERATORS = {name for name in dir(np.random) if isinstance(getattr(np.random, name), type)
                  and issubclass(getattr(np.random, name), np.random.BitGenerator)}


def generator_names(source: str) -> list[str]:
    """Each bit generator class or `default_rng` that a module names, as an
    attribute (`np.random.SFC64`) or a bare name, in source order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in BIT_GENERATORS | {"default_rng"}:
            names.append((node.lineno, node.col_offset, name))
    return [name for *_, name in sorted(names)]


def test_only_rngs_names_a_bit_generator():
    found = {p.stem: generator_names(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {"rngs": ["SFC64"]}


def test_generator_name_detector():
    assert {"Philox", "PCG64", "SFC64", "MT19937"} <= BIT_GENERATORS
    source = ("import numpy as np\nfrom numpy.random import PCG64\n"
              "g = np.random.Generator(np.random.Philox(1))\nh = np.random.default_rng(2)\n"
              "k = PCG64(3)\nrng.random(4)\n")
    assert generator_names(source) == ["Philox", "default_rng", "PCG64"]


def test_task_streams_are_sfc64_keyed_on_seed_module_and_task():
    draws = rngs.task_stream(5, "rde", 3).random(8)
    assert isinstance(rngs.task_stream(5, "rde", 3).bit_generator, np.random.SFC64)
    assert np.array_equal(rngs.task_stream(5, "rde", 3).random(8), draws)
    for other in (rngs.task_stream(5, "rde", 4), rngs.task_stream(5, "beta", 3),
                  rngs.task_stream(6, "rde", 3)):
        assert not np.any(other.random(8) == draws)


def stream_makers(source: str) -> list[str]:
    """The function around each call of `task_stream` or `SeedSequence` of a
    module (see scopes_of), by bare name or as an attribute."""
    def hits(node):
        if not isinstance(node, ast.Call):
            return False
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        return name in {"task_stream", "SeedSequence"}

    return scopes_of(source, hits)


def test_only_the_cli_makes_a_stream():
    # rngs seeds one factory, the cli calls it once per stage stream, and
    # every other module draws from the generator it is handed
    made = {p.stem: stream_makers(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: funcs for module, funcs in made.items() if funcs} == {
        "cli": ["cmd_rde_solve", "cmd_beta", "_discrete", "_beta_ref", "cmd_continuum"],
        "rngs": ["task_stream"]}


def test_stream_maker_detector():
    source = ("import numpy as np\nfrom .rngs import task_stream\n\ndef f(seed):\n"
              "    return task_stream(seed, 'rde')\n\ndef g():\n    ss = np.random.SeedSequence(1)\n"
              "    return rng.spawn(2), task_stream\n")
    assert stream_makers(source) == ["f", "g"]
