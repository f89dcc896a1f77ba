"""Tests of the benchmark itself: every output gate passes on the program's
real output and fails on a planted fault; the tracer wraps aliases and
computes self time; the run refuses a checkout without sources.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, aggregate
from worker import _digest
from workloads import Stage

from gwharmonic import cli, continuum, experiments, offspring, rde, trees

ROOT = Path(__file__).resolve().parent.parent


def _cli(*argv):
    rc = cli.main([str(a) for a in argv])
    assert rc in (0, 1)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small solved cloud with its solve and validate reports."""
    out = tmp_path_factory.mktemp("solved")
    _cli("rde", "solve", "--particles", 200_000, "--tol", "3e-3", "--polish", 4,
         "--seed", 5, "--out", out)
    _cli("rde", "validate", "--cloud", out / "cloud_M200000_seed5.txt", "--seed", 5,
         "--out", out)
    return out


def _levelset(out, seed=3):
    _cli("discrete", "levelset", "--offspring", "poisson", "--n", 30, "--p", "5,10",
         "--trials", 400, "--seed", seed, "--out", out)
    return Stage("discrete_levelset", [], f"levelset_poisson_{seed}.json", "cells", "p",
                 [5, 10], ("mean", "std_error", "exact", "z"), workloads.gate_levelset("poisson"))


# --- report gate -------------------------------------------------------------

def test_report_gate_passes_then_fails_on_missing_bad_or_short_report(tmp_path):
    stage = _levelset(tmp_path)
    assert stage.check(tmp_path) == []
    path = tmp_path / stage.report
    report = json.loads(path.read_text())

    report["cells"][0]["mean"] = math.nan
    path.write_text(json.dumps(report))
    assert stage.check(tmp_path)

    report["cells"] = report["cells"][:1]
    path.write_text(json.dumps(report))
    assert stage.check(tmp_path)

    path.unlink()
    assert stage.check(tmp_path) == [f"{stage.report} missing"]


# --- levelset gate -----------------------------------------------------------

def test_survival_probs_match_closed_form_for_geometric():
    q = workloads.survival_probs("geometric", 50)
    assert all(abs(q[n] - 1.0 / (n + 1)) < 1e-12 for n in range(51))


def test_levelset_gate_fails_on_off_by_one_level_sets(tmp_path, monkeypatch):
    assert _levelset(tmp_path / "clean").check(tmp_path / "clean") == []
    real = experiments.level_set
    monkeypatch.setattr(experiments, "level_set", lambda tree, k: real(tree, k)[1:])
    problems = _levelset(tmp_path / "fault").check(tmp_path / "fault")
    assert problems and all("against exact" in p for p in problems)


# --- cloud-beta gates ----------------------------------------------------------

def _validate_stage(seed):
    return Stage("rde_validate", [], f"rde_validate_seed{seed}.json", "checks", "criterion",
                 workloads.VALIDATE_CHECKS, (), workloads.gate_cloud_refs(seed))


def _beta_stage(seed):
    return Stage("beta", [], f"beta_cross_validate_seed{seed}.json", "estimates", "method",
                 ["moment", "triple", "shift"], ("value", "total_std_error"),
                 workloads.gate_beta_ref)


def test_cloud_and_beta_gates_pass_on_a_solved_cloud(solved):
    assert _validate_stage(5).check(solved) == []
    _cli("beta", "--cloud", solved / "cloud_M200000_seed5.txt", "--trials", 200_000,
         "--method", "all", "--seed", 5, "--out", solved)
    assert _beta_stage(5).check(solved) == []


def test_cloud_and_beta_gates_fail_on_a_cloud_scaled_by_1_1(tmp_path, monkeypatch):
    real = rde.solve_fixpoint

    def scaled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.cloud.samples = result.cloud.samples * 1.1
        return result

    monkeypatch.setattr(rde, "solve_fixpoint", scaled)
    _cli("rde", "solve", "--particles", 200_000, "--tol", "3e-3", "--polish", 4,
         "--seed", 5, "--out", tmp_path)
    cloud = tmp_path / "cloud_M200000_seed5.txt"
    _cli("rde", "validate", "--cloud", cloud, "--seed", 5, "--out", tmp_path)
    _cli("beta", "--cloud", cloud, "--trials", 200_000, "--method", "all", "--seed", 5,
         "--out", tmp_path)
    problems = _validate_stage(5).check(tmp_path)
    assert any(p.startswith("E[C]") for p in problems)
    assert any(p.startswith("K0") for p in problems)
    assert _beta_stage(5).check(tmp_path)[0].startswith("beta consensus")


# --- continuum gate --------------------------------------------------------------

def _continuum(solved, out):
    _cli("continuum", "dimension", "--cloud", solved / "cloud_M200000_seed5.txt",
         "--eps", "2^-6,2^-8", "--trials", 500, "--seed", 5, "--out", out)
    return Stage("continuum_dimension", [], "continuum_dimension_seed5.json", "points", "eps",
                 [2.0 ** -6, 2.0 ** -8], ("exponent", "std_error"), workloads.gate_continuum)


def test_continuum_gate_fails_on_inflated_ray_masses(solved, tmp_path, monkeypatch):
    assert _continuum(solved, tmp_path / "clean").check(tmp_path / "clean") == []
    real = continuum.ray_mass_samples
    monkeypatch.setattr(continuum, "ray_mass_samples", lambda *a: 1.3 * real(*a))
    problems = _continuum(solved, tmp_path / "fault").check(tmp_path / "fault")
    assert len(problems) == 2 and all("outside" in p for p in problems)


# --- determinism gate ------------------------------------------------------------

def _run_record(workdir: Path, monkeypatch) -> dict:
    """One levelset run in its own working directory, as worker.py runs stages."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    _levelset(Path("out"))
    digest = {p.name: _digest(p) for p in sorted(Path("out").glob("*"))}
    return {"stages": [{"rc": 0, "error": None, "problems": [], "digest": digest}]}


def test_determinism_gate_ignores_wall_clock_and_fails_on_a_reseeded_stream(tmp_path, monkeypatch):
    runs = [_run_record(tmp_path / "first", monkeypatch),
            _run_record(tmp_path / "again", monkeypatch)]
    clocks = {json.loads((tmp_path / d / "out/levelset_poisson_3.json").read_text())["wall_clock_s"]
              for d in ("first", "again")}
    assert len(clocks) == 2
    real = cli.task_stream
    monkeypatch.setattr(cli, "task_stream", lambda seed, *a: real(seed + 1, *a))
    runs.append(_run_record(tmp_path / "fault", monkeypatch))
    assert run._mark_failures(runs) == (3, 1)
    assert [r["stages"][0]["failed"] for r in runs] == [False, False, True]


# --- tracer ----------------------------------------------------------------------

@pytest.fixture
def restore_bindings():
    """Undo the tracer's patching of the gwharmonic namespaces."""
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("gwharmonic.")}
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


def test_tracer_wraps_aliases_by_identity(restore_bindings):
    original = trees.reduce
    assert experiments.reduce_tree is original
    tracer = Tracer()
    tracer.install()
    assert experiments.reduce_tree is trees.reduce is not original
    assert "cli.main" not in tracer.wrapped and "trees.reduce" in tracer.wrapped

    tree, _ = trees.sample_fixed_size_conditioned(offspring.geometric(), 400, 5,
                                                  np.random.default_rng(1))
    experiments.reduce_tree(tree, 5)
    names = [s[1] for s in tracer.spans]
    assert "trees.reduce" in names and "trees.sample_fixed_size_conditioned" in names


def test_aggregate_self_time_subtracts_children_and_keeps_silent_spans():
    spans = [[0, "a.f", 0.0, 10.0, None, "s", None],
             [1, "b.g", 1.0, 4.0, 0, "s", {"b.n": 2}],
             [2, "b.g", 5.0, 6.0, 0, "s", {"b.n": 3}]]
    out = aggregate(["a.f", "b.g", "c.never"], spans)
    assert out["a.f.self_s"] == pytest.approx(6.0)
    assert out["b.g.self_s"] == pytest.approx(4.0)
    assert out["b.g.calls"] == 2 and out["b.n"] == 5
    assert out["c.never.calls"] == 0 and out["c.never.self_s"] == 0.0


# --- the benchmark as a whole ----------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workloads_pass_no_preset_threads_or_inner():
    for name in workloads.WORKLOADS:
        for stage in workloads.build(name, 1).stages:
            assert not {"--preset", "--threads", "--inner"} & set(stage.argv)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "continuum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
