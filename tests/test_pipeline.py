"""Acceptance test of `scripts/run_pipeline.py`, run as a user runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwharmonic.cli import settings
from gwharmonic.rde import z_score

ROOT = Path(__file__).resolve().parents[1]

# One JSON report per pipeline stage; levelset runs once per offspring law.
STAGE_REPORTS = ["beta_cross_validate_seed1.json", "conductance_geometric_1.json",
                 "continuum_dimension_seed1.json", "fixed_size_geometric_1.json",
                 "levelset_geometric_1.json", "levelset_poisson_1.json", "rde_solve_seed1.json",
                 "rde_validate_seed1.json", "theorem1_geometric_1.json"]
# The pipeline's closing table: its header, and the stages in the order they run.
TABLE_HEAD = ["stage", "exit", "wall_s", "rss_mb"]
STAGES = ["rde solve", "rde validate", "beta", "discrete theorem1 geometric",
          "discrete conductance geometric", "discrete fixed-size geometric",
          "discrete levelset geometric", "discrete levelset poisson", "continuum dimension"]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """The smoke pipeline at seed 1: its output directory and finished process."""
    out = tmp_path_factory.mktemp("smoke")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--preset",
                          "smoke", "--seed", "1", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=600)
    return out, res


def test_smoke_pipeline_writes_the_cloud_and_every_stage_report(smoke_run):
    tmp_path, res = smoke_run
    # 1 is a statistical check that failed at smoke scale (theorem1's trend
    # checks on three levels cannot pass); 2 is a usage or I/O error
    assert res.returncode in (0, 1), res.stdout + res.stderr
    particles = settings("rde solve", "smoke")["particles"]
    cloud = (tmp_path / f"cloud_M{particles}_seed1.txt").read_bytes()
    header = cloud[: cloud.index(b"\n") + 1]
    assert header.startswith(f"GAMMA-CLOUD v3 {particles} 1 ".encode("ascii")), header
    assert len(cloud) == len(header) + 8 * particles
    assert sorted(p.name for p in tmp_path.glob("*.json")) == STAGE_REPORTS
    for name in STAGE_REPORTS:
        report = json.loads((tmp_path / name).read_text())
        assert report["config"]["seed"] == 1 and "checks" in report, name
    # the per-stage table: one row per stage process, its exit code, wall
    # seconds and peak RSS in MB
    lines = res.stdout.splitlines()
    head = [line.split() for line in lines].index(TABLE_HEAD)
    rows = [line.rsplit(maxsplit=3) for line in lines[head + 1 :]]
    assert [r[0] for r in rows] == STAGES
    for _, code, wall, rss in rows:
        assert int(code) in (0, 1) and float(wall) > 0 and float(rss) > 0


def test_every_check_row_passes_by_its_own_numbers(smoke_run):
    # every row carries the numbers it tests, and its verdict follows from them by its rule
    for name in STAGE_REPORTS:
        for row in json.loads((smoke_run[0] / name).read_text())["checks"]:
            assert isinstance(row["passed"], bool) and "statistic" in row, (name, row)
            if "z" in row:
                assert row["passed"] == (abs(row["z"]) <= row["bound"]), (name, row)
                assert row["z"] == z_score(row["statistic"], row["std_error"]), (name, row)
            elif "p" in row:
                assert row["passed"] == (row["p"] < row["bound"]), (name, row)
            elif "bound" in row:
                assert row["passed"] == (row["statistic"] <= row["bound"]), (name, row)
