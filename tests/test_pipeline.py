"""Acceptance test of `scripts/run_pipeline.py`, run as a user runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gwharmonic.cli import settings

ROOT = Path(__file__).resolve().parents[1]

# One JSON report per pipeline stage; levelset runs once per offspring law.
STAGE_REPORTS = ["beta_cross_validate_seed1.json", "conductance_geometric_1.json",
                 "continuum_dimension_seed1.json", "fixed_size_geometric_1.json",
                 "levelset_geometric_1.json", "levelset_poisson_1.json", "rde_solve_seed1.json",
                 "rde_validate_seed1.json", "theorem1_geometric_1.json"]


def test_smoke_pipeline_writes_the_cloud_and_every_stage_report(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--preset",
                          "smoke", "--seed", "1", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=600)
    # 1 is a statistical check that failed at smoke scale (theorem1's trend
    # checks on three levels cannot pass); 2 is a usage or I/O error
    assert res.returncode in (0, 1), res.stdout + res.stderr
    particles = settings("rde solve", "smoke")["particles"]
    assert (tmp_path / f"cloud_M{particles}_seed1.txt").is_file()
    assert sorted(p.name for p in tmp_path.glob("*.json")) == STAGE_REPORTS
    for name in STAGE_REPORTS:
        report = json.loads((tmp_path / name).read_text())
        assert report["config"]["seed"] == 1 and "checks" in report, name
