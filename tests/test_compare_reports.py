import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)


def _write_run(d: Path, wall: float, out: str, mean: float = 0.5, cloud: str = "c.txt"):
    d.mkdir()
    report = {"experiment": "levelset", "config": {"seed": 1, "out": out, "cloud": cloud},
              "cells": [{"n": 10, "mean": 0.25}, {"n": 20, "mean": mean}],
              "checks": [{"criterion": "c", "passed": True}], "wall_clock_s": wall}
    (d / "levelset_geometric_1.json").write_text(json.dumps(report))
    (d / "levelset_geometric_1.csv").write_text(f"n,mean\n10,0.25\n20,{mean}\n")


def test_equal_runs_match_up_to_wall_clock_and_out(tmp_path):
    _write_run(tmp_path / "a", 1.0, "runs-a")
    _write_run(tmp_path / "b", 7.5, "runs-b")
    res = _run(tmp_path / "a", tmp_path / "b")
    assert res.returncode == 0, res.stdout
    assert res.stdout.strip() == "reports match"


@pytest.mark.parametrize("cloud_a, cloud_b, differs", [
    ("runs-a/cloud.txt", "runs-b/cloud.txt", False),
    ("runs-a/cloud_M10_seed1.txt", "runs-b/cloud_M10_seed2.txt", True),
    ("elsewhere-a/cloud.txt", "elsewhere-b/cloud.txt", True),
])
def test_paths_under_out_compare_by_their_remainder(tmp_path, cloud_a, cloud_b, differs):
    _write_run(tmp_path / "a", 1.0, "runs-a", cloud=cloud_a)
    _write_run(tmp_path / "b", 1.0, "runs-b", cloud=cloud_b)
    res = _run(tmp_path / "a", tmp_path / "b")
    assert res.returncode == int(differs), res.stdout
    expected = ["levelset_geometric_1.json:config.cloud differs"] if differs else ["reports match"]
    assert res.stdout.splitlines() == expected


def test_one_perturbed_cell_fails(tmp_path):
    _write_run(tmp_path / "a", 1.0, "runs")
    _write_run(tmp_path / "b", 1.0, "runs")
    csv = tmp_path / "b" / "levelset_geometric_1.csv"
    csv.write_text(csv.read_text().replace("20,0.5", "20,0.5000001"))
    res = _run(tmp_path / "a", tmp_path / "b")
    assert res.returncode == 1
    assert res.stdout.splitlines() == ["levelset_geometric_1.csv:row[1].mean differs"]
    _write_run(tmp_path / "c", 1.0, "runs", mean=0.75)
    res = _run(tmp_path / "a", tmp_path / "c")
    assert res.returncode == 1
    assert "levelset_geometric_1.json:cells[1].mean differs" in res.stdout.splitlines()


def test_one_flipped_cloud_byte_fails(tmp_path):
    cloud = b"GAMMA-CLOUD v2 2 1 3\n3ff0000000000000\n4000000000000000\n"
    for d in ("a", "b"):
        _write_run(tmp_path / d, 1.0, "runs")
        (tmp_path / d / "cloud.txt").write_bytes(cloud)
    assert _run(tmp_path / "a", tmp_path / "b").stdout.strip() == "reports match"
    flipped = bytearray(cloud)
    flipped[-2] ^= 1  # last digit of the last value: 0 -> 1
    (tmp_path / "b" / "cloud.txt").write_bytes(bytes(flipped))
    res = _run(tmp_path / "a", tmp_path / "b")
    assert res.returncode == 1
    assert res.stdout.splitlines() == ["cloud.txt differs"]


def test_missing_report_fails(tmp_path):
    _write_run(tmp_path / "a", 1.0, "runs")
    _write_run(tmp_path / "b", 1.0, "runs")
    (tmp_path / "b" / "levelset_geometric_1.csv").unlink()
    res = _run(tmp_path / "a", tmp_path / "b")
    assert res.returncode == 1 and "only in" in res.stdout
