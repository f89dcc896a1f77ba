"""gwharmonic benchmark: time CLI-stage workloads end to end, or trace them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conditioned --seed 1 --seconds 20 --trace 0

Each workload run happens in a fresh process (worker.py), which pays what a
user pays: the import, the fixture cloud, CLI parsing, cloud loads and report
writing.  Runs are repeated, one at a time and at the same seed, as often as
fits in `--seconds` and at least twice, so that the reports of two runs can
be compared.  Times are rescaled to a reference machine speed measured by a
probe while each run is in progress (see PROBE_REF_S).  With `--trace 0` the
last line of stdout is one JSON object holding the end-to-end metrics
(medians over the runs); with `--trace 1` untraced and traced runs alternate
and the object holds the per-layer metrics.  The program's outputs are gated
on every run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import aggregate
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_RUNS = 2
DEADLINE_S = 170.0

# The machine's speed drifts by tens of percent over seconds to minutes, and
# the drift is shared by all work on it.  While a run is in progress the
# parent times a small fixed probe every PROBE_EVERY_S seconds on the other
# core (about 1% of one core), and rescales the run's times to the speed at
# which the probe takes PROBE_REF_S: its median on the 2-core VM where the
# benchmark was defined.  Raw times are kept as per-layer metrics.
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.0018
_PROBE_DATA = np.random.default_rng(0).random(50_000)

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_ok_frac", "ratio")]

_STAGES = ("rde_solve", "rde_validate", "beta", "discrete_theorem1", "discrete_conductance",
           "discrete_levelset", "discrete_fixed_size", "continuum_dimension")
PER_LAYER = [
    ("offspring.sample_offspring.self_s", "s"), ("offspring.sample_offspring.calls", "count"),
    ("offspring.draws", "count"),
    ("trees.sample_conditioned_batch.self_s", "s"),
    ("trees.sample_conditioned_batch.calls", "count"),
    ("trees.trials", "count"), ("trees.survivors", "count"), ("trees.materialised", "count"),
    ("trees.reduced_nodes", "count"), ("trees.accept_ratio", "ratio"),
    ("trees.use_ratio", "ratio"),
    ("trees.sample_fixed_size.self_s", "s"), ("trees.sample_fixed_size.calls", "count"),
    ("trees.fixed_size_trials", "count"),
    ("trees.reduce.self_s", "s"), ("trees.reduce.calls", "count"),
    ("trees.tree_from_generation_counts.self_s", "s"),
    ("trees.tree_from_preorder_degrees.self_s", "s"),
    ("trees.tree_from_preorder_degrees.calls", "count"),
    *[(f"network.{f}.{m}", u) for f in ("harmonic_measure_exact", "conductance_to_level",
                                        "check_conductance_invariants", "sample_boundary")
      for m, u in (("self_s", "s"), ("calls", "count"))],
    ("network.swept_nodes", "count"),
    ("rde.solve_fixpoint.self_s", "s"), ("rde.phi_step.self_s", "s"),
    ("rde.phi_step.calls", "count"), ("rde.particles_stepped", "count"),
    ("rde.solve_iterations", "count"), ("rde.wasserstein1.self_s", "s"),
    ("rde.check_identity.self_s", "s"), ("rde.laplace_ode_residual.self_s", "s"),
    ("rde.estimate_floor.self_s", "s"),
    ("rde.save_cloud.self_s", "s"), ("rde.cloud_bytes", "bytes"),
    ("rde.load_cloud.self_s", "s"), ("rde.load_cloud.calls", "count"),
    *[(f"beta.{f}.{m}", u) for f in ("beta_moment", "beta_triple", "beta_shift")
      for m, u in (("self_s", "s"), ("calls", "count"), ("tuples", "count"))],
    ("beta.shift_tuples_per_s", "1/s"),
    *[(f"continuum.ray_mass_samples.eps{k}.self_s", "s") for k in (6, 8, 10, 12, 14)],
    ("continuum.rays", "count"), ("continuum.rss_high_mb", "MB"),
    *[(f"experiments.run_{f}.self_s", "s") for f in ("conductance_convergence", "theorem1",
                                                     "levelset", "corollary_fixed_size")],
    ("experiments.beta_reference.busy_s", "s"),
    ("experiments.checks_run", "count"), ("experiments.checks_failed", "count"),
    *[(f"cli.{s}.{m}", "s") for s in _STAGES for m in ("busy_s", "self_s")],
    ("cli.report_bytes", "bytes"),
    ("process.cpu_s", "s"), ("process.wall_raw_s", "s"), ("process.setup_raw_s", "s"),
    ("process.probe_ms", "ms"), ("trace.overhead_s", "s"), ("ops_failed_frac", "ratio"),
]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _probe_s() -> float:
    """Time one small fixed slice of numpy and Python work: the speed probe."""
    t0 = time.perf_counter()
    np.sort(_PROBE_DATA)
    acc = 0
    for i in range(20_000):
        acc += i & 7
    return time.perf_counter() - t0


def _speed(probes: list, lo: float, hi: float) -> float:
    """PROBE_REF_S over the median probe time in [lo, hi] (all probes if none)."""
    inside = [d for t, d in probes if lo <= t <= hi] or [d for _, d in probes]
    return PROBE_REF_S / statistics.median(inside)


def _run_once(workload: str, seed: int, traced: bool, run_dir: Path, deadline: float) -> dict:
    """One workload run in a fresh worker process, probing machine speed meanwhile."""
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    log = run_dir / "log.txt"
    probes = []
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=run_dir, stdout=fh, stderr=subprocess.STDOUT)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchError(f"{workload} run did not finish before the deadline")
                probes.append((time.perf_counter(), _probe_s()))
                time.sleep(PROBE_EVERY_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    result = json.loads((run_dir / "result.json").read_text())
    if not probes:
        raise BenchError(f"{workload} run ended before the first speed probe")
    clock = result["clock"]
    result["setup_speed"] = _speed(probes, clock["setup"], clock["stages"])
    result["wall_speed"] = _speed(probes, clock["stages"], clock["end"])
    if traced:
        trace = json.loads((run_dir / "spans.json").read_text())
        result["layers"] = aggregate(trace["wrapped"], trace["spans"])
    shutil.rmtree(run_dir)
    return result


def _provenance(seed: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            commit = f"unknown: {exc}"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "commit": commit, "seed": seed}


def _mark_failures(runs: list[dict]) -> tuple[int, int]:
    """Mark each stage call failed or not; return (attempted, failed).

    A stage call fails when it raised, exited 2 (usage or I/O error), failed
    an output gate, or wrote reports that differ from the first run's at the
    same seed.  Exit code 1 (a CLI statistical check failed) is not a failure.
    """
    attempted = failed = 0
    for run in runs:
        for stage, first in zip(run["stages"], runs[0]["stages"]):
            if stage["digest"] != first["digest"]:
                stage["problems"].append("reports differ from the first run at this seed")
            stage["failed"] = bool(stage["error"] or stage["rc"] not in (0, 1)
                                   or stage["problems"])
            attempted += 1
            failed += stage["failed"]
    return attempted, failed


def _per_layer(runs: list[dict], attempted: int, failed: int) -> dict:
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    values = {}
    for name, _ in PER_LAYER:
        values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    busy = statistics.median(r["layers"].get("beta.beta_shift.busy_s", 0.0) for r in traced)
    values["trees.accept_ratio"] = (values["trees.survivors"] / values["trees.trials"]
                                    if values["trees.trials"] else 0.0)
    values["trees.use_ratio"] = (values["trees.materialised"] / values["trees.survivors"]
                                 if values["trees.survivors"] else 0.0)
    values["beta.shift_tuples_per_s"] = values["beta.beta_shift.tuples"] / busy if busy else 0.0
    first = runs[0]["stages"]
    checks = [passed for s in first for _, passed in s["checks"]]
    values["experiments.checks_run"] = len(checks)
    values["experiments.checks_failed"] = checks.count(False)
    values["cli.report_bytes"] = sum(s["report_bytes"] for s in first)
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    values["process.wall_raw_s"] = statistics.median(r["wall_s"] for r in plain)
    values["process.setup_raw_s"] = statistics.median(r["import_s"] + r["cloud_s"] for r in plain)
    values["process.probe_ms"] = statistics.median(1e3 * PROBE_REF_S / r["wall_speed"]
                                                   for r in plain)
    values["trace.overhead_s"] = (_median_wall(traced) - _median_wall(plain))
    values["ops_failed_frac"] = failed / attempted
    return values


def _median_wall(runs: list[dict]) -> float:
    """Median wall time of the runs, at the reference speed."""
    return statistics.median(r["wall_s"] * r["wall_speed"] for r in runs)


def _end_to_end(runs: list[dict], attempted: int, failed: int) -> dict:
    return {
        "wall_s": _median_wall(runs),
        "setup_s": statistics.median((r["import_s"] + r["cloud_s"]) * r["setup_speed"]
                                     for r in runs),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "gwharmonic" / "cli.py").is_file():
        print(f"error: no gwharmonic sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so that every timed import reads cached bytecode.
    if not compileall.compile_dir(str(SRC / "gwharmonic"), quiet=1):
        print("error: gwharmonic sources do not compile", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(_provenance(args.seed)))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runs = []
    try:
        # Start another run only while it should end within --seconds.
        while len(runs) < MIN_RUNS or (
                (time.monotonic() - start) * (len(runs) + 1) / len(runs) <= args.seconds):
            traced = bool(args.trace) and len(runs) % 2 == 1
            runs.append(_run_once(args.workload, args.seed, traced, base / f"run{len(runs)}",
                                  deadline))
            last = runs[-1]
            print(f"run {len(runs)}{' traced' if traced else ''}: wall {last['wall_s']:.3f} s "
                  f"at speed {last['wall_speed']:.3f}, set-up "
                  f"{last['import_s'] + last['cloud_s']:.3f} s at speed {last['setup_speed']:.3f}",
                  file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted, failed = _mark_failures(runs)
    for run in runs:
        for stage in run["stages"]:
            if stage["failed"]:
                print(f"FAILED {stage['name']}: rc={stage['rc']} {stage['problems']} "
                      f"{stage['error'] or ''}", file=sys.stderr)
    for stage in runs[0]["stages"]:
        for criterion, passed in stage["checks"]:
            print(f"check {stage['name']} {criterion}: {'PASS' if passed else 'FAIL'}",
                  file=sys.stderr)
    if args.trace:
        values, units = _per_layer(runs, attempted, failed), dict(PER_LAYER)
    else:
        values, units = _end_to_end(runs, attempted, failed), dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
