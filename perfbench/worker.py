"""One workload run in a fresh process; run.py starts it, never a user.

Usage: python3 worker.py --src SRC --workload NAME --seed N --trace 0|1
(run with the run directory as working directory).

Set-up is the import of `gwharmonic` plus, where the workload needs one, the
fixture cloud made by the program's own `rde solve`.  The run then calls
`gwharmonic.cli.main(argv)` once per stage and times the stages from the first
call to the last return.  Output gates, report digests and check counts are
taken after that interval.  Everything is written to result.json (and the
spans to spans.json when traced) in the working directory, with the
`time.perf_counter` readings that bound set-up and stages, so that run.py can
match them with its speed probes (the clock is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import build, cloud_argv


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _digest(path: Path) -> str:
    """sha256 of a written file; JSON with its wall-clock fields dropped."""
    data = path.read_bytes()
    if path.suffix == ".json":
        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != "wall_clock_s"}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node
        data = json.dumps(strip(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _checks(report_path: Path) -> list[list]:
    """The CLI's own statistical checks in one report, as [criterion, passed]."""
    if not report_path.exists():
        return []
    report = json.loads(report_path.read_text())
    if "checks" in report:
        return [[c["criterion"], bool(c["passed"])] for c in report["checks"]]
    if "flagged" in report:
        return [["beta-cross-validate", not report["flagged"]]]
    return []


def _import_gwharmonic(src: Path):
    sys.path.insert(0, str(src))
    import gwharmonic.cli as cli  # imports every layer module

    if Path(cli.__file__).resolve().parent != (src / "gwharmonic").resolve():
        raise SystemExit(f"gwharmonic imported from {cli.__file__}, not from {src}")
    return cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    workload = build(args.workload, args.seed)

    t_setup = time.perf_counter()
    cli = _import_gwharmonic(Path(args.src))
    import_s = time.perf_counter() - t_setup

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def call(name, argv):
        if tracer:
            return tracer.span(f"cli.{name}", cli.main, argv)[0]
        return cli.main(argv)

    cloud_s = 0.0
    if workload.needs_cloud:
        t0 = time.perf_counter()
        if tracer:
            tracer.stage = "setup"
        rc = call("setup_fixture_cloud", cloud_argv(args.seed, "fixture"))
        cloud_s = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"fixture `rde solve` exited {rc}")

    out = Path("out")
    stages = []
    cpu0 = _cpu_s()
    t_start = time.perf_counter()
    for i, stage in enumerate(workload.stages):
        before = set(out.glob("*")) if out.exists() else set()
        if tracer:
            tracer.stage = f"{i}:{stage.name}"
        t0 = time.perf_counter()
        error = None
        try:
            rc = call(stage.name, stage.argv)
        except Exception:  # a raising stage is a failed operation, not a crash
            rc, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        stages.append({"name": stage.name, "rc": rc, "error": error, "seconds": seconds,
                       "files": sorted(str(p) for p in set(out.glob("*")) - before)})
    t_end = time.perf_counter()
    wall_s = t_end - t_start
    cpu_s = _cpu_s() - cpu0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for stage, rec in zip(workload.stages, stages):
        files = [Path(f) for f in rec.pop("files")]
        try:
            rec["problems"] = stage.check(out)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            rec["problems"] = [f"{stage.report} unreadable: {exc!r}"]
        rec["digest"] = {p.name: _digest(p) for p in files}
        rec["report_bytes"] = sum(p.stat().st_size for p in files if p.suffix in (".json", ".csv"))
        rec["checks"] = _checks(out / stage.report)

    result = {"traced": bool(tracer), "import_s": import_s, "cloud_s": cloud_s,
              "wall_s": wall_s, "cpu_s": cpu_s, "maxrss_mb": maxrss_mb, "stages": stages,
              "clock": {"setup": t_setup, "stages": t_start, "end": t_end}}
    Path("result.json").write_text(json.dumps(result))
    if tracer:
        tracer.dump("spans.json")


if __name__ == "__main__":
    main()
