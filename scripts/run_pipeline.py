"""Drive the full CLI pipeline: solve the cloud, validate it, triangulate the
exponent, then run every discrete and continuum experiment against it.

Each stage runs as a fresh `python -m gwharmonic.cli` process, so it pays
its own imports and holds only its own memory.  The pipeline ends with one
row per stage: its exit code, its wall time in seconds and its peak RSS in
MB, the child's `ru_maxrss` as `os.wait4` reads it.  Linux carries a
parent's peak RSS into its children's `ru_maxrss`; this process imports only
the CLI, as every stage does, so that floor stays under every stage's own
peak.  A stage that exits with neither 0 nor 1 (2 is a usage or I/O error,
a negative code a signal) stops the pipeline, which then exits 2; otherwise
it exits 1 if any stage did.

Usage: python scripts/run_pipeline.py [--preset smoke|full] [--seed N] [--out DIR]
"""

import argparse
import os
import sys
import time

from gwharmonic.cli import cloud_file, settings


def label(argv) -> str:
    """A stage's command words, and its offspring law where it names one."""
    words = [a for a in argv[:2] if not a.startswith("-")]
    if "--offspring" in argv:
        words.append(argv[argv.index("--offspring") + 1])
    return " ".join(words)


def run(argv):
    """One stage as a fresh process: (label, exit code, wall s, peak RSS MB)."""
    print("$ gwharmonic " + " ".join(argv), flush=True)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "gwharmonic.cli", *argv],
                         os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return label(argv), os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def pipeline(preset: str, seed: int, out: str) -> int:
    cloud = str(cloud_file(out, settings("rde solve", preset)["particles"], seed))
    seed_out = ["--seed", str(seed), "--out", out]
    base = ["--preset", preset, *seed_out]
    stages = [["rde", "solve", *base],
              ["rde", "validate", "--cloud", cloud, *seed_out],  # no preset changes it
              ["beta", "--cloud", cloud, *base]]
    for exp in ("theorem1", "conductance", "fixed-size"):
        stages.append(["discrete", exp, "--offspring", "geometric", "--cloud", cloud, *base])
    stages.append(["discrete", "levelset", "--offspring", "geometric", *base])
    stages.append(["discrete", "levelset", "--offspring", "poisson", *base])
    stages.append(["continuum", "dimension", "--cloud", cloud, *base])
    rows = []
    for argv in stages:
        rows.append(run(argv))
        if rows[-1][1] not in (0, 1):
            break
    print(f"{'stage':<40} {'exit':>4} {'wall_s':>8} {'rss_mb':>8}")
    for name, code, wall, rss in rows:
        print(f"{name:<40} {code:>4} {wall:>8.2f} {rss:>8.1f}")
    return 2 if rows[-1][1] not in (0, 1) else max(code for _, code, _, _ in rows)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", choices=["smoke", "full"], default="smoke")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="runs")
    args = ap.parse_args()
    sys.exit(pipeline(args.preset, args.seed, args.out))
