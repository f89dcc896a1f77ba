"""Drive the full CLI pipeline: solve the cloud, validate it, triangulate the
exponent, then run every discrete and continuum experiment against it.

Usage: python scripts/run_pipeline.py [--preset smoke|full] [--seed N] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from gwharmonic.cli import main, settings


def run(argv):
    print("$ gwharmonic " + " ".join(argv))
    code = main(argv)
    if code == 2:
        sys.exit(code)
    return code


def pipeline(preset: str, seed: int, out: str) -> int:
    particles = settings("rde solve", preset)["particles"]
    cloud = str(Path(out) / f"cloud_M{particles}_seed{seed}.txt")
    seed_out = ["--seed", str(seed), "--out", out]
    base = ["--preset", preset, *seed_out]
    worst = 0
    worst |= run(["rde", "solve", *base])
    worst |= run(["rde", "validate", "--cloud", cloud, *seed_out])  # no preset changes it
    worst |= run(["beta", "--cloud", cloud, *base])
    for exp in ("theorem1", "conductance", "fixed-size"):
        worst |= run(["discrete", exp, "--offspring", "geometric", "--cloud", cloud, *base])
    worst |= run(["discrete", "levelset", "--offspring", "geometric", *base])
    worst |= run(["discrete", "levelset", "--offspring", "poisson", *base])
    worst |= run(["continuum", "dimension", "--cloud", cloud, *base])
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", choices=["smoke", "full"], default="smoke")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="runs")
    args = ap.parse_args()
    sys.exit(pipeline(args.preset, args.seed, args.out))
