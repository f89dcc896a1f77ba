"""Deterministic RNG stream derivation.

A single 64-bit master seed expands into independent per-task streams keyed
on (seed, module id, task index), so every artifact is reproducible from the
seed alone, independent of scheduling.  Philox is counter-based, which makes
the derived streams cheap and collision-free.
"""

from __future__ import annotations

import numpy as np

# Stable module ids.  Append only; reordering breaks reproducibility.
MODULE_IDS = {
    "offspring": 1,
    "trees": 2,
    "network": 3,
    "rde": 4,
    "beta": 5,
    "continuum": 6,
    "experiments": 7,
    "cli": 8,
}


def task_stream(seed: int, module: str, task: int = 0) -> np.random.Generator:
    """Independent generator for task `task` of `module` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(MODULE_IDS[module], task))
    return np.random.Generator(np.random.Philox(ss))
