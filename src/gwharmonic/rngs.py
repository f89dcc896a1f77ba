"""Deterministic RNG stream derivation, and the thread pool its streams run on.

A single 64-bit master seed expands into independent per-task streams keyed
on (seed, module id, task index), so every artifact is reproducible from the
seed alone, independent of scheduling.  Philox is counter-based, which makes
the derived streams cheap and collision-free.

Work that draws from its own spawned stream (the chunks of one `rde.phi_step`,
the batch groups of every beta estimator and of `rde.check_identity`, the
sub-cloud splits of `beta.cross_validate`) or from no stream at all (the
kappa table's columns, the Laplace residuals' l values) runs on `pool()`:
one thread per usable core, with no setting.  The callers submit from their
own thread and no task submits to the pool.  Each task writes only its own
output, so results are the same on any number of cores.
"""

from __future__ import annotations

import os
import threading

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

_POOL = None
_POOL_LOCK = threading.Lock()


def task_stream(seed: int, module: str, task: int = 0) -> np.random.Generator:
    """Independent generator for task `task` of `module` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(MODULE_IDS[module], task))
    return np.random.Generator(np.random.Philox(ss))


def pool():
    """The process-wide thread pool, one worker per usable core, made on
    first use (`concurrent.futures` is imported only then).  numpy releases
    the interpreter lock in its array kernels, so threads share the cores.
    A task must not wait on the pool itself: with one worker it would wait
    forever."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))
        return _POOL
