"""Exact electrical-network computations on reduced trees.

Harmonic measure at generation n is computed exactly by conductance
splitting: one bottom-up sweep for subtree conductances, one top-down sweep
distributing flow proportionally to c/(1+c) per branch (the harmonic flow
rule of Lyons, Pemantle and Peres, "Ergodic theory on Galton-Watson trees").
Both sweeps run over a LevelForest, one numpy pass per level for every tree
at once; a single tree is swept as a one-tree forest.  The independent
checks of the sweep, a sparse solve of the harmonic system and plain
random-walk simulation, are test oracles (tests/oracles.py).  All masses
live in log-space end to end; the infinite conductance of boundary vertices
is an explicit sentinel whose escape ratio is defined to be 1.
"""

from __future__ import annotations

import numpy as np

from .trees import LevelForest


def _conductance_sweep(forest: LevelForest):
    """Bottom-up pass; per generation g <= n returns (c[g], log_r[g]), with
    c=+inf and log_r=0 on generation n.  Each parent sums its children's
    escape ratios in child order, so a tree's values do not depend on the
    other trees of the forest."""
    n = forest.n
    c, log_r = [None] * (n + 1), [None] * (n + 1)
    c[n] = np.full(forest.offsets[n][-1], np.inf)
    log_r[n] = np.zeros(forest.offsets[n][-1])
    for g in range(n - 1, -1, -1):
        k = forest.counts[g]
        s = np.bincount(np.repeat(np.arange(k.size), k), weights=np.exp(log_r[g + 1]),
                        minlength=k.size)
        c[g] = s
        log_r[g] = -np.log1p(1.0 / s)
    return c, log_r


def _flow_sweep(forest: LevelForest) -> list:
    """Top-down pass: log_flow[g] is the log-mass of the subtree above each
    generation-g vertex (0 at the roots)."""
    c, log_r = _conductance_sweep(forest)
    log_flow = [np.zeros(forest.size)]
    for g in range(forest.n):
        k = forest.counts[g]
        log_flow.append(np.repeat(log_flow[g], k) + log_r[g + 1] - np.repeat(np.log(c[g]), k))
    return log_flow


def forest_conductance_to_level(forest: LevelForest) -> np.ndarray:
    """C_n of every tree of the forest: the probability that walk started at
    the root hits generation n before an extra vertex attached to the root
    by a unit edge."""
    c_root = _conductance_sweep(forest)[0][0]
    return c_root / (1.0 + c_root)


def forest_boundary_log_mass(forest: LevelForest) -> np.ndarray:
    """Exit-law log-masses of generation n of every tree, in forest order;
    tree i owns the slice forest.offsets[n][i:i+2]."""
    return _flow_sweep(forest)[forest.n]


def check_conductance_invariants(forest: LevelForest, c_level: np.ndarray) -> None:
    """Fail fast on the two pathwise bounds, for every tree of the forest:
    C_n in [1/(n+1), 1] and the cutset bound C_n <= #level(n/2) / (n/2)."""
    n = forest.n
    c_level = np.asarray(c_level, float)
    bad = ~((1.0 / (n + 1) - 1e-12 <= c_level) & (c_level <= 1.0 + 1e-12))
    if bad.any():
        raise AssertionError(f"C_n={c_level[bad][0]} outside [1/(n+1), 1] at n={n}")
    if n >= 2:
        j = n // 2
        nw = forest.level_sizes(j) / j
        over = c_level > nw + 1e-12
        if over.any():
            raise AssertionError(f"C_n={c_level[over][0]} violates the cutset bound {nw[over][0]}")
