"""Exact electrical-network computations on reduced trees.

Harmonic measure at generation n is computed exactly by conductance
splitting: one bottom-up sweep for subtree conductances, one top-down sweep
distributing flow proportionally to c/(1+c) per branch (the harmonic flow
rule of Lyons, Pemantle and Peres, "Ergodic theory on Galton-Watson trees").
Both sweeps run over a LevelForest, one numpy pass per level for every tree
at once; a single ReducedTree is swept as a one-tree forest.  Two independent
oracles are kept alongside: a sparse solve of the harmonic system and plain
random-walk simulation.  All masses live in log-space end to end; the
infinite conductance of boundary vertices is an explicit sentinel whose
escape ratio is defined to be 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import LevelForest, ReducedTree

LINSOLVE_MAX_VERTICES = 20_000


@dataclass(eq=False)
class HarmonicMeasure:
    """Per-boundary-vertex log-mass of the exit law at generation n.

    log_flow[v] is the log-mass of the whole subtree above v (the flow into
    v), so log_flow at the boundary equals boundary_log_mass.
    """

    boundary_log_mass: np.ndarray
    n: int
    log_flow: np.ndarray | None = None


def _conductance_sweep(forest: LevelForest):
    """Bottom-up pass; per generation g <= n returns (c[g], log_r[g]), with
    c=+inf and log_r=0 on generation n.  Each parent sums its children's
    escape ratios in child order, so a tree's values do not depend on the
    other trees of the forest."""
    n = forest.n
    c, log_r = [None] * (n + 1), [None] * (n + 1)
    c[n] = np.full(forest.tree_index[n].size, np.inf)
    log_r[n] = np.zeros(forest.tree_index[n].size)
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
    """C_n of every tree of the forest (see conductance_to_level)."""
    c_root = _conductance_sweep(forest)[0][0]
    return c_root / (1.0 + c_root)


def forest_boundary_log_mass(forest: LevelForest) -> np.ndarray:
    """Exit-law log-masses of generation n of every tree, in forest order;
    tree i owns the slice forest.boundary_offsets()[i:i+2]."""
    return _flow_sweep(forest)[forest.n]


def subtree_conductances(reduced: ReducedTree) -> np.ndarray:
    """c(v) = conductance from v through its subtree to generation n, with
    unit resistance per edge; +inf sentinel on the boundary itself."""
    return np.concatenate(_conductance_sweep(reduced.as_forest())[0])


def conductance_to_level(reduced: ReducedTree) -> float:
    """C_n: probability that walk started at the root hits generation n
    before an extra vertex attached to the root by a unit edge."""
    return float(forest_conductance_to_level(reduced.as_forest())[0])


def harmonic_measure_exact(reduced: ReducedTree) -> HarmonicMeasure:
    """Exit law of generation n by current splitting (two linear passes)."""
    log_flow = np.concatenate(_flow_sweep(reduced.as_forest()))
    return HarmonicMeasure(
        boundary_log_mass=log_flow[reduced.boundary].copy(), n=reduced.n, log_flow=log_flow
    )


def hitting_distribution_linsolve(reduced: ReducedTree) -> HarmonicMeasure:
    """Oracle: exit law from the sparse harmonic system.

    Solves L_II phi = e_root (unit current injected at the root, boundary
    grounded); the mass exiting at a boundary vertex b is phi[parent(b)].
    """
    import scipy.sparse as sp  # the oracle alone needs scipy; keep it off the import path
    import scipy.sparse.linalg as spla

    t, n = reduced.tree, reduced.n
    if t.node_count > LINSOLVE_MAX_VERTICES:
        raise ValueError(f"linsolve oracle capped at {LINSOLVE_MAX_VERTICES} vertices")
    interior = int(t.gen_offsets[n])  # BFS layout: depth < n is a prefix
    deg = t.child_count.astype(np.float64)
    deg[1:] += 1.0
    kids = np.arange(1, interior)
    par = t.parent[1:interior]
    lap = sp.coo_matrix(
        (
            np.concatenate((deg[:interior], -np.ones(kids.size), -np.ones(kids.size))),
            (
                np.concatenate((np.arange(interior), par, kids)),
                np.concatenate((np.arange(interior), kids, par)),
            ),
        ),
        shape=(interior, interior),
    ).tocsc()
    rhs = np.zeros(interior)
    rhs[0] = 1.0
    phi = spla.spsolve(lap, rhs)
    mass = phi[t.parent[reduced.boundary]]
    return HarmonicMeasure(boundary_log_mass=np.log(mass), n=n)


def simulate_walk_exits(reduced: ReducedTree, walks: int, rng) -> np.ndarray:
    """Exit vertices of `walks` independent simple random walks from the root
    (uniform over graph neighbours, reflecting at the root)."""
    t, n = reduced.tree, reduced.n
    out = np.empty(walks, np.int64)
    pos = np.zeros(walks, np.int64)
    alive = np.arange(walks)
    while alive.size:
        at_root = pos == 0
        deg = t.child_count[pos] + ~at_root
        choice = (rng.random(alive.size) * deg).astype(np.int64)
        to_parent = ~at_root & (choice == 0)
        child = t.child_start[pos] + choice - ~at_root
        pos = np.where(to_parent, t.parent[pos], child)
        done = t.depth[pos] == n
        out[alive[done]] = pos[done]
        alive, pos = alive[~done], pos[~done]
    return out


def sample_boundary(mu: HarmonicMeasure, rng, size=None):
    """Positions into the boundary array drawn from the exact exit law
    (inverse CDF in tree order; distributionally identical to walking)."""
    lm = mu.boundary_log_mass
    p = np.exp(lm - lm.max())
    cdf = np.cumsum(p)
    u = rng.random(size) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, u, side="right"), lm.size - 1)


def concentration_statistic(mu: HarmonicMeasure, n: int, beta: float, delta: float) -> float:
    """Total mass of boundary vertices with mass in [n^-(beta+delta), n^-(beta-delta)]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lm = mu.boundary_log_mass
    ln = np.log(n)
    sel = (lm >= -(beta + delta) * ln) & (lm <= -(beta - delta) * ln)
    return min(float(np.exp(lm[sel]).sum()), 1.0)


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
