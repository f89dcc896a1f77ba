"""Exact electrical-network computations on reduced trees.

Harmonic measure at generation n is computed exactly by conductance
splitting: one bottom-up sweep for subtree conductances, one top-down sweep
distributing flow proportionally to c/(1+c) per branch.  Two independent
oracles are kept alongside: a sparse solve of the harmonic system and plain
random-walk simulation.  All masses live in log-space end to end; the
infinite conductance of boundary vertices is an explicit sentinel whose
escape ratio is defined to be 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .trees import ReducedTree, level_set

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


def _conductance_sweep(reduced: ReducedTree):
    """Bottom-up pass; returns (c, log_r) with c=+inf and log_r=0 on the boundary."""
    t, n = reduced.tree, reduced.n
    c = np.full(t.node_count, np.inf)
    log_r = np.zeros(t.node_count)
    for g in range(n - 1, -1, -1):
        lo, hi = t.gen_offsets[g], t.gen_offsets[g + 1]
        clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
        r_child = np.exp(log_r[clo:chi])
        s = np.bincount(
            (t.parent[clo:chi] - lo).astype(np.int64),
            weights=r_child,
            minlength=int(hi - lo),
        )
        c[lo:hi] = s
        log_r[lo:hi] = -np.log1p(1.0 / s)
    return c, log_r


def subtree_conductances(reduced: ReducedTree) -> np.ndarray:
    """c(v) = conductance from v through its subtree to generation n, with
    unit resistance per edge; +inf sentinel on the boundary itself."""
    return _conductance_sweep(reduced)[0]


def conductance_to_level(reduced: ReducedTree) -> float:
    """C_n: probability that walk started at the root hits generation n
    before an extra vertex attached to the root by a unit edge."""
    c_root = float(_conductance_sweep(reduced)[0][0])
    if np.isinf(c_root):
        return 1.0
    return c_root / (1.0 + c_root)


def harmonic_measure_exact(reduced: ReducedTree) -> HarmonicMeasure:
    """Exit law of generation n by current splitting (two linear passes)."""
    t, n = reduced.tree, reduced.n
    c, log_r = _conductance_sweep(reduced)
    log_c = np.log(c)  # +inf at the boundary, never indexed below
    log_flow = np.zeros(t.node_count)
    for g in range(n):
        clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
        par = t.parent[clo:chi]
        log_flow[clo:chi] = log_flow[par] + log_r[clo:chi] - log_c[par]
    return HarmonicMeasure(
        boundary_log_mass=log_flow[reduced.boundary].copy(), n=n, log_flow=log_flow
    )


def hitting_distribution_linsolve(reduced: ReducedTree) -> HarmonicMeasure:
    """Oracle: exit law from the sparse harmonic system.

    Solves L_II phi = e_root (unit current injected at the root, boundary
    grounded); the mass exiting at a boundary vertex b is phi[parent(b)].
    """
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


def ball_mass(mu: HarmonicMeasure, reduced: ReducedTree, v: int, r: int) -> float:
    """log mu_n(subtree of the depth-(n-r) ancestor of boundary vertex v)."""
    if mu.log_flow is None:
        raise ValueError("measure lacks the per-vertex flow cache")
    if not 0 <= r <= mu.n:
        raise ValueError("radius outside [0, n]")
    t = reduced.tree
    if t.depth[v] != mu.n:
        raise ValueError("v is not a boundary vertex")
    anc = v
    for _ in range(r):
        anc = t.parent[anc]
    return float(mu.log_flow[anc])


def concentration_statistic(mu: HarmonicMeasure, n: int, beta: float, delta: float) -> float:
    """Total mass of boundary vertices with mass in [n^-(beta+delta), n^-(beta-delta)]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lm = mu.boundary_log_mass
    ln = np.log(n)
    sel = (lm >= -(beta + delta) * ln) & (lm <= -(beta - delta) * ln)
    return min(float(np.exp(lm[sel]).sum()), 1.0)


def check_conductance_invariants(reduced: ReducedTree, c_level: float) -> None:
    """Fail fast on the two pathwise bounds: C_n in [1/(n+1), 1] and the
    cutset bound C_n <= #level(n/2) / (n/2)."""
    n = reduced.n
    if not 1.0 / (n + 1) - 1e-12 <= c_level <= 1.0 + 1e-12:
        raise AssertionError(f"C_n={c_level} outside [1/(n+1), 1] at n={n}")
    if n >= 2:
        j = n // 2
        nw = level_set(reduced.tree, j).size / j
        if c_level > nw + 1e-12:
            raise AssertionError(f"C_n={c_level} violates the cutset bound {nw}")
