"""Reference implementations that the runtime modules are tested against.

Single trees: `PlaneTree`, one tree in breadth-first layout (`plane_trees`
cuts a LevelForest into them by `tree_index`, each vertex's tree rebuilt from
the forest's level sizes), its builders, accessors and validators, and
`ReducedTree`, one tree of a reduced forest (`views`) that `as_forest`
sweeps alone.  Its exit law has two independent checks of the network
sweeps, the sparse harmonic solve and plain walk simulation;
`sample_boundary` and `concentration_statistic` are the per-tree
`experiments._tree_statistics`.

Rejection samplers of conditioned Galton-Watson trees, the oracles of the
direct sampler `trees.sample_reduced_forest` (`direct_forest` draws one
forest from it): trials grow generation by
generation (`sample_offspring` draws by inverse CDF) until generation n,
about 1/q_n per kept tree, in waves so the draws vectorise; each wave's
chosen survivors are reduced together into one LevelForest by
`_reduce_levels`, the marking of `trees.reduce` one generation at a time.
`acceptance_check` compares the accepted-trial count with the exact q_n,
`faulty_child_cdf` plants a fault in the direct sampler's table, and
`pgf_eval` is the map `offspring.survival_probs` iterates.
`reduce_preorder` is `trees.reduce` on a forest stored as its preorder
depths, the independent path that the level-major generations of
`trees.reduce` are tested against: one sort for every parent
(`parents_from_preorder_depths`, with `parents_from_preorder_depths_loop`
the per-depth loop behind it).
`preorder_depths` turns a PlaneTree into those depths, and
`depths_from_preorder_degrees` reads them off a depth-first walk.
`fixed_size_tree` is a whole fixed-size tree, the exchangeable counts
rotated by `cycle_rotation`: the reference that
`trees.sample_fixed_size_conditioned`, which rotates only the generations
it keeps, is replayed against.

The continuum section holds the whole-tree sampler that `continuum`
replaced by its harmonic-ray chain.  `constant_cloud` is a cloud with no
spread: the solver's former all-ones start, and the negative controls'
cloud.  `moment` is a cloud's moment, and `bootstrap_d1` the d1 of two
bootstrap resamples, one draw of the floor that `rde.estimate_floor` gives
as its mean.  `phi_step_serial` is `rde.phi_step`
without the thread pool, at any chunk size, and
`fixed_point_residuals_whole` is `rde.fixed_point_residuals` over
whole-cloud buffers, the exact oracle of its blocked passes, and
`fixed_point_residuals_serial` is it row by row,
each standard error from the covariance of its per-value functions; `wasserstein1_grid` is
`rde.wasserstein1` with both quantile functions gathered on the full grid;
`phi_step_coupled` checks the contraction rate of `rde.phi_step`, and
`solve_from` is the particle solver's former loop from any start cloud,
`kappa` is the direct Monte Carlo that `beta.kappa_table` computes from
the cloud's lattice law, and `batch_sums_serial` replays the grouped
batch draws of `beta._batch_sums` behind every beta estimator, one group
after another; `stratified_rows` replays
the stratified tuples of the beta estimators row by row, and
`cloud_at_serial` reads the cloud at their indices; on those draws
`pair_sums_whole`, `triple_sums_whole` and `shift_sums_whole` are
the in-place beta kernels as whole-temporary expressions, which they must
equal bit for bit.  `moment_and_triple_exact` is the moment and the triple
as exact means over every pair and triple of a small cloud, the O(M^3)
oracle of their lattice values (`beta._lattice_values`).
`content_hash` fingerprints a report for the reproducibility tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gwharmonic import trees
from gwharmonic.beta import _BATCHES, _CHUNK, _TASKS
from gwharmonic.experiments import check
from gwharmonic.offspring import OffspringDistribution, OffspringError, survival_probs
from gwharmonic.rde import ParticleCloud, Residual, phi_step, se_of_mean, wasserstein1
from gwharmonic.trees import (
    LevelForest,
    TrialCapError,
    _segment_sums,
    _thinned_child_cdf,
)

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_TRIAL_CAP = 10_000_000


# ---------------------------------------------------------------------------
# single trees and their exit law
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PlaneTree:
    """Arena-indexed ordered rooted tree in breadth-first layout."""

    parent: np.ndarray       # int64; -1 at the root
    child_start: np.ndarray  # int64; children of v are [child_start[v], +child_count[v])
    child_count: np.ndarray  # int64
    depth: np.ndarray        # int64
    gen_offsets: np.ndarray  # int64; generation d is nodes [gen_offsets[d], gen_offsets[d+1])

    @property
    def height(self) -> int:
        return self.gen_offsets.size - 2


def tree_index(forest: LevelForest) -> list[np.ndarray]:
    """Per generation g <= n, the owning tree of each vertex, from the
    forest's level sizes."""
    return [np.repeat(np.arange(forest.size), forest.level_sizes(g)) for g in range(forest.n + 1)]


def plane_trees(forest: LevelForest) -> list[PlaneTree]:
    """Every tree of a forest as a PlaneTree in breadth-first layout.

    A stable sort by tree index turns the level-major arrays into the
    trees' breadth-first layouts back to back; each tree slices them.
    """
    n, size = forest.n, forest.size
    index = tree_index(forest)
    tree = np.concatenate(index)
    order = np.argsort(tree, kind="stable")
    tree = tree[order]
    counts = np.concatenate(forest.counts + [np.zeros(index[n].size, np.int64)])[order]
    depth = np.repeat(np.arange(n + 1), [t.size for t in index])[order]
    start = np.concatenate(([0], np.cumsum(np.bincount(tree, minlength=size))))
    first = start[tree]  # global index of each vertex's root
    parent = np.full(tree.size, -1, np.int64)
    nonroot = np.arange(tree.size) != first
    parent[nonroot] = np.repeat(np.arange(tree.size), counts) - first[nonroot]
    child_start = np.cumsum(counts) - counts - first + tree + 1
    gens = np.bincount(tree * (n + 1) + depth, minlength=size * (n + 1))
    gen_offsets = np.zeros((size, n + 2), np.int64)
    np.cumsum(gens.reshape(size, n + 1), axis=1, out=gen_offsets[:, 1:])
    return [PlaneTree(parent[s:e], child_start[s:e], counts[s:e], depth[s:e], off)
            for s, e, off in zip(start[:-1], start[1:], gen_offsets)]


@dataclass(eq=False)
class ReducedTree:
    """Ancestors of the depth-n vertices of some tree, relabelled in order."""

    tree: PlaneTree
    n: int
    boundary: np.ndarray  # indices of the depth-n vertices

    def as_forest(self) -> LevelForest:
        """This tree as a one-tree LevelForest (it is already reduced)."""
        off = self.tree.gen_offsets
        return LevelForest(self.n, [self.tree.child_count[off[g] : off[g + 1]]
                                    for g in range(self.n)])


def views(forest: LevelForest) -> list[ReducedTree]:
    """Every tree of a reduced forest as a ReducedTree."""
    n = forest.n
    return [ReducedTree(t, n, np.arange(t.gen_offsets[n], t.gen_offsets[n + 1]))
            for t in plane_trees(forest)]


def tree_from_parent_depth(parent: np.ndarray, depth: np.ndarray) -> PlaneTree:
    """Assemble arena fields from BFS-ordered parent/depth arrays."""
    counts = np.bincount(parent[1:], minlength=parent.size).astype(np.int64)
    gen_offsets = np.concatenate(([0], np.cumsum(np.bincount(depth)))).astype(np.int64)
    return PlaneTree(parent.astype(np.int64), np.cumsum(counts) - counts + 1, counts,
                     depth.astype(np.int64), gen_offsets)


def tree_from_generation_counts(counts_per_gen: list[np.ndarray]) -> PlaneTree:
    """Build a tree from per-generation offspring-count arrays.

    counts_per_gen[g][i] is the child count of the i-th node of generation g;
    the final generation's counts may be omitted (its nodes become leaves).
    """
    sizes = [1]
    for c in counts_per_gen:
        if c.size != sizes[-1]:
            raise ValueError("generation size mismatch in counts")
        sizes.append(int(c.sum()))
    if sizes[-1] == 0:
        sizes.pop()
        gens = len(counts_per_gen)
    else:
        gens = len(counts_per_gen) + 1
    gen_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    total = int(gen_offsets[-1])
    parent = np.full(total, -1, np.int64)
    depth = np.empty(total, np.int64)
    depth[0] = 0
    for g in range(1, gens):
        lo, hi = gen_offsets[g], gen_offsets[g + 1]
        ids = np.arange(gen_offsets[g - 1], gen_offsets[g])
        parent[lo:hi] = np.repeat(ids, counts_per_gen[g - 1])
        depth[lo:hi] = g
    return tree_from_parent_depth(parent, depth)


def node_count(t: PlaneTree) -> int:
    return t.parent.size


def children(t: PlaneTree, v: int) -> np.ndarray:
    """The children of v, consecutive in the breadth-first layout."""
    s = t.child_start[v]
    return np.arange(s, s + t.child_count[v])


def validate_tree(t: PlaneTree) -> None:
    """Structural invariants, O(n)."""
    assert t.parent[0] == -1 and t.depth[0] == 0
    if node_count(t) > 1:
        assert np.all(t.parent[1:] >= 0)
        assert np.all(t.depth[1:] == t.depth[t.parent[1:]] + 1)
    assert np.all(np.diff(t.depth) >= 0), "not BFS sorted"
    assert int(t.child_count.sum()) == node_count(t) - 1
    for v in range(node_count(t)):
        ch = children(t, v)
        assert np.all(t.parent[ch] == v)
    sizes = np.diff(t.gen_offsets)
    assert np.array_equal(sizes, np.bincount(t.depth))


def validate_reduced(r: ReducedTree) -> None:
    """Every vertex has a descendant at depth n; max depth exactly n, so
    reducing the tree again keeps every vertex."""
    t = r.tree
    validate_tree(t)
    assert t.height == r.n and r.boundary.size > 0
    f = r.as_forest()
    kept = _reduce_levels(r.n, lambda g: f.counts[g])
    assert [g.size for g in tree_index(kept)] == np.diff(t.gen_offsets).tolist()


def hitting_distribution_linsolve(reduced: ReducedTree) -> np.ndarray:
    """Exit-law log-masses of the boundary from the sparse harmonic system.

    Solves L_II phi = e_root (unit current injected at the root, boundary
    grounded); the mass exiting at a boundary vertex b is phi[parent(b)].
    """
    t, n = reduced.tree, reduced.n
    if node_count(t) > 20_000:
        raise ValueError("linsolve oracle capped at 20000 vertices")
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
    return np.log(phi[t.parent[reduced.boundary]])


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


def sample_boundary(log_mass: np.ndarray, rng, size=None):
    """Positions into the boundary array drawn from the exit law with these
    log-masses (inverse CDF in tree order; distributionally identical to
    walking)."""
    p = np.exp(log_mass - log_mass.max())
    cdf = np.cumsum(p)
    u = rng.random(size) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, u, side="right"), log_mass.size - 1)


def concentration_statistic(log_mass: np.ndarray, n: int, beta: float, delta: float) -> float:
    """Total mass of boundary vertices with mass in [n^-(beta+delta), n^-(beta-delta)]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ln = np.log(n)
    sel = (log_mass >= -(beta + delta) * ln) & (log_mass <= -(beta - delta) * ln)
    return min(float(np.exp(log_mass[sel]).sum()), 1.0)


# ---------------------------------------------------------------------------
# rejection samplers
# ---------------------------------------------------------------------------


def pgf_eval(dist: OffspringDistribution, s: float) -> float:
    """Generating function G(s) = sum_k theta(k) s^k for s in [0, 1]."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise OffspringError(f"pgf argument {s} outside [0, 1]")
    return float(np.polynomial.polynomial.polyval(s, dist.pmf))


def sample_offspring(dist: OffspringDistribution, rng: np.random.Generator, size=None):
    """Draw child counts by inverse CDF; the table's last entry is exactly 1."""
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right")


@dataclass(frozen=True)
class CapExceeded:
    """Returned (not raised) when a growing tree would pass the node cap."""

    node_cap: int


def sample_gw(dist, rng, node_cap: int = DEFAULT_NODE_CAP, max_gen: int | None = None):
    """One unconditioned critical GW tree, generated breadth-first.

    Returns CapExceeded (a value; critical trees are a.s. finite but
    unbounded) when the population would pass node_cap.  With max_gen set,
    generation max_gen is kept but given no children.
    """
    counts = []
    alive = 1
    total = 1
    g = 0
    while alive > 0 and (max_gen is None or g < max_gen):
        c = sample_offspring(dist, rng, size=alive)
        counts.append(c)
        alive = int(c.sum())
        total += alive
        if total > node_cap:
            return CapExceeded(node_cap)
        g += 1
    return tree_from_generation_counts(counts)


def _conditioned_wave(dist, n, wave, rng, node_cap):
    """Run `wave` independent trials jointly up to generation n.

    Returns (counts_levels, labels_levels, survivor_labels, capped); the
    `capped` trials that hit the per-trial node cap are dropped (treated as
    rejections).
    """
    labels = np.arange(wave, dtype=np.int64)
    counts_levels, labels_levels = [], []
    tally = np.ones(wave, np.int64)
    capped = np.zeros(wave, bool)
    for _ in range(n):
        if labels.size == 0:
            break
        c = sample_offspring(dist, rng, size=labels.size).astype(np.int64)
        counts_levels.append(c)
        labels_levels.append(labels)
        children = np.repeat(labels, c)
        tally += np.bincount(children, minlength=wave)
        over = tally > node_cap
        if over.any():
            capped |= over
            children = children[~capped[children]]
        labels = children
    survivors = np.unique(labels) if len(counts_levels) == n else np.array([], np.int64)
    return counts_levels, labels_levels, survivors, int(capped.sum())


def _wave_levels(counts_levels, labels_levels, chosen):
    """level(g) of the chosen trials of a wave for _reduce_levels.

    Label arrays are sorted (np.repeat of a sorted array), so each chosen
    trial's generation-g vertices are one block found by one searchsorted.
    """
    bounds = np.stack((chosen, chosen + 1))

    def level(g):
        lo, hi = np.searchsorted(labels_levels[g], bounds)
        sizes = hi - lo
        idx = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        return counts_levels[g][idx]

    return level


def _reduce_levels(n: int, level) -> LevelForest:
    """Bottom-up marking: keep the ancestors of generation n of a forest.

    level(g) returns the raw child counts of generation g < n in level
    order.  Generation n is kept whole; a vertex is kept iff it has a kept
    child, and its reduced child count is the number of them.
    """
    counts = [None] * n
    marks = None
    for g in range(n - 1, -1, -1):
        raw = level(g)
        red = raw if marks is None else _segment_sums(marks, raw)
        marks = red > 0
        counts[g] = red[marks]
    return LevelForest(n, counts)


def _whole_levels(n, level) -> LevelForest:
    """The generations of level(g) as given: whole trees chopped at n."""
    return LevelForest(n, [level(g) for g in range(n)])


def _concat_forests(parts: list[LevelForest], n: int) -> LevelForest:
    if len(parts) == 1:
        return parts[0]
    return LevelForest(n, [np.concatenate([f.counts[g] for f in parts]) for g in range(n)])


def direct_forest(dist, n: int, count: int, rng) -> LevelForest:
    """`count` reduced trees of height n from the direct sampler, as
    experiments._forest_statistics draws one forest; read through the
    module, so a test that patches trees.reduced_child_cdf reaches it."""
    return trees.sample_reduced_forest(trees.reduced_child_cdf(dist, n), count, rng)


def sample_conditioned_forest(
    dist,
    n: int,
    count: int,
    rng,
    node_cap: int = DEFAULT_NODE_CAP,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    reduce: bool = True,
):
    """Exact iid samples of the tree conditioned on height >= n, reduced to
    the ancestors of generation n, as one LevelForest of `count` trees.

    Trials run in waves; each wave's chosen survivors are reduced bottom-up,
    one numpy pass per level, before the next wave runs.  Returns (forest,
    trials, successes, capped): `trials` counts every rejection trial run,
    `successes` every accepted trial, including iid survivors beyond `count`
    that were found but not used (so trials/successes is an unbiased
    estimate of 1/q_n), and `capped` the trials dropped at the node cap.
    With reduce=False the forest holds the whole trees chopped at
    generation n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    q = survival_probs(dist, n)[n]
    parts = []
    taken = trials = successes = capped = 0
    while taken < count:
        if trials >= trial_cap:
            raise TrialCapError(f"no height-{n} sample within {trial_cap} trials")
        wave = int(np.clip(np.ceil(1.3 * (count - taken) / q), 64, 65536))
        wave = min(wave, trial_cap - trials)
        counts_levels, labels_levels, survivors, wave_capped = _conditioned_wave(
            dist, n, wave, rng, node_cap
        )
        trials += wave
        successes += survivors.size
        capped += wave_capped
        chosen = survivors[: count - taken]
        if chosen.size:
            level = _wave_levels(counts_levels, labels_levels, chosen)
            parts.append(_reduce_levels(n, level) if reduce else _whole_levels(n, level))
            taken += chosen.size
        del counts_levels, labels_levels  # free this wave before the next one runs
    return _concat_forests(parts, n), trials, successes, capped


def sample_conditioned_batch(
    dist,
    n: int,
    count: int,
    rng,
    node_cap: int = DEFAULT_NODE_CAP,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    reduce_at_n: bool = False,
):
    """The samples of sample_conditioned_forest, tree by tree: whole trees
    chopped at generation n (all level-n statistics, reduced trees and the
    harmonic measure at level n are unaffected by the chop), or with
    reduce_at_n the reduced trees as ReducedTree views.  Returns (trees,
    trials, successes); both read the rng identically.
    """
    forest, trials, successes, _ = sample_conditioned_forest(
        dist, n, count, rng, node_cap, trial_cap, reduce=reduce_at_n
    )
    return (views(forest) if reduce_at_n else plane_trees(forest)), trials, successes


def sample_conditioned_height(
    dist,
    n: int,
    rng,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
    max_gen: int | None = None,
):
    """One exact sample of the tree conditioned on non-extinction at
    generation n, by rejection; expected trials 1/q_n ~ sigma^2 n / 2.

    By default the full tree is generated; max_gen=n chops it at generation n
    (exact for every level-n functional, and avoids the heavy-tailed cost of
    the unconditioned progeny below level n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    trials = 0
    while True:
        if trials >= trial_cap:
            raise TrialCapError(f"no height-{n} sample within {trial_cap} trials")
        t = sample_gw(dist, rng, node_cap=node_cap, max_gen=max_gen)
        trials += 1
        if isinstance(t, CapExceeded):
            continue
        if t.height >= n:
            return t


def acceptance_check(dist, n, trials, successes, capped) -> dict:
    """The rejection sampler's accepted-trial count against Binomial(trials,
    q_n) with the exact q_n of `dist`; fails as well when any trial was
    dropped at the node cap (a silent bias against large trees)."""
    q = survival_probs(dist, n)[n]
    z = (successes - trials * q) / np.sqrt(trials * q * (1.0 - q))
    return check(f"conditioned-acceptance-n{n}", abs(z) <= 4 and capped == 0,
                 f"trials={trials} survivors={successes} capped={capped} z={z:+.2f}", z=z)


def faulty_child_cdf(dist, n: int):
    """reduced_child_cdf with a planted fault: children thinned with
    q_{n-g} in place of q_{n-g-1}, so reduced trees branch too rarely."""
    return _thinned_child_cdf(dist.pmf, survival_probs(dist, n)[n:0:-1])


def cycle_rotation(counts: np.ndarray) -> np.ndarray:
    """Cycle lemma: child counts summing to their number less one have one
    rotation that is a tree's breadth-first (and depth-first) counts; it
    starts right after the first minimum of the prefix sums of counts - 1."""
    return np.roll(counts, -1 - int(np.argmin(np.cumsum(counts - 1))))


def fixed_size_tree(dist, N: int, rng) -> np.ndarray:
    """Breadth-first child counts of a whole GW tree conditioned on N edges:
    the exchangeable counts of `trees`, rotated.  The counts are looked up
    through the module at each call, so a test that patches them patches
    this oracle too."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return cycle_rotation(trees._exchangeable_counts(dist, N, rng))


def preorder_depths(tree) -> np.ndarray:
    """The depths of a PlaneTree's vertices in preorder (depth first,
    children in order), by an explicit stack."""
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        out.append(tree.depth[v])
        stack.extend(children(tree, v)[::-1].tolist())
    return np.array(out, np.int64)


def depths_from_preorder_degrees(ks: np.ndarray) -> np.ndarray:
    """Preorder vertex depths of the tree with preorder child counts ks (a
    depth-first walk).

    With the Lukasiewicz path s = (0, cumsum(ks - 1)), the subtree of vertex
    u ends at tau(u), the first k > u with s[k] = s[u] - 1; the depth of
    vertex j is the number of earlier vertices whose subtree has not ended.
    """
    v = ks.size
    s = np.concatenate(([0], np.cumsum(ks - 1)))
    key = s * (v + 1) + np.arange(v + 1)  # orders k by (s[k], k)
    order = np.argsort(key)
    # key[u] - v is the key of (s[u] - 1, u + 1)
    tau = order[np.searchsorted(key[order], key[:v] - v)]
    return np.arange(v) - np.cumsum(np.bincount(tau, minlength=v + 1))[:v]


def parents_from_preorder_depths(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent of preorder vertex k is the last earlier vertex at depth d[k]-1
    (-1 for a root).

    Returns (bfs_order, parent_in_bfs_ids); bfs_order sorts by (depth,
    preorder), which is the breadth-first layout (level-major for a forest).
    In key order d*V + index, that parent holds the largest key below
    (d[k]-1)*V + k = key[k] - V.
    """
    v = d.size
    key = d * v + np.arange(v)
    order = np.argsort(key)
    parent_bfs = np.full(v, -1, np.int64)
    parent_bfs[1:] = np.searchsorted(key[order], key[order[1:]] - v) - 1
    return order, parent_bfs


def parents_from_preorder_depths_loop(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """parents_from_preorder_depths, one depth at a time: the parent of
    preorder vertex k is the last earlier vertex at depth d[k]-1."""
    v = d.size
    order = np.argsort(d, kind="stable")
    inv = np.empty(v, np.int64)
    inv[order] = np.arange(v)
    sizes = np.bincount(d)
    offs = np.concatenate(([0], np.cumsum(sizes)))
    parent_pre = np.full(v, -1, np.int64)
    for k in range(1, sizes.size):
        here = order[offs[k] : offs[k + 1]]
        cand = order[offs[k - 1] : offs[k]]
        parent_pre[here] = cand[np.searchsorted(cand, here) - 1]
    parent_bfs = np.full(v, -1, np.int64)
    parent_bfs[1:] = inv[parent_pre[order[1:]]]
    return order, parent_bfs


def reduce_preorder(depths: np.ndarray, n: int) -> LevelForest:
    """trees.reduce on a plane forest given by its preorder depths (the
    trees back to back, each root at depth 0); ValueError if a tree does not
    reach depth n.  Vertices deeper than n go first; sorting the rest by
    (depth, index) gives the level-major order.  Then the bottom-up marking
    of trees.reduce."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = depths[depths <= n]
    roots = np.flatnonzero(d == 0)
    if np.maximum.reduceat(d, roots).min() < n:
        raise ValueError(f"a tree does not reach depth {n}")
    _, parent = parents_from_preorder_depths(d)
    raw = np.bincount(parent[roots.size :], minlength=d.size)
    off = np.concatenate(([0], np.cumsum(np.bincount(d, minlength=n + 1))))
    counts = [None] * n
    marks = None
    for g in range(n - 1, -1, -1):
        level = slice(off[g], off[g + 1])
        red = raw[level] if marks is None else _segment_sums(marks, raw[level])
        marks = red > 0
        counts[g] = red[marks]
    return LevelForest(n, counts)


# ---------------------------------------------------------------------------
# continuum trees
# ---------------------------------------------------------------------------

# Trees per chunk are chosen so that a chunk holds about this many vertices
# (a truncated tree has about 2/eps).
_TREE_CHUNK_NODES = 4_000_000


@dataclass(eq=False)
class DeltaBatch:
    """A chunk of independent truncated trees, stored level by level.

    Level 0 holds one root per tree.  Level g+1 is level g's internal
    vertices repeated twice: the children of the k-th internal vertex of
    level g are vertices 2k and 2k+1 of level g+1.  `lo[g]` is where each
    segment starts (= parent's branch height), `y[g]` the drawn branch height
    Y_v = lo + U (1 - lo); v is a leaf when y >= 1-eps, and its segment then
    ends at 1-eps with closure conductance closure/eps attached above.
    `closure[g]` holds the closure draws of level g's leaves only, in order.
    """

    eps: float
    lo: list
    y: list
    leaf: list
    closure: list

    @property
    def n_trees(self) -> int:
        return self.lo[0].size

    @property
    def node_count(self) -> int:
        return sum(lo.size for lo in self.lo)


def build_batch(eps, samples, rng, n_trees) -> DeltaBatch:
    top = 1.0 - eps
    batch = DeltaBatch(eps, [], [], [], [])
    lo = np.zeros(n_trees)
    while lo.size:
        u = rng.random(lo.size)
        y = lo + u * (1.0 - lo)
        leaf = y >= top
        batch.lo.append(lo)
        batch.y.append(y)
        batch.leaf.append(leaf)
        batch.closure.append(samples[rng.integers(0, samples.size, size=int(leaf.sum()))])
        lo = np.repeat(y[~leaf], 2)
    return batch


def conductances(batch: DeltaBatch) -> list[np.ndarray]:
    """Bottom-up, one array per level: leaf = 1/((1-eps-lo) + eps/C*);
    internal = series(segment, parallel(children))."""
    eps, top = batch.eps, 1.0 - batch.eps
    out = [None] * len(batch.lo)
    above = np.empty(0)
    for g in reversed(range(len(batch.lo))):
        lo, y, leaf = batch.lo[g], batch.y[g], batch.leaf[g]
        a = np.empty(lo.size)
        a[leaf] = 1.0 / ((top - lo[leaf]) + eps / batch.closure[g])
        inner = ~leaf
        a[inner] = 1.0 / ((y[inner] - lo[inner]) + 1.0 / (above[0::2] + above[1::2]))
        out[g] = above = a
    return out


def ray_masses(batch: DeltaBatch, cond: list, rng) -> tuple[tuple, np.ndarray]:
    """Descend each tree choosing child i with probability C_i/(C_1+C_2), one
    level per step, given the batch's `conductances`; returns each tree's
    leaf as (level, position) arrays and its accumulated log mass."""
    pos = np.arange(batch.n_trees)
    level = np.zeros(batch.n_trees, np.int64)
    logm = np.zeros(batch.n_trees)
    active = np.flatnonzero(~batch.leaf[0])
    g = 0
    while active.size:
        rank = np.cumsum(~batch.leaf[g]) - 1
        c1 = 2 * rank[pos[active]]
        a1, a2 = cond[g + 1][c1], cond[g + 1][c1 + 1]
        tot = a1 + a2
        left = rng.random(active.size) * tot < a1
        logm[active] += np.log(np.where(left, a1, a2) / tot)
        pos[active] = np.where(left, c1, c1 + 1)
        g += 1
        level[active] = g
        active = active[~batch.leaf[g][pos[active]]]
    return (level, pos), logm


def tree_batches(eps, cloud: ParticleCloud, trials, rng):
    """`trials` trees in chunks of about _TREE_CHUNK_NODES vertices, each
    chunk built from its own spawned stream."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    per = max(1, min(trials, int(_TREE_CHUNK_NODES * eps / 2.0)))
    for start in range(0, trials, per):
        yield build_batch(eps, cloud.samples, rng.spawn(1)[0], min(per, trials - start))


def sample_delta(eps: float, cloud: ParticleCloud, rng) -> DeltaBatch:
    """One truncated tree (a batch of size 1) with cloud closures at height
    1-eps."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    return build_batch(eps, cloud.samples, rng, 1)


def delta_conductance(tree: DeltaBatch) -> float:
    """Root-to-boundary conductance of a one-tree batch; its law is the
    cloud's law up to truncation and cloud error."""
    return float(conductances(tree)[0][0])


def harmonic_ray_mass(tree: DeltaBatch, rng) -> tuple[tuple[int, int], float]:
    """((level, position) of the leaf, log mass of its boundary cylinder) for
    one ray of a one-tree batch, chosen by splitting flow proportionally to
    subtree conductances."""
    (level, pos), logm = ray_masses(tree, conductances(tree), rng)
    return (int(level[0]), int(pos[0])), float(logm[0])


def conductance_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """Root conductances of `trials` independent trees (self-consistency of
    the closure: this law should reproduce the cloud)."""
    return np.concatenate([conductances(b)[0] for b in tree_batches(eps, cloud, trials, rng)])


def tree_ray_mass_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """log cylinder masses over independent (tree, ray) pairs: one whole
    truncated tree per ray, the law `continuum.ray_mass_samples` samples."""
    out = []
    for batch in tree_batches(eps, cloud, trials, rng):
        out.append(ray_masses(batch, conductances(batch), rng)[1])
        del batch  # free this chunk before the next one is built
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# particle clouds
# ---------------------------------------------------------------------------


def constant_cloud(m: int, value: float = 1.0, seed: int = 0) -> ParticleCloud:
    return ParticleCloud(np.full(m, float(value)), iteration_count=0, seed=seed)


def moment(cloud: ParticleCloud, m: int) -> float:
    """The cloud's m-th moment, the mean of its values to the power m."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    return float(np.mean(cloud.samples**m))


def bootstrap_d1(cloud: ParticleCloud, rng) -> float:
    """d1 between two independent bootstrap resamples of a sorted cloud, the
    index vectors drawn from rng, a's first: one draw of the Monte Carlo
    floor, whose mean `rde.estimate_floor` is."""
    s, m = cloud.samples, cloud.size
    a = np.sort(s[rng.integers(0, m, size=m)])
    b = np.sort(s[rng.integers(0, m, size=m)])
    return float(np.mean(np.abs(a - b)))


def phi_step_serial(cloud: ParticleCloud, rng, chunk: int = 1 << 20) -> ParticleCloud:
    """`rde.phi_step` as a serial loop over the chunks' spawned streams, each
    chunk's G values by the direct formula; the default chunk is the one
    `rde.phi_step` used before it ran on the thread pool, one stream for any
    cloud of at most 2^20 particles."""
    s = cloud.samples
    parts = []
    for k, sub in enumerate(rng.spawn(-(-s.size // chunk))):
        m = min(chunk, s.size - k * chunk)
        x = s[sub.integers(0, s.size, size=m)]
        x += s[sub.integers(0, s.size, size=m)]
        u = sub.random(m)
        parts.append(1.0 / (u + (1.0 - u) / x))
    return ParticleCloud(np.sort(np.concatenate(parts)), cloud.iteration_count + 1, cloud.seed)


def fixed_point_residuals_whole(cloud: ParticleCloud, ell_grid) -> tuple[dict, dict]:
    """`rde.fixed_point_residuals` over whole-cloud buffers, serially: each
    operation of its per-value expressions in turn on the whole cloud, and
    every standard error `se_of_mean` of the materialized influence.  The
    blocked passes must equal it bit for bit."""
    s = cloud.samples
    t = np.square(s)
    m1, m2, m3 = moments = [float(s.mean()), float(t.mean()), float(np.power(s, 3, out=t).mean())]
    np.subtract(s, 2.0, out=t)
    t *= s
    x = Residual(m2 - 2.0 * m1, se_of_mean(t))
    t *= 2.0
    t += s
    t -= 4.0 * m1
    t *= s
    x2 = Residual(2.0 * m3 - 3.0 * m2 - 2.0 * m1 * m1, se_of_mean(t))
    odes = {}
    for ell in np.asarray(ell_grid, dtype=np.float64):
        e = np.multiply(s, -ell)
        e /= 2.0
        np.exp(e, out=e)
        t = np.negative(s)
        t /= 2.0
        t *= e
        phi, dphi = float(e.mean()), float(t.mean())
        np.square(s, out=t)
        t /= 4.0
        t *= e
        d2phi = float(t.mean())
        np.multiply(s, ell / 2.0, out=t)
        t -= ell / 2.0
        t *= s
        t *= e
        e -= e[0]
        e *= 2.0 * phi - 1.0
        t += e
        odes[f"laplace-ode-l{ell:g}"] = Residual(float(2.0 * ell * d2phi + ell * dphi + phi * phi - phi),
                                                 se_of_mean(t))
    l1 = odes["laplace-ode-l1"]
    rows = {"moment-identity-x": x, "moment-identity-x2": x2,
            "integrated-laplace": Residual(-l1.residual, l1.std_error), **odes}
    return rows, dict(zip(("m1", "m2", "m3"), moments))


def fixed_point_residuals_serial(cloud: ParticleCloud, ell_grid) -> tuple[dict, dict]:
    """`rde.fixed_point_residuals` row by row over whole-expression
    temporaries: each residual a polynomial g of the means of stacked
    per-value functions F, and its delta-method standard error
    sqrt(grad_g' cov(F) grad_g / M)."""
    x = cloud.samples
    moments = [float(np.mean(x**k)) for k in (1, 2, 3)]
    m1, m2, m3 = moments

    def residual(res, grad, funcs):
        grad = np.asarray(grad)
        return Residual(float(res), float(np.sqrt(grad @ np.cov(np.stack(funcs)) @ grad / x.size)))

    odes = {}
    for ell in np.asarray(ell_grid, dtype=np.float64):
        e = np.exp(-ell * x / 2.0)
        funcs = [e, -x / 2.0 * e, x**2 / 4.0 * e]  # phi, phi', phi'' per value
        phi, dphi, d2phi = (float(np.mean(f)) for f in funcs)
        odes[f"laplace-ode-l{ell:g}"] = residual(2.0 * ell * d2phi + ell * dphi + phi * phi - phi,
                                                 [2.0 * phi - 1.0, ell, 2.0 * ell], funcs)
    l1 = odes["laplace-ode-l1"]
    rows = {"moment-identity-x": residual(m2 - 2.0 * m1, [-2.0, 1.0], [x, x**2]),
            "moment-identity-x2": residual(2.0 * m3 - 3.0 * m2 - 2.0 * m1 * m1, [-4.0 * m1, -3.0, 2.0],
                                           [x, x**2, x**3]),
            "integrated-laplace": Residual(-l1.residual, l1.std_error), **odes}
    return rows, dict(zip(("m1", "m2", "m3"), moments))


def wasserstein1_grid(a: ParticleCloud, b: ParticleCloud) -> float:
    """`rde.wasserstein1` on the full quantile grid: both clouds' lower
    empirical quantiles gathered at the max(size) levels (k+1/2)/K."""
    x, y = a.samples, b.samples
    if x.size == 0 or y.size == 0:
        raise ValueError("empty cloud")
    if x.size == y.size:
        return float(np.mean(np.abs(x - y)))
    k = max(x.size, y.size)
    u = (np.arange(k) + 0.5) / k
    qx = x[(u * x.size).astype(np.int64)]
    qy = y[(u * y.size).astype(np.int64)]
    return float(np.mean(np.abs(qx - qy)))


def phi_step_coupled(a: ParticleCloud, b: ParticleCloud, rng):
    """Apply one step to two equal-size clouds with shared (index, U) draws:
    the sorted-order coupling that realises the contraction bound."""
    if a.size != b.size:
        raise ValueError("coupled step needs equal cloud sizes")
    i = rng.integers(0, a.size, size=a.size)
    j = rng.integers(0, a.size, size=a.size)
    u = rng.random(a.size)
    out_a = 1.0 / (u + (1.0 - u) / (a.samples[i] + a.samples[j]))
    out_b = 1.0 / (u + (1.0 - u) / (b.samples[i] + b.samples[j]))
    return (
        ParticleCloud(np.sort(out_a), a.iteration_count + 1, a.seed),
        ParticleCloud(np.sort(out_b), b.iteration_count + 1, b.seed),
    )


def solve_from(cloud: ParticleCloud, tol: float, max_iters: int, rng):
    """`rde.phi_step` from `cloud` until successive clouds are tol-close in
    d1, at most max_iters steps: (last cloud, trace of (step, d1), converged)."""
    trace = []
    for it in range(1, max_iters + 1):
        nxt = phi_step(cloud, rng)
        trace.append((it, wasserstein1(nxt, cloud)))
        cloud = nxt
        if trace[-1][1] < tol:
            return cloud, trace, True
    return cloud, trace, False


def kappa(cloud: ParticleCloud, r, pair_count: int, rng) -> float:
    """Monte Carlo kappa(r) = E[r S / (r + S + T - 1)] over cloud pairs."""
    r = float(r)
    if r < 1.0:
        raise ValueError("kappa is defined for r >= 1")
    s = cloud.samples
    total = 0.0
    done = 0
    while done < pair_count:
        m = min(_CHUNK, pair_count - done)
        a = s[rng.integers(0, s.size, size=m)]
        b = s[rng.integers(0, s.size, size=m)]
        total += float(np.sum(r * a / (r + a + b - 1.0)))
        done += m
    return total / pair_count


def batch_sums_serial(rng, batch: int, summands, chunk: int) -> np.ndarray:
    """`beta._batch_sums` replayed group by group, in the calling thread:
    each stream of rng.spawn(_TASKS) draws its _BATCHES // _TASKS batches in
    turn, as many whole batches per draw as fit in `chunk` tuples, else one
    batch in pieces of at most `chunk`.  summands(sub, k, m) draws k batches
    of m tuples from sub and returns their summands, one row per tuple,
    batch after batch."""
    per = _BATCHES // _TASKS
    sums = []
    for sub in rng.spawn(_TASKS):
        if batch <= chunk:
            step = chunk // batch
            for lo in range(0, per, step):
                k = min(step, per - lo)
                vals = summands(sub, k, batch)
                sums.extend(vals.reshape(k, batch, *vals.shape[1:]).sum(axis=1))
        else:
            for _ in range(per):
                sums.append(sum(summands(sub, 1, min(chunk, batch - done)).sum(axis=0)
                                for done in range(0, batch, chunk)))
    return np.array(sums)


def stratified_rows(sub, k: int, m: int, dims: int) -> np.ndarray:
    """The (dims, k * m) uniforms of k Latin hypercube rows of m tuples,
    row after row: U first, one row of one coordinate at a time (coordinate
    0's rows first); then coordinate 0 of row r holds stratum i at tuple i,
    and every other coordinate the strata of its own `sub.permutation(m)`
    per row; each value is (stratum + U) / m."""
    u = [[sub.random(m) for _ in range(k)] for _ in range(dims)]
    strata = [[np.arange(m)] * k] + [[sub.permutation(m) for _ in range(k)] for _ in range(dims - 1)]
    return np.array([np.concatenate([(p + x) / m for p, x in zip(rows, us)])
                     for rows, us in zip(strata, u)])


def cloud_at_serial(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted cloud values at floor(v M), the last one where v M rounds to M."""
    return s[np.minimum(np.floor(v * s.size).astype(np.int64), s.size - 1)]


def pair_sums_whole(s: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """`beta._pair_sums` as one expression over whole temporaries, on the
    same draws: the k batch sums of c0 c1 / (c0 + c1 - 1)."""
    c0, c1 = cloud_at_serial(s, stratified_rows(sub, k, m, 2))
    return np.sum((c0 * c1 / (c0 + c1 - 1.0)).reshape(k, m), axis=1)


def triple_sums_whole(s: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """`beta._triple_sums` as two expressions over whole temporaries, on
    the same draws."""
    r, t, u = cloud_at_serial(s, stratified_rows(sub, k, m, 3))
    return np.stack([np.sum((2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t)).reshape(k, m), axis=1),
                     np.sum((t * u / (t + u - 1.0)).reshape(k, m), axis=1)], axis=1)


def shift_sums_whole(s: np.ndarray, table: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """`beta._shift_sums` as two expressions over whole temporaries, on the
    same draws: the weight table[j] + t diff(table)[j] a fresh array."""
    last = table.size - 1
    v = stratified_rows(sub, k, m, 3)
    c1, c2 = cloud_at_serial(s, v[:2])
    u = np.minimum(v[2], np.nextafter(1.0, 0.0))
    pos = (u + (1.0 - u) / (c1 + c2)) * last
    j = np.minimum(pos.astype(np.intp), last - 1)
    w = table[j] + (pos - j) * np.diff(table)[j]
    frac = c1 / (c1 + c2)
    return np.stack([np.sum((w * (frac * np.log(frac))).reshape(k, m), axis=1),
                     np.sum((w * -np.log1p(-u)).reshape(k, m), axis=1)], axis=1)


def moment_and_triple_exact(s: np.ndarray) -> tuple[float, float]:
    """0.5 ((E C)^2 / E[C0 C1/(C0+C1-1)] - 1), and 2 E[R T/(R+T+U-1) log((T+U)/T)]
    over E[T U/(T+U-1)], as exact means over all M^2 pairs and M^3 triples of
    the cloud values s, one M x M plane of triples per value of R."""
    t, u = np.meshgrid(s, s, indexing="ij")
    a, b = s.mean(), np.mean(t * u / (t + u - 1.0))
    log_ratio = np.log((t + u) / t)
    num = np.mean([np.mean(2.0 * r * t / (r + t + u - 1.0) * log_ratio) for r in s])
    return 0.5 * (a * a / b - 1.0), num / b


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def content_hash(report) -> str:
    """Hash of an ExperimentReport's dict without the wall clock: equal for
    two runs that reproduce each other."""
    d = report.to_dict()
    d.pop("wall_clock_s")
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
