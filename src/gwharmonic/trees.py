"""Sampling and reduction of critical Galton-Watson plane trees.

Trees live in a flat arena in breadth-first layout: nodes are sorted by depth,
siblings are consecutive in birth order, and the children of consecutive
parents form consecutive blocks.  That layout makes the bottom-up and
top-down passes of the network module single vectorised sweeps per level.

Height-conditioning is done by plain rejection (exactly distributed); trials
are run in waves so the offspring draws vectorise across trials.  The chosen
survivors of a wave are reduced together, bottom-up, into one LevelForest:
generation g of every tree sits in one array, so marking, reduction and the
network sweeps are one numpy pass per level over all trees.  PlaneTree and
ReducedTree remain the single-tree views used by the oracles and the text
dump, and reduce() runs the same bottom-up marking on a one-tree forest.

Fixed-size conditioning uses the cycle lemma: a uniformly shuffled step
multiset has exactly one cyclic rotation that is a valid depth-first walk,
and rotating to it preserves the conditional law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .offspring import sample_offspring, survival_prob

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_TRIAL_CAP = 10_000_000


class TrialCapError(RuntimeError):
    """Rejection loop exhausted its trial budget (misconfigured n)."""


@dataclass(frozen=True)
class CapExceeded:
    """Returned (not raised) when a growing tree would pass the node cap."""

    node_cap: int


@dataclass(frozen=True)
class NoSurvivor:
    """Returned by reduce() when the tree has no vertex at the target depth."""

    n: int


@dataclass(eq=False)
class PlaneTree:
    """Arena-indexed ordered rooted tree in breadth-first layout."""

    parent: np.ndarray       # int64; -1 at the root
    child_start: np.ndarray  # int64; children of v are [child_start[v], +child_count[v])
    child_count: np.ndarray  # int64
    depth: np.ndarray        # int64
    gen_offsets: np.ndarray  # int64; generation d is nodes [gen_offsets[d], gen_offsets[d+1])

    @property
    def node_count(self) -> int:
        return self.parent.size

    @property
    def height(self) -> int:
        return self.gen_offsets.size - 2

    def children(self, v: int) -> np.ndarray:
        s = self.child_start[v]
        return np.arange(s, s + self.child_count[v])


@dataclass(eq=False)
class ReducedTree:
    """Ancestors of the depth-n vertices of some tree, relabelled in order."""

    tree: PlaneTree
    n: int
    boundary: np.ndarray  # indices of the depth-n vertices

    @property
    def boundary_size(self) -> int:
        return self.boundary.size

    def as_forest(self) -> LevelForest:
        """This tree as a one-tree LevelForest (it is already reduced)."""
        off = self.tree.gen_offsets
        counts = [self.tree.child_count[off[g] : off[g + 1]] for g in range(self.n)]
        tree_index = [np.zeros(off[g + 1] - off[g], np.int64) for g in range(self.n + 1)]
        return LevelForest(self.n, counts, tree_index)


@dataclass(eq=False)
class LevelForest:
    """Trees of height n, stored generation by generation; reduced to the
    ancestors of generation n unless sampled whole.

    Generation g of every tree lives in one array: the trees in order, and
    each tree's generation-g vertices in breadth-first order.  The children of
    consecutive vertices are consecutive, so generation g+1 is generation g
    repeated by its child counts.
    """

    n: int
    counts: list       # counts[g]: child counts of generation g, for g < n
    tree_index: list   # tree_index[g]: owning tree of each generation-g vertex, g <= n
    capped: int = 0    # sampling trials dropped at the node cap

    @property
    def size(self) -> int:
        return self.tree_index[0].size

    def level_sizes(self, g: int) -> np.ndarray:
        """Generation-g vertex count of every tree."""
        return np.bincount(self.tree_index[g], minlength=self.size)

    def boundary_offsets(self) -> np.ndarray:
        """Tree i owns vertices [off[i], off[i+1]) of generation n."""
        return np.concatenate(([0], np.cumsum(self.level_sizes(self.n))))

    def trees(self) -> list[PlaneTree]:
        """Every tree as a PlaneTree in breadth-first layout.

        A stable sort by tree index turns the level-major arrays into the
        trees' breadth-first layouts back to back; each tree slices them.
        """
        n, size = self.n, self.size
        tree = np.concatenate(self.tree_index)
        order = np.argsort(tree, kind="stable")
        tree = tree[order]
        counts = np.concatenate(self.counts + [np.zeros(self.tree_index[n].size, np.int64)])[order]
        depth = np.repeat(np.arange(n + 1), [t.size for t in self.tree_index])[order]
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

    def views(self) -> list[ReducedTree]:
        """Every tree as a ReducedTree (for a reduced forest)."""
        return [ReducedTree(t, self.n, np.arange(t.gen_offsets[self.n], t.gen_offsets[self.n + 1]))
                for t in self.trees()]


def _concat_forests(parts: list[LevelForest], n: int) -> LevelForest:
    if len(parts) == 1:
        return parts[0]
    shift = np.cumsum([0] + [f.size for f in parts])
    counts = [np.concatenate([f.counts[g] for f in parts]) for g in range(n)]
    tree_index = [np.concatenate([f.tree_index[g] + k for f, k in zip(parts, shift)])
                  for g in range(n + 1)]
    return LevelForest(n, counts, tree_index)


def _reduce_levels(n: int, level, reduce: bool = True) -> LevelForest:
    """Bottom-up marking: keep the ancestors of generation n of a forest.

    level(g) returns the raw child counts and the tree indices of generation
    g < n in level order.  Generation n is kept whole; a vertex is kept iff
    it has a kept child, and its reduced child count is the number of them.
    Only the reduced generation is held once the step is done.  With
    reduce=False the generations are kept as given (whole trees).
    """
    counts = [None] * n
    tree_index = [None] * (n + 1)
    marks = None
    for g in range(n - 1, -1, -1):
        raw, tree = level(g)
        if not reduce:
            counts[g], tree_index[g] = raw, tree
            continue
        red = raw if marks is None else _segment_sums(marks, raw)
        marks = red > 0
        counts[g] = red[marks]
        tree_index[g] = tree[marks]
    tree_index[n] = np.repeat(tree_index[n - 1], counts[n - 1])
    return LevelForest(n, counts, tree_index)


def _tree_levels(tree: PlaneTree):
    """level(g) of one PlaneTree for _reduce_levels."""
    off = tree.gen_offsets

    def level(g):
        return tree.child_count[off[g] : off[g + 1]], np.zeros(off[g + 1] - off[g], np.int64)

    return level


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum `values` over consecutive segments of the given lengths (0 allowed)."""
    cs = np.concatenate(([0], np.cumsum(values)))
    ends = np.cumsum(counts)
    return cs[ends] - cs[ends - counts]


def tree_from_parent_depth(parent: np.ndarray, depth: np.ndarray) -> PlaneTree:
    """Assemble arena fields from BFS-ordered parent/depth arrays."""
    n = parent.size
    counts = np.bincount(parent[1:], minlength=n) if n > 1 else np.zeros(1, np.int64)
    counts = counts.astype(np.int64)
    child_start = np.empty(n, np.int64)
    child_start[0] = 1
    np.cumsum(counts[:-1], out=child_start[1:])
    child_start[1:] += 1
    gen_sizes = np.bincount(depth)
    gen_offsets = np.concatenate(([0], np.cumsum(gen_sizes))).astype(np.int64)
    return PlaneTree(
        parent=parent.astype(np.int64),
        child_start=child_start,
        child_count=counts,
        depth=depth.astype(np.int64),
        gen_offsets=gen_offsets,
    )


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


def validate_tree(t: PlaneTree) -> None:
    """Structural invariants; test helper, O(n)."""
    assert t.parent[0] == -1 and t.depth[0] == 0
    if t.node_count > 1:
        assert np.all(t.parent[1:] >= 0)
        assert np.all(t.depth[1:] == t.depth[t.parent[1:]] + 1)
    assert np.all(np.diff(t.depth) >= 0), "not BFS sorted"
    assert int(t.child_count.sum()) == t.node_count - 1
    for v in range(t.node_count):
        ch = t.children(v)
        assert np.all(t.parent[ch] == v)
    sizes = np.diff(t.gen_offsets)
    assert np.array_equal(sizes, np.bincount(t.depth))


# ---------------------------------------------------------------------------
# Galton-Watson sampling
# ---------------------------------------------------------------------------


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
        return counts_levels[g][idx], np.repeat(np.arange(chosen.size), sizes)

    return level


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
    trials, successes): `trials` counts every rejection trial run and
    `successes` every accepted trial, including iid survivors beyond `count`
    that were found but not used (so trials/successes is an unbiased
    estimate of 1/q_n).  forest.capped counts the trials dropped at the node
    cap.  With reduce=False the forest holds the whole trees chopped at
    generation n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    q = survival_prob(dist, n)
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
            parts.append(_reduce_levels(n, _wave_levels(counts_levels, labels_levels, chosen),
                                        reduce))
            taken += chosen.size
        del counts_levels, labels_levels  # free this wave before the next one runs
    forest = _concat_forests(parts, n)
    forest.capped = capped
    return forest, trials, successes


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
    forest, trials, successes = sample_conditioned_forest(
        dist, n, count, rng, node_cap, trial_cap, reduce=reduce_at_n
    )
    return (forest.views() if reduce_at_n else forest.trees()), trials, successes


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


# ---------------------------------------------------------------------------
# Fixed-size sampling (cycle lemma)
# ---------------------------------------------------------------------------


class UnsupportedDistributionError(ValueError):
    pass


def _first_passage_rotation(steps: np.ndarray) -> np.ndarray:
    """Cycle lemma: steps >= -1 summing to -1 have a unique rotation whose
    proper prefix sums stay >= 0; it starts right after the first minimum."""
    s = np.cumsum(steps)
    m = int(np.argmin(s))
    return np.concatenate((steps[m + 1 :], steps[: m + 1]))


def _parents_from_preorder_depths(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent of preorder vertex k is the last earlier vertex at depth d[k]-1.

    Returns (bfs_order, parent_in_bfs_ids); bfs_order sorts by (depth,
    preorder), which is the breadth-first layout.
    """
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


def tree_from_preorder_degrees(ks: np.ndarray) -> PlaneTree:
    """Decode a preorder child-count sequence (a depth-first walk) to a tree.

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
    depth = np.arange(v) - np.cumsum(np.bincount(tau, minlength=v + 1))[:v]
    bfs, parent_bfs = _parents_from_preorder_depths(depth)
    return tree_from_parent_depth(parent_bfs, depth[bfs])


def sample_fixed_size(dist, N: int, rng) -> PlaneTree:
    """Exact GW tree conditioned on N edges; geometric and poisson only.

    geometric: a uniformly shuffled (+1)^N (-1)^{N+1} walk, rotated to its
    first-passage representative, is the depth-first contour of a uniform
    plane tree with N edges.  poisson: offspring counts conditioned on sum N
    over N+1 vertices are multinomial; rotate to the valid depth-first order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if dist.kind == "geometric":
        steps = np.concatenate((np.ones(N, np.int64), -np.ones(N + 1, np.int64)))
        rot = _first_passage_rotation(rng.permutation(steps))
        s = np.cumsum(rot)
        d = np.concatenate(([0], s[rot == 1]))  # preorder vertex depths
        order, parent_bfs = _parents_from_preorder_depths(d)
        return tree_from_parent_depth(parent_bfs, d[order])
    if dist.kind == "poisson":
        # N balls in N+1 boxes = offspring vector of iid Poisson(1) given sum N
        ks = np.bincount(rng.integers(0, N + 1, size=N), minlength=N + 1)
        return tree_from_preorder_degrees(_first_passage_rotation(ks - 1) + 1)
    raise UnsupportedDistributionError(
        f"fixed-size sampling supports geometric and poisson, not {dist.kind}"
    )


def sample_fixed_size_conditioned(dist, N: int, n: int, rng, trial_cap=DEFAULT_TRIAL_CAP):
    """Fixed-size tree resampled until height >= n (the joint conditioning of
    the fixed-size experiments).  Returns (tree, trials)."""
    trials = 0
    while trials < trial_cap:
        t = sample_fixed_size(dist, N, rng)
        trials += 1
        if t.height >= n:
            return t, trials
    raise TrialCapError(f"no height-{n} fixed-size sample within {trial_cap} trials")


# ---------------------------------------------------------------------------
# Reduction, level sets, truncation
# ---------------------------------------------------------------------------


def reduce(tree: PlaneTree, n: int):
    """Subtree of ancestors of depth-n vertices, relabelled preserving order;
    NoSurvivor (a value) if the tree does not reach depth n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if tree.height < n:
        return NoSurvivor(n)
    return _reduce_levels(n, _tree_levels(tree)).views()[0]


def validate_reduced(r: ReducedTree) -> None:
    """Every vertex has a descendant at depth n; max depth exactly n."""
    t = r.tree
    validate_tree(t)
    assert t.height == r.n and r.boundary.size > 0
    kept = _reduce_levels(r.n, _tree_levels(t))
    assert [g.size for g in kept.tree_index] == np.diff(t.gen_offsets).tolist()


def level_set(tree: PlaneTree, k: int) -> np.ndarray:
    """All depth-k vertices, in order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > tree.height:
        return np.array([], np.int64)
    return np.arange(tree.gen_offsets[k], tree.gen_offsets[k + 1])


def truncate(reduced: ReducedTree, s: float) -> PlaneTree:
    """Vertices of the reduced tree at depth <= n - floor(s)."""
    if not 0 <= s <= reduced.n:
        raise ValueError("s must lie in [0, n]")
    m = reduced.n - int(np.floor(s))
    t = reduced.tree
    cut = int(t.gen_offsets[m + 1])
    return tree_from_parent_depth(t.parent[:cut], t.depth[:cut])


# ---------------------------------------------------------------------------
# Text dump (debugging / cross-implementation diffing)
# ---------------------------------------------------------------------------


def dump_tree(tree: PlaneTree, path) -> None:
    with open(path, "w") as fh:
        for i in range(tree.node_count):
            fh.write(f"{i} {tree.parent[i]} {tree.depth[i]}\n")


def load_tree(path) -> PlaneTree:
    rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise ValueError("node indices must be 0..n-1 in order")
    return tree_from_parent_depth(rows[:, 1], rows[:, 2])
