"""Sampling and reduction of critical Galton-Watson plane trees.

Trees live in a flat arena in breadth-first layout: nodes are sorted by depth,
siblings are consecutive in birth order, and the children of consecutive
parents form consecutive blocks.  That layout makes the bottom-up and
top-down passes of the network module single vectorised sweeps per level.

Height-conditioning is done by plain rejection (exactly distributed); trials
are run in waves so the offspring draws vectorise across trials.  Fixed-size
conditioning uses the cycle lemma: a uniformly shuffled step multiset has
exactly one cyclic rotation that is a valid depth-first walk, and rotating to
it preserves the conditional law.
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

    Returns (counts_levels, labels_levels, survivor_labels); trials that hit
    the per-trial node cap are dropped (treated as rejections).
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
    return counts_levels, labels_levels, survivors


def _extract_counts(counts_levels, labels_levels, label) -> list[np.ndarray]:
    # label arrays are sorted (np.repeat of a sorted array), so slice by bisection
    out = []
    for c, l in zip(counts_levels, labels_levels):
        lo = np.searchsorted(l, label, side="left")
        hi = np.searchsorted(l, label, side="right")
        out.append(c[lo:hi])
    return out


def sample_conditioned_batch(
    dist,
    n: int,
    count: int,
    rng,
    node_cap: int = DEFAULT_NODE_CAP,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    reduce_at_n: bool = False,
):
    """Exact iid samples of the tree conditioned on height >= n, chopped at
    generation n (all level-n statistics, reduced trees and the harmonic
    measure at level n are unaffected by the chop).

    With reduce_at_n the reduction to ancestors of generation n is fused into
    extraction and ReducedTree objects are returned instead.
    Returns (trees, trials, successes): `trials` counts every rejection trial
    run and `successes` every accepted trial, including iid survivors beyond
    `count` that were found but not materialised (so trials/successes is an
    unbiased estimate of 1/q_n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = survival_prob(dist, n)
    out = []
    trials = 0
    successes = 0
    while len(out) < count:
        if trials >= trial_cap:
            raise TrialCapError(f"no height-{n} sample within {trial_cap} trials")
        wave = int(np.clip(np.ceil(1.3 * (count - len(out)) / q), 64, 65536))
        wave = min(wave, trial_cap - trials)
        counts_levels, labels_levels, survivors = _conditioned_wave(
            dist, n, wave, rng, node_cap
        )
        trials += wave
        successes += survivors.size
        for t in survivors[: count - len(out)]:
            counts_t = _extract_counts(counts_levels, labels_levels, t)
            if reduce_at_n:
                out.append(_reduce_from_counts(counts_t, n))
            else:
                out.append(tree_from_generation_counts(counts_t))
    return out, trials, successes


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
    """Decode a preorder child-count sequence (a depth-first walk) to a tree."""
    v = ks.size
    depth = np.zeros(v, np.int64)
    parent = np.full(v, -1, np.int64)
    stack = [[0, int(ks[0])]]
    for j in range(1, v):
        while stack[-1][1] == 0:
            stack.pop()
        p = stack[-1][0]
        stack[-1][1] -= 1
        parent[j] = p
        depth[j] = depth[p] + 1
        stack.append([j, int(ks[j])])
    order, parent_bfs = _parents_from_preorder_depths(depth)
    return tree_from_parent_depth(parent_bfs, depth[order])


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


def _reduce_from_counts(counts_per_gen: list[np.ndarray], n: int) -> ReducedTree:
    """Reduced tree straight from per-generation counts of a height->=n tree."""
    marks = [None] * (n + 1)
    marks[n] = np.ones(int(counts_per_gen[n - 1].sum()), bool)
    for g in range(n - 1, -1, -1):
        marks[g] = _segment_sums(marks[g + 1].astype(np.int64), counts_per_gen[g]) > 0
    red_counts = []
    for g in range(n):
        kept = marks[g]
        child_marks = marks[g + 1].astype(np.int64)
        red_counts.append(_segment_sums(child_marks, counts_per_gen[g])[kept])
    tree = tree_from_generation_counts(red_counts)
    boundary = np.arange(tree.gen_offsets[n], tree.gen_offsets[n + 1])
    return ReducedTree(tree=tree, n=n, boundary=boundary)


def reduce(tree: PlaneTree, n: int):
    """Subtree of ancestors of depth-n vertices, relabelled preserving order;
    NoSurvivor (a value) if the tree does not reach depth n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if tree.height < n:
        return NoSurvivor(n)
    mark = tree.depth == n
    for g in range(n - 1, -1, -1):
        lo, hi = tree.gen_offsets[g], tree.gen_offsets[g + 1]
        clo, chi = tree.gen_offsets[g + 1], tree.gen_offsets[g + 2]
        seg = _segment_sums(mark[clo:chi].astype(np.int64), tree.child_count[lo:hi])
        mark[lo:hi] = seg > 0
    keep = np.flatnonzero(mark)
    newidx = np.full(tree.node_count, -1, np.int64)
    newidx[keep] = np.arange(keep.size)
    parent = np.where(tree.parent[keep] >= 0, newidx[tree.parent[keep]], -1)
    out = tree_from_parent_depth(parent, tree.depth[keep])
    boundary = np.arange(out.gen_offsets[n], out.gen_offsets[n + 1])
    return ReducedTree(tree=out, n=n, boundary=boundary)


def validate_reduced(r: ReducedTree) -> None:
    """Every vertex has a descendant at depth n; max depth exactly n."""
    t = r.tree
    validate_tree(t)
    assert t.height == r.n and r.boundary.size > 0
    reach = t.depth == r.n
    for g in range(r.n - 1, -1, -1):
        lo, hi = t.gen_offsets[g], t.gen_offsets[g + 1]
        clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
        seg = _segment_sums(reach[clo:chi].astype(np.int64), t.child_count[lo:hi])
        reach[lo:hi] = seg > 0
    assert bool(reach[: t.gen_offsets[r.n + 1]].all())


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
