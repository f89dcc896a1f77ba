"""Sampling and reduction of critical Galton-Watson plane trees.

Trees live in a flat arena in breadth-first layout: nodes are sorted by depth,
siblings are consecutive in birth order, and the children of consecutive
parents form consecutive blocks.  That layout makes the bottom-up and
top-down passes of the network module single vectorised sweeps per level.

Height-conditioned trees are sampled as their reduced trees directly: the
ancestors of generation n of a critical GW tree conditioned on height >= n
form a branching process whose offspring law depends on the generation
(Fleischmann and Siegmund-Schultze 1977), so each generation is one uniform
draw per vertex against one CDF row.  The draws fill one LevelForest:
generation g of every tree sits in one array, so the network sweeps are one
numpy pass per level over all trees.  LevelForest.trees() turns a forest
into PlaneTrees, the single-tree layout that level_set reads.

Fixed-size trees are their preorder depths, read off the depth-first walk;
reduce() marks the ancestors of generation n of many of them, back to back,
bottom-up into one LevelForest, so a batch is reduced and swept at once.

Fixed-size conditioning uses the cycle lemma: a uniformly shuffled step
multiset has exactly one cyclic rotation that is a valid depth-first walk,
and rotating to it preserves the conditional law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offspring import survival_probs

DEFAULT_TRIAL_CAP = 10_000_000


class TrialCapError(RuntimeError):
    """Rejection loop exhausted its trial budget (misconfigured n)."""


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


@dataclass(eq=False)
class LevelForest:
    """Trees of height n, stored generation by generation; the samplers and
    reduce() keep only the ancestors of generation n.

    Generation g of every tree lives in one array: the trees in order, and
    each tree's generation-g vertices in breadth-first order.  The children of
    consecutive vertices are consecutive, so generation g+1 is generation g
    repeated by its child counts.
    """

    n: int
    counts: list       # counts[g]: child counts of generation g, for g < n
    tree_index: list   # tree_index[g]: owning tree of each generation-g vertex, g <= n

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


def _reduce_levels(n: int, level) -> LevelForest:
    """Bottom-up marking: keep the ancestors of generation n of a forest.

    level(g) returns the raw child counts and the tree indices of generation
    g < n in level order.  Generation n is kept whole; a vertex is kept iff
    it has a kept child, and its reduced child count is the number of them.
    Only the reduced generation is held once the step is done.
    """
    counts = [None] * n
    tree_index = [None] * (n + 1)
    marks = None
    for g in range(n - 1, -1, -1):
        raw, tree = level(g)
        red = raw if marks is None else _segment_sums(marks, raw)
        marks = red > 0
        counts[g] = red[marks]
        tree_index[g] = tree[marks]
    tree_index[n] = np.repeat(tree_index[n - 1], counts[n - 1])
    return LevelForest(n, counts, tree_index)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum `values` over consecutive segments of the given lengths (0 allowed)."""
    cs = np.concatenate(([0], np.cumsum(values)))
    ends = np.cumsum(counts)
    return cs[ends] - cs[ends - counts]


# ---------------------------------------------------------------------------
# Height-conditioned sampling
# ---------------------------------------------------------------------------


def reduced_child_cdf(dist, n: int) -> np.ndarray:
    """Row g < n: the CDF over j = 1..K of the reduced child count J of a
    generation-g vertex of the reduced tree of height n.

    Each of the K children of a vertex of generation g reaches generation n
    with probability q = q_{n-g-1}, independently, so given K the reduced
    count is Binomial(K, q), and the vertex itself is kept iff J >= 1:
    P(J = j) = sum_k theta(k) C(k, j) q^j (1-q)^(k-j) / q_{n-g}, j >= 1,
    for every offspring law.  Rows are normalised by their computed sum,
    which is q_{n-g} up to rounding.
    """
    return _thinned_child_cdf(dist.pmf, survival_probs(dist, n)[n - 1 :: -1])


def _thinned_child_cdf(pmf: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """CDF rows over j = 1..K of Binomial(K, keep[g]) given >= 1, K ~ pmf,
    as one (len(keep), K+1, K+1) product over (g, k, j)."""
    k = np.arange(pmf.size)
    comb = np.array([[math.comb(a, b) for b in k] for a in k], float)  # 0 for j > k
    fail = (1.0 - keep)[:, None, None] ** np.maximum(k[:, None] - k[None, :], 0)
    mass = np.einsum("k,kj,gkj->gj", pmf, comb, fail) * keep[:, None] ** k
    cdf = np.cumsum(mass[:, 1:], axis=1)
    return cdf / cdf[:, -1:]  # x/x is exactly 1, so each row ends at 1


def sample_reduced_forest(cdf: np.ndarray, count: int, rng) -> LevelForest:
    """`count` iid reduced trees of height n = len(cdf) from the table of
    reduced_child_cdf: one uniform per vertex, one generation at a time."""
    tree_index = [np.arange(count)]
    counts = []
    for row in cdf:
        j = np.searchsorted(row, rng.random(tree_index[-1].size), side="right") + 1
        counts.append(j)
        tree_index.append(np.repeat(tree_index[-1], j))
    return LevelForest(cdf.shape[0], counts, tree_index)


def sample_conditioned_forest(dist, n: int, count: int, rng) -> LevelForest:
    """Exact iid samples of the tree conditioned on height >= n, reduced to
    the ancestors of generation n, as one LevelForest of `count` trees."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return sample_reduced_forest(reduced_child_cdf(dist, n), count, rng)


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


def sample_fixed_size(dist, N: int, rng) -> np.ndarray:
    """Preorder vertex depths of an exact GW tree conditioned on N edges;
    geometric and poisson only.

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
        return np.concatenate(([0], np.cumsum(rot)[rot == 1]))
    if dist.kind == "poisson":
        # N balls in N+1 boxes = offspring vector of iid Poisson(1) given sum N
        ks = np.bincount(rng.integers(0, N + 1, size=N), minlength=N + 1)
        return depths_from_preorder_degrees(_first_passage_rotation(ks - 1) + 1)
    raise UnsupportedDistributionError(
        f"fixed-size sampling supports geometric and poisson, not {dist.kind}"
    )


def sample_fixed_size_conditioned(dist, N: int, n: int, rng):
    """Fixed-size tree resampled until height >= n (the joint conditioning of
    the fixed-size experiments), at most DEFAULT_TRIAL_CAP times.  Returns
    (preorder depths, trials)."""
    trials = 0
    while trials < DEFAULT_TRIAL_CAP:
        depths = sample_fixed_size(dist, N, rng)
        trials += 1
        if depths.max() >= n:
            return depths, trials
    raise TrialCapError(f"no height-{n} fixed-size sample within {DEFAULT_TRIAL_CAP} trials")


# ---------------------------------------------------------------------------
# Reduction and level sets
# ---------------------------------------------------------------------------


def reduce(depths: np.ndarray, n: int) -> LevelForest:
    """The ancestors of generation n of a plane forest given by its preorder
    depths (the trees back to back, each root at depth 0), as one
    LevelForest; ValueError if a tree does not reach depth n.  Vertices
    deeper than n go first; sorting the rest by (depth, index) gives the
    level-major order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = depths[depths <= n]
    roots = np.flatnonzero(d == 0)
    if np.maximum.reduceat(d, roots).min() < n:
        raise ValueError(f"a tree does not reach depth {n}")
    order, parent = _parents_from_preorder_depths(d)
    counts = np.bincount(parent[roots.size :], minlength=d.size)
    tree = (np.cumsum(d == 0) - 1)[order]
    off = np.concatenate(([0], np.cumsum(np.bincount(d, minlength=n + 1))))
    return _reduce_levels(n, lambda g: (counts[off[g] : off[g + 1]], tree[off[g] : off[g + 1]]))


def level_set(tree: PlaneTree, k: int) -> np.ndarray:
    """All depth-k vertices, in order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > tree.height:
        return np.array([], np.int64)
    return np.arange(tree.gen_offsets[k], tree.gen_offsets[k + 1])

