"""Sampling and reduction of critical Galton-Watson plane trees.

Every tree lives in one layout, the LevelForest: generation g of all the
trees of a forest sits in one array, the trees in order and each tree's
vertices in breadth-first order, so the children of consecutive vertices
form consecutive blocks.  That makes the bottom-up and top-down passes of
the network module one numpy pass per level over all trees.  Per-tree
offsets, one entry per tree and generation, mark where each tree's block of
each generation starts; a tree's generation offsets, the running sum of its
level sizes, are what level_set reads.

Height-conditioned trees are sampled as their reduced trees directly: the
ancestors of generation n of a critical GW tree conditioned on height >= n
form a branching process whose offspring law depends on the generation
(Fleischmann and Siegmund-Schultze 1977), so each generation of a forest is
one uniform draw per vertex against one CDF row.

Fixed-size trees are their breadth-first child counts: exchangeable counts
rotated by the cycle lemma to the one rotation that is a tree.  One prefix
sum of the unrotated counts finds that rotation and walks the generations;
a tree kept for height >= n rotates only its generations 0..n-1, one count
array each.  Many such
trees joined generation by generation are the level-major counts of a
LevelForest, and reduce() marks their ancestors of generation n bottom-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .offspring import survival_probs

DEFAULT_TRIAL_CAP = 10_000_000


class TrialCapError(RuntimeError):
    """Rejection loop exhausted its trial budget (misconfigured n)."""


@dataclass(eq=False)
class LevelForest:
    """Trees of height >= n, stored generation by generation up to n.

    Generation g of every tree lives in one array: the trees in order, and
    each tree's generation-g vertices in breadth-first order.  The children of
    consecutive vertices are consecutive, so tree i's generation-g block is
    [offsets[g][i], offsets[g][i+1]) and its children's block starts at the
    running sum of counts[g] there, from one root per tree.  The forests of
    sample_reduced_forest and reduce() hold only the ancestors of generation
    n; the test oracles also hold whole trees chopped at n.
    """

    n: int
    counts: list  # counts[g]: child counts of generation g, for g < n
    offsets: list = field(init=False)  # offsets[g][i:i+2]: tree i's block of generation g <= n

    def __post_init__(self):
        self.offsets = [np.arange(self.counts[0].size + 1)]
        for k in self.counts:
            self.offsets.append(np.concatenate(([0], np.cumsum(k)))[self.offsets[-1]])

    @property
    def size(self) -> int:
        return self.offsets[0].size - 1

    def level_sizes(self, g: int) -> np.ndarray:
        """Generation-g vertex count of every tree."""
        return np.diff(self.offsets[g])


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
    """CDF rows over j = 1..K of Binomial(K, keep[g]) given >= 1, K ~ pmf: one
    Binomial(k, keep) pmf per k in the law's support, for every generation at
    once and in log space, so no C(k, j) overflows; memory O(len(keep) K)."""
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(pmf.size)])
    log_keep = np.log(keep)[:, None]
    log_fail = np.log1p(-keep, out=np.full(keep.size, -np.inf), where=keep < 1.0)[:, None]
    mass = np.zeros((keep.size, pmf.size))
    for k in np.flatnonzero(pmf):
        j = np.arange(k + 1)
        log_b = log_fact[k] - log_fact[j] - log_fact[k - j] + j * log_keep
        log_b[:, :k] += (k - j[:k]) * log_fail  # (1-q)^0 = 1 at j = k, also where q = 1
        mass[:, : k + 1] += pmf[k] * np.exp(log_b)
    cdf = np.cumsum(mass[:, 1:], axis=1)
    return cdf / cdf[:, -1:]  # x/x is exactly 1, so each row ends at 1


def sample_reduced_forest(cdf: np.ndarray, count: int, rng) -> LevelForest:
    """`count` iid reduced trees of height n = len(cdf) from the table of
    reduced_child_cdf: one uniform per vertex, one generation at a time."""
    counts, size = [], count
    for row in cdf:
        counts.append(np.searchsorted(row, rng.random(size), side="right") + 1)
        size = int(counts[-1].sum())
    return LevelForest(cdf.shape[0], counts)


# ---------------------------------------------------------------------------
# Fixed-size sampling (cycle lemma)
# ---------------------------------------------------------------------------


class UnsupportedDistributionError(ValueError):
    pass


# The offspring laws (their `kind`) whose fixed-size trees _exchangeable_counts draws.
FIXED_SIZE_LAWS = ("geometric", "poisson")


def _exchangeable_counts(dist, N: int, rng) -> np.ndarray:
    """N+1 counts summing to N, iid with law dist given their sum: a bincount
    of N labels in 0..N.  geometric: every composition of N into N+1 parts
    is equally likely; they are the strings of 2N bits with N ones, each one
    labelled by the zeros before it.  The k ones of 2N fair bits become N by
    flipping a uniform subset of |k-N| majority symbols (a uniform subset of
    a uniform subset is uniform).  poisson: N uniform labels."""
    if dist.kind not in FIXED_SIZE_LAWS:
        raise UnsupportedDistributionError(
            f"fixed-size sampling supports {' and '.join(FIXED_SIZE_LAWS)}, not {dist.kind}")
    if dist.kind == "geometric":
        raw = rng.bit_generator.random_raw(-(-2 * N // 64))
        bits = np.unpackbits(raw.view(np.uint8), count=2 * N).view(bool)
        k = np.count_nonzero(bits)
        if k != N:
            bits[rng.choice(np.flatnonzero(bits == (k > N)), abs(k - N), replace=False)] = k < N
        labels = np.flatnonzero(bits)
        labels -= np.arange(N)
    else:
        labels = rng.integers(0, N + 1, size=N)
    return np.bincount(labels, minlength=N + 1)


def sample_fixed_size_conditioned(dist, N: int, n: int, rng):
    """Exact GW tree conditioned on N edges (geometric and poisson only),
    resampled until height >= n, at most DEFAULT_TRIAL_CAP times.  Returns
    (generations 0..n-1 as n arrays of breadth-first child counts, trials);
    the arrays slice one copy of the counts they cover, not all N+1.

    Breadth-first counts form a tree iff the queue of unexplored vertices
    stays non-empty until the last vertex, so the cycle lemma keeps the law
    prod theta(k_v): the steps k - 1 sum to -1, and their one rotation that
    is a tree starts after the first minimum r of their prefix sums s.  Its
    first e vertices have e + s~(r+e) - s[r] children, with s~(i) =
    s[i % (N+1)] - i // (N+1), and generation g is [ends[g], ends[g+1]) with
    ends[g+1] = 1 + the children of the first ends[g] vertices."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    size = N + 1
    for trials in range(1, DEFAULT_TRIAL_CAP + 1):
        steps = _exchangeable_counts(dist, N, rng)
        steps -= 1
        s = np.cumsum(steps)
        r = int(np.argmin(s))
        ends = [0, 1]
        while len(ends) <= n and ends[-1] < size:
            i = r + ends[-1]
            ends.append(1 + ends[-1] + int(s[i % size] - s[r]) - i // size)
        if ends[-1] < size:  # generation n is not empty
            kept = np.take(steps, np.arange(r + 1, r + 1 + ends[n]), mode="wrap") + 1
            return [kept[a:b] for a, b in zip(ends[:n], ends[1:])], trials
    raise TrialCapError(f"no height-{n} fixed-size sample within {DEFAULT_TRIAL_CAP} trials")


# ---------------------------------------------------------------------------
# Reduction and level sets
# ---------------------------------------------------------------------------


def reduce(counts: list, n: int) -> LevelForest:
    """The ancestors of generation n of plane trees given by counts[g], the
    level-major child counts of their generation g < n (the trees joined
    generation by generation), as one LevelForest.  Bottom-up marking:
    generation n is kept whole, a vertex is kept iff it has a kept child, and
    its reduced child count is the number of them.  ValueError unless n >= 1,
    len(counts) == n and every root is kept (every tree reaches depth n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(counts) != n:
        raise ValueError(f"{len(counts)} generations of counts, need n = {n}")
    reduced = [None] * n
    marks = None
    for g in range(n - 1, -1, -1):
        red = counts[g] if marks is None else _segment_sums(marks, counts[g])
        marks = red > 0
        reduced[g] = red[marks]
    if not marks.all():
        raise ValueError(f"a tree does not reach depth {n}")
    return LevelForest(n, reduced)


def level_set(offsets: np.ndarray, k: int) -> np.ndarray:
    """All depth-k vertices, in order, of a tree in breadth-first layout whose
    generation d is vertices [offsets[d], offsets[d+1])."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > offsets.size - 2:  # below the height
        return np.array([], np.int64)
    return np.arange(offsets[k], offsets[k + 1])
