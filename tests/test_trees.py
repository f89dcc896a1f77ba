import itertools
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import oracles as orc
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, ks_2samp

from gwharmonic import network as net
from gwharmonic import offspring as off
from gwharmonic import trees as tr
from gwharmonic.rngs import task_stream


def build(parents):
    """Small-tree helper: BFS parent list -> PlaneTree."""
    parents = np.asarray(parents, np.int64)
    depth = np.zeros(parents.size, np.int64)
    for i in range(1, parents.size):
        depth[i] = depth[parents[i]] + 1
    return orc.tree_from_parent_depth(parents, depth)


def path_tree(n):
    return build([-1] + list(range(n)))


def enumerate_plane_trees(edges):
    """All preorder child-count sequences of plane trees with `edges` edges."""
    out = []

    def rec(seq, open_slots, sum_left):
        if len(seq) == edges + 1:
            if open_slots == 0 and sum_left == 0:
                out.append(tuple(seq))
            return
        if open_slots == 0:
            return
        for k in range(sum_left + 1):
            rec(seq + [k], open_slots - 1 + k, sum_left - k)

    rec([], 1, edges)
    return out


def tree_key(t):
    return tuple(t.parent.tolist())


def assert_same_forest(a, b):
    assert a.n == b.n
    for x, y in zip(a.counts + a.offsets, b.counts + b.offsets, strict=True):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# arena structure
# ---------------------------------------------------------------------------


def test_builder_roundtrip_small():
    t = build([-1, 0, 0, 1, 1, 2])
    orc.validate_tree(t)
    assert orc.node_count(t) == 6 and t.height == 2
    assert list(orc.children(t, 0)) == [1, 2]
    assert list(orc.children(t, 1)) == [3, 4]
    assert list(orc.children(t, 2)) == [5]


def test_generation_counts_builder():
    t = orc.tree_from_generation_counts([np.array([2]), np.array([2, 1])])
    orc.validate_tree(t)
    assert orc.node_count(t) == 6
    assert np.array_equal(t.gen_offsets, [0, 1, 3, 6])


def test_single_root():
    t = orc.tree_from_generation_counts([np.array([0])])
    orc.validate_tree(t)
    assert orc.node_count(t) == 1 and t.height == 0


# ---------------------------------------------------------------------------
# unconditioned sampling
# ---------------------------------------------------------------------------


def test_sample_gw_single_root_frequency():
    # the all-leaves pmf {0:1} is not critical, so the nearest representable
    # check: P(single-root tree) = theta(0) for a law with heavy theta(0)
    dist = off.custom({0: 0.75, 4: 0.25})
    rng = task_stream(1, "trees", 0)
    singles = 0
    for _ in range(2000):
        t = orc.sample_gw(dist, rng, node_cap=10**5)
        if not isinstance(t, orc.CapExceeded):
            orc.validate_tree(t)
            singles += orc.node_count(t) == 1
    assert abs(singles / 2000 - 0.75) < 0.04


def test_sample_gw_p_single_node():
    # P(node_count = 1) = theta(0) = 1/2; only generation 1 matters
    dist = off.geometric()
    rng = task_stream(2, "trees", 1)
    counts_levels, _, _, _ = orc._conditioned_wave(dist, 1, 10**6, rng, 10**7)
    frac = np.mean(counts_levels[0] == 0)
    assert abs(frac - 0.5) < 0.002


def test_sample_gw_height_tail_matches_survival():
    # P(height >= 10) = q_10 = 1/11 for geometric
    dist = off.geometric()
    rng = task_stream(3, "trees", 2)
    _, _, survivors, _ = orc._conditioned_wave(dist, 10, 10**6, rng, 10**7)
    frac = survivors.size / 10**6
    assert abs(frac - 1.0 / 11.0) < 0.001


def test_sample_gw_size_law_catalan():
    # geometric: P(#nodes = N+1) = Catalan(N)/2^(2N+1); trees of <= 7 nodes
    # are fully resolved by generation 7
    dist = off.geometric()
    rng = task_stream(4, "trees", 3)
    trials = 10**6
    counts_levels, labels_levels, _, _ = orc._conditioned_wave(dist, 7, trials, rng, 10**7)
    sizes = np.ones(trials, np.int64)
    for lab, cnt in zip(labels_levels, counts_levels):
        sizes += np.bincount(np.repeat(lab, cnt), minlength=trials)
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for N in range(7):
        p = catalan[N] / 2.0 ** (2 * N + 1)
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(np.mean(sizes == N + 1) - p) < 3.5 * sigma, f"N={N}"


# ---------------------------------------------------------------------------
# height conditioning
# ---------------------------------------------------------------------------


def test_conditioned_height_postcondition():
    dist = off.geometric()
    rng = task_stream(5, "trees", 4)
    for n in (1, 3, 10):
        t = orc.sample_conditioned_height(dist, n, rng, max_gen=n)
        assert t.height >= n


def test_conditioned_mean_trials():
    # expected accepted-trial count 1/q_50 = 51 for geometric
    dist = off.geometric()
    rng = task_stream(6, "trees", 5)
    _, trials, successes = orc.sample_conditioned_batch(dist, 50, 2000, rng)
    assert successes >= 2000
    assert trials / successes == pytest.approx(51.0, abs=2.0)


def test_conditioned_boundary_identity_poisson():
    # E[#T*n_n] = 1/q_n (level-set identity at p=0)
    dist = off.poisson()
    rng = task_stream(7, "trees", 6)
    n = 100
    reds = orc.views(orc.direct_forest(dist, n, 2000, rng))
    sizes = np.array([r.boundary.size for r in reds], float)
    qn = off.survival_probs(dist, n)[n]
    z = (sizes.mean() - 1.0 / qn) / (sizes.std(ddof=1) / np.sqrt(sizes.size))
    assert abs(z) < 3.5


@pytest.mark.parametrize("n,p", [(50, 10), (100, 25)])
def test_levelset_identity(n, p):
    # E[#T*n_{n-p}] = q_p/q_n
    dist = off.geometric()
    rng = task_stream(8, "trees", 100 + n + p)
    reds = orc.views(orc.direct_forest(dist, n, 3000, rng))
    sizes = np.array([tr.level_set(r.tree.gen_offsets, n - p).size for r in reds], float)
    q = off.survival_probs(dist, n)
    expect = q[p] / q[n]
    z = (sizes.mean() - expect) / (sizes.std(ddof=1) / np.sqrt(sizes.size))
    assert abs(z) < 3.5


def test_reduced_batch_equals_two_step():
    dist = off.geometric()
    rng1 = task_stream(9, "trees", 7)
    rng2 = task_stream(9, "trees", 7)
    full, _, _ = orc.sample_conditioned_batch(dist, 6, 50, rng1)
    fused, _, _ = orc.sample_conditioned_batch(dist, 6, 50, rng2, reduce_at_n=True)
    for t, r in zip(full, fused):
        r2 = orc.views(tr.reduce(generations(t, 6), 6))[0]
        assert tree_key(r2.tree) == tree_key(r.tree)
        assert np.array_equal(r2.boundary, r.boundary)
        orc.validate_reduced(r)


def test_reduced_child_cdf_matches_the_binomial_sum():
    # P(J = j) = sum_k theta(k) C(k, j) q^j (1-q)^(k-j) / q_{n-g}, q = q_{n-g-1}
    n = 9
    for dist in (off.geometric(), off.poisson(), off.binary(), off.pary(3)):
        q = off.survival_probs(dist, n)
        cdf = tr.reduced_child_cdf(dist, n)
        kmax = dist.pmf.size - 1
        assert cdf.shape == (n, kmax)
        for g in range(n):
            s = q[n - g - 1]
            pj = [sum(dist.pmf[k] * math.comb(k, j) * s**j * (1 - s) ** (k - j)
                      for k in range(j, kmax + 1)) / q[n - g]
                  for j in range(1, kmax + 1)]
            assert np.max(np.abs(cdf[g] - np.cumsum(pj))) < 1e-13
        # the last generation keeps every child: K given K >= 1
        top = dist.pmf[1:] / (1.0 - dist.pmf[0])
        assert np.allclose(cdf[-1], np.cumsum(top), rtol=0, atol=1e-14)


@pytest.mark.parametrize("spec", ["geometric", "poisson", "binary", "pary:3", "strict-pary:3",
                                  "custom"])
def test_reduced_child_cdf_rows_are_shared_along_a_ladder(spec, tmp_path):
    # row g reads q_{n-g-1} alone, so the last n rows of the height-200 table
    # are the height-n table bit for bit: theorem1 and conductance build one
    # table per ladder and levelset one per n
    if spec == "custom":
        path = tmp_path / "pmf.txt"
        path.write_text("0 0.4\n1 0.4\n3 0.2\n")
        spec = f"custom:{path}"
    dist = off.from_spec(spec)
    table = tr.reduced_child_cdf(dist, 200)
    for n in (1, 2, 7, 25, 50, 100, 199, 200):
        assert np.array_equal(table[-n:], tr.reduced_child_cdf(dist, n))


@given(st.sampled_from(["geometric", "poisson", "binary"]), st.integers(1, 15),
       st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_direct_forest_is_reduced(law, n, seed):
    forest = orc.direct_forest(off.from_spec(law), n, 7, task_stream(seed, "trees", 19))
    assert forest.size == 7 and all(np.all(c >= 1) for c in forest.counts)
    for r in orc.views(forest):
        orc.validate_reduced(r)


def _two_sample_stats(forest):
    """n C_n and the generation-n//2 size of every tree of a forest."""
    n = forest.n
    return n * net.forest_conductance_to_level(forest), forest.level_sizes(n // 2)


# Trees a side per n.  The planted fault's KS distance shrinks like 1/n, and
# at n = 25 with 4,000 trees it sat near the 1e-3 gate (one stream read
# p = 0.012, a scaled KS distance of 1.6 against the gate's 1.95).  That
# distance grows as sqrt(trees), so 16,000 trees double it to about 3.2
# (p near 3e-9).
_TREES = {12: 4000, 25: 16000}


@lru_cache(maxsize=None)
def _oracle_stats(law, n):
    rng = task_stream(21, "trees", 1000 + n)
    forest = orc.sample_conditioned_forest(off.from_spec(law), n, _TREES[n], rng)[0]
    return _two_sample_stats(forest)


def _ks_pvalues(law, n):
    """KS p-values of the direct sampler against the rejection oracle,
    _TREES[n] trees a side, on n C_n and on the generation-n//2 sizes."""
    mine = _two_sample_stats(
        orc.direct_forest(off.from_spec(law), n, _TREES[n], task_stream(22, "trees", n)))
    return [ks_2samp(a, b).pvalue for a, b in zip(mine, _oracle_stats(law, n))]


@pytest.mark.parametrize("law", ["geometric", "poisson"])
@pytest.mark.parametrize("n", [12, 25])
def test_direct_sampler_matches_rejection_oracle(law, n):
    assert min(_ks_pvalues(law, n)) > 1e-3


@pytest.mark.parametrize("law", ["geometric", "poisson"])
@pytest.mark.parametrize("n", [12, 25])
def test_two_sample_test_fails_on_a_planted_fault(law, n, monkeypatch):
    # the fault thins by q_{n-g}/q_{n-g-1} - 1 ~ -1/(n-g) too much, so its
    # signal shrinks with n: every cell fails the 1e-3 gate, n=12 by far
    monkeypatch.setattr(tr, "reduced_child_cdf", orc.faulty_child_cdf)
    assert min(_ks_pvalues(law, n)) < (1e-6 if n == 12 else 1e-3)


def test_trial_cap_raises():
    dist = off.geometric()
    rng = task_stream(10, "trees", 8)
    with pytest.raises(tr.TrialCapError):
        orc.sample_conditioned_batch(dist, 400, 5, rng, trial_cap=100)


# ---------------------------------------------------------------------------
# fixed-size sampling
# ---------------------------------------------------------------------------


def bfs_tree(counts):
    """The PlaneTree with breadth-first child counts `counts`."""
    return build(np.concatenate(([-1], np.repeat(np.arange(len(counts)), counts))))


def generations(t, n):
    """A PlaneTree as trees.reduce takes it: the child counts of its
    generations 0..n-1, one array each (empty beyond its height)."""
    gens = np.split(t.child_count, t.gen_offsets[1:-1])
    return (gens + [np.zeros(0, np.int64)] * n)[:n]


def joined(*trees):
    """The generations of several trees joined generation by generation:
    the level-major counts of the trees as one batch."""
    return [np.concatenate(g) for g in zip(*trees)]


def tree_counts(counts):
    """Child counts made a tree's: add or drop leaves until they sum to
    their number less one, then rotate to the valid order."""
    excess = len(counts) - 1 - sum(counts)
    for _ in range(excess):
        counts.remove(0)
    ks = np.array(counts + [0] * max(0, -excess), np.int64)
    return orc.cycle_rotation(ks)


TREE_COUNTS = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=80)


def test_fixed_size_edge_count():
    # breadth-first child counts of a plane tree: N+1 of them, and the queue
    # of unexplored vertices empties at the last vertex and not before
    rng = task_stream(11, "trees", 9)
    for dist in (off.geometric(), off.poisson()):
        for N in (1, 2, 7, 40):
            c = orc.fixed_size_tree(dist, N, rng)
            s = np.cumsum(c - 1)
            assert c.size == N + 1 and s[-1] == -1 and np.all(s[:-1] >= 0)


def test_fixed_size_unsupported():
    rng = task_stream(12, "trees", 10)
    with pytest.raises(tr.UnsupportedDistributionError):
        tr.sample_fixed_size_conditioned(off.binary(), 4, 1, rng)


def test_fixed_size_geometric_n2_uniform():
    rng = task_stream(13, "trees", 11)
    dist = off.geometric()
    keys = [tuple(orc.fixed_size_tree(dist, 2, rng).tolist()) for _ in range(10**5)]
    path, cherry = (1, 1, 0), (2, 0, 0)  # breadth-first child counts
    freq_path = np.mean([k == path for k in keys])
    freq_cherry = np.mean([k == cherry for k in keys])
    assert abs(freq_path - 0.5) < 0.01
    assert abs(freq_cherry - 0.5) < 0.01


def test_fixed_size_geometric_n3_uniform():
    rng = task_stream(14, "trees", 12)
    dist = off.geometric()
    shapes = enumerate_plane_trees(3)  # depth-first counts; breadth-first is the same set
    assert len(shapes) == 5
    draws = {}
    trials = 10**5
    for _ in range(trials):
        k = tuple(orc.fixed_size_tree(dist, 3, rng).tolist())
        draws[k] = draws.get(k, 0) + 1
    assert set(draws) == set(shapes)
    for k in shapes:
        assert abs(draws[k] / trials - 0.2) < 0.01


# prod theta(k_v) over a tree with N edges, up to a factor of N alone:
# 2^{-2N-1} (geometric) and e^{-N-1} prod 1/k_v! (poisson)
LAW_WEIGHT = {"geometric": lambda k: 1.0, "poisson": lambda k: 1.0 / math.factorial(k)}


def fixed_size_law_pvalue(law, draws, seed, sample=orc.fixed_size_tree):
    """Pearson chi-square of `draws` fixed-size trees at each N = 1..7
    against the exact law over every plane tree, pooled over N into one
    statistic; per N, the cells expected below 5 are merged into one.  A
    draw that is not a plane tree with N edges has probability 0 (p = 0)."""
    dist, rng = off.from_spec(law), task_stream(seed, "trees", 40)
    stat = dof = 0
    for N in range(1, 8):
        seqs = enumerate_plane_trees(N)  # depth-first counts; breadth-first is the same set
        cell = {s: i for i, s in enumerate(seqs)}
        obs = np.zeros(len(seqs))
        for _ in range(draws):
            i = cell.get(tuple(sample(dist, N, rng).tolist()))
            if i is None:
                return 0.0
            obs[i] += 1
        w = np.array([math.prod(map(LAW_WEIGHT[law], s)) for s in seqs])
        exp = draws * w / w.sum()
        small = exp < 5
        if small.any():
            obs = np.append(obs[~small], obs[small].sum())
            exp = np.append(exp[~small], exp[small].sum())
        stat += np.sum((obs - exp) ** 2 / exp)
        dof += obs.size - 1
    return chi2.sf(stat, dof)


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_fixed_size_law_is_exact(law):
    # geometric: uniform over the Catalan(N) plane trees; poisson: in
    # proportion to prod 1/k_v!; 618 and 451 degrees of freedom
    assert fixed_size_law_pvalue(law, 3000, 21) > 1e-3


class _FirstChoice:
    """An rng whose choice without replacement takes the first items."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator

    def choice(self, a, size, replace):
        assert not replace
        return a[:size]


def _counts_without_the_trailing_run(dist, N, rng):
    """The geometric counts as the runs of ones before each zero of 2N+1
    fair bits with N ones: the run after the last zero is lost."""
    raw = rng.bit_generator.random_raw(-(-(2 * N + 1) // 64))
    bits = np.unpackbits(raw.view(np.uint8), count=2 * N + 1).view(bool)
    k = np.count_nonzero(bits)
    if k != N:
        bits[rng.choice(np.flatnonzero(bits == (k > N)), abs(k - N), replace=False)] = k < N
    return np.diff(np.flatnonzero(~bits), prepend=-1) - 1


@pytest.mark.parametrize("fault", ["first-majority-positions", "trailing-run-dropped"])
def test_law_test_fails_on_a_planted_fault(fault, monkeypatch):
    sample = orc.fixed_size_tree
    if fault == "first-majority-positions":
        # flip the first |k-N| majority positions, not a uniform subset
        def sample(dist, N, rng):
            return orc.fixed_size_tree(dist, N, _FirstChoice(rng))
    else:
        monkeypatch.setattr(tr, "_exchangeable_counts", _counts_without_the_trailing_run)
    assert fixed_size_law_pvalue("geometric", 3000, 21, sample) < 1e-3


def preorder_degrees_oracle(ks):
    """Per-vertex stack decoder: the reference for `depths_from_preorder_degrees`."""
    v = ks.size
    depth = np.zeros(v, np.int64)
    stack = [[0, int(ks[0])]]
    for j in range(1, v):
        while stack[-1][1] == 0:
            stack.pop()
        p = stack[-1][0]
        stack[-1][1] -= 1
        depth[j] = depth[p] + 1
        stack.append([j, int(ks[j])])
    return depth


@given(TREE_COUNTS)
@settings(max_examples=200, deadline=None)
def test_preorder_decoder_matches_stack_oracle(counts):
    ks = tree_counts(counts)
    assert np.array_equal(orc.depths_from_preorder_degrees(ks), preorder_degrees_oracle(ks))


@given(st.lists(TREE_COUNTS.map(tree_counts), min_size=1, max_size=4))
@example([np.array([1, 0])])
@example([np.array([1, 1, 0]), np.array([2, 0, 0])])
@example([np.array([1] * 60 + [0])])
@settings(max_examples=150, deadline=None)
def test_reduce_matches_the_preorder_path(forest):
    # breadth-first slices against the preorder depths of the same trees,
    # reduced by one sort for every parent and by its per-depth loop, bit
    # for bit: each tree alone and all of them back to back (N=1, both N=2
    # trees, a path)
    trees = [bfs_tree(c) for c in forest]
    h = min(t.height for t in trees)
    assume(h >= 1)
    depths = [orc.preorder_depths(t) for t in trees]
    for n in {1, (h + 1) // 2, h}:
        for t, d in zip(trees, depths):
            one = tr.reduce(generations(t, n), n)
            assert_same_forest(one, orc.reduce_preorder(d, n))
            orc.validate_reduced(orc.views(one)[0])
        whole = tr.reduce(joined(*(generations(t, n) for t in trees)), n)
        assert_same_forest(whole, orc.reduce_preorder(np.concatenate(depths), n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "parents_from_preorder_depths", orc.parents_from_preorder_depths_loop)
            assert_same_forest(whole, orc.reduce_preorder(np.concatenate(depths), n))


@given(st.lists(st.tuples(st.sampled_from(["geometric", "poisson"]), st.integers(1, 60)),
                min_size=1, max_size=4),
       st.integers(0, 2**31 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_of_a_forest_is_its_trees_reductions(laws_and_sizes, seed, data):
    # k trees back to back reduce to the k one-tree reductions, level by
    # level, with each tree's block after the blocks of the trees before it
    rng = task_stream(seed, "trees", 23)
    trees = [bfs_tree(orc.fixed_size_tree(off.from_spec(law), N, rng))
             for law, N in laws_and_sizes]
    n = data.draw(st.integers(1, min(t.height for t in trees)))
    ones = [tr.reduce(generations(t, n), n) for t in trees]
    whole = tr.reduce(joined(*(generations(t, n) for t in trees)), n)
    assert_same_forest(whole, orc._concat_forests(ones, n))
    for g in range(n + 1):  # the derived offsets against each tree's own levels
        sizes = [f.offsets[g][-1] for f in ones]
        assert whole.offsets[g].tolist() == np.cumsum([0] + sizes).tolist()


def test_fixed_size_conditioned_height():
    # generations 0..19 of a tree with 100 edges, each the children of the
    # one before, sliced from one copy of the counts they cover: the queue
    # of unexplored vertices never empties, and what is left in it is
    # generation 20; at n=20 (near the mean height) some trials are rejected
    rng = task_stream(16, "trees", 14)
    for dist in (off.geometric(), off.poisson()):
        total = 0
        for _ in range(20):
            gens, trials = tr.sample_fixed_size_conditioned(dist, 100, 20, rng)
            c = np.concatenate(gens)
            assert len(gens) == 20 and gens[0].size == 1
            assert [g.size for g in gens[1:]] == [g.sum() for g in gens[:-1]]
            assert all(g.base is gens[0].base and g.base.size == c.size for g in gens)
            assert c.size <= 100 and np.all(np.cumsum(c - 1) >= 0)
            assert tr.reduce(gens, 20).size == 1
            total += trials
        assert total > 20


def conditioned_oracle(dist, N, n, rng):
    """sample_fixed_size_conditioned by its definition: whole trees from the
    oracle, cut into their PlaneTree generations, until one has height >= n."""
    for trials in itertools.count(1):
        t = bfs_tree(orc.fixed_size_tree(dist, N, rng))
        if t.height >= n:
            return generations(t, n), trials


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_fixed_size_sampler_matches_the_whole_tree_oracle(law, monkeypatch):
    # the sampler rotates only the prefix it keeps and walks the generations
    # on the unrotated prefix sums; on replayed streams it returns the
    # oracle's generations and trial counts bit for bit.  The cells hold
    # kept prefixes that wrap past the last count and rejected trees.
    dist, real, drawn = off.from_spec(law), tr._exchangeable_counts, []

    def recorded(*args):
        drawn.append(real(*args))
        return drawn[-1]

    wrapped = rejected = 0
    for N, n in [(1, 1), (2, 1), (2, 2), (7, 3), (50, 6), (400, 12), (10000, 40)]:
        fast, slow = task_stream(N, "trees", 25), task_stream(N, "trees", 25)
        for _ in range(8):
            gens, trials = tr.sample_fixed_size_conditioned(dist, N, n, fast)
            with monkeypatch.context() as mp:
                mp.setattr(tr, "_exchangeable_counts", recorded)
                want, want_trials = conditioned_oracle(dist, N, n, slow)
            assert trials == want_trials
            for g, w in zip(gens, want, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            rejected += trials - 1
            r = int(np.argmin(np.cumsum(drawn[-1] - 1)))
            wrapped += r + 1 + sum(map(len, gens)) > N + 1
    assert rejected > 0 and wrapped > 0


def test_fixed_size_sampler_rejects_empty_trees_and_levels():
    rng = task_stream(16, "trees", 27)
    for N, n in [(0, 1), (-4, 1), (5, 0), (5, -5)]:
        with pytest.raises(ValueError, match="must be >= 1"):
            tr.sample_fixed_size_conditioned(off.geometric(), N, n, rng)


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_fixed_size_trial_holds_two_full_length_arrays(law):
    # a trial's labels, counts, steps (the counts in place) and their one
    # prefix sum: at most two arrays of N+1 int64 live at once, and only
    # the kept prefix is rotated
    dist, N = off.from_spec(law), 2**16
    rng = task_stream(17, "trees", 26)
    tracemalloc.start()
    try:
        tr.sample_fixed_size_conditioned(dist, N, 8, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * (N + 1)


# ---------------------------------------------------------------------------
# reduce / level_set
# ---------------------------------------------------------------------------


def test_reduce_path_is_identity():
    t = path_tree(5)
    r = orc.views(tr.reduce(generations(t, 5), 5))[0]
    assert tree_key(r.tree) == tree_key(t)
    assert r.boundary.tolist() == [5]


def test_reduce_prunes_dead_branch():
    # root with a leaf child and a path to depth 3 -> single path
    t = build([-1, 0, 0, 2, 3])
    r = orc.views(tr.reduce(generations(t, 3), 3))[0]
    assert tree_key(r.tree) == tree_key(path_tree(3))


def test_reduce_no_survivor():
    short, tall = generations(path_tree(3), 7), generations(path_tree(7), 7)
    with pytest.raises(ValueError, match="depth 7"):
        tr.reduce(short, 7)
    # a batch in which only one tree falls short: first, in the middle, last
    for batch in ((short, tall), (tall, short, tall), (tall, short)):
        with pytest.raises(ValueError, match="depth 7"):
            tr.reduce(joined(*batch), 7)
    assert tr.reduce(joined(tall, tall), 7).size == 2
    # one generation too few or too many, and no generation at all
    for gens, n in ((tall[:6], 7), (tall, 6)):
        with pytest.raises(ValueError, match="generations of counts"):
            tr.reduce(gens, n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        tr.reduce([], 0)


def test_reduce_idempotent_on_samples():
    dist = off.poisson()
    rng = task_stream(17, "trees", 15)
    trees, _, _ = orc.sample_conditioned_batch(dist, 8, 40, rng)
    for t in trees:
        r = orc.views(tr.reduce(generations(t, 8), 8))[0]
        r2 = orc.views(tr.reduce(generations(r.tree, 8), 8))[0]
        assert tree_key(r.tree) == tree_key(r2.tree)
        orc.validate_reduced(r)


def test_level_set_basics():
    t = build([-1, 0, 0, 1, 1, 2])
    assert tr.level_set(t.gen_offsets, 0).tolist() == [0]
    assert tr.level_set(t.gen_offsets, 1).tolist() == [1, 2]
    assert tr.level_set(t.gen_offsets, 2).tolist() == [3, 4, 5]
    assert tr.level_set(t.gen_offsets, 9).size == 0
    assert tr.level_set(path_tree(4).gen_offsets, 2).size == 1
    with pytest.raises(ValueError, match="k must be >= 0"):
        tr.level_set(t.gen_offsets, -1)


def test_boundary_equals_level_set():
    dist = off.geometric()
    rng = task_stream(18, "trees", 16)
    reds = orc.views(orc.direct_forest(dist, 10, 20, rng))
    for r in reds:
        assert np.array_equal(r.boundary, tr.level_set(r.tree.gen_offsets, 10))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_conditioned_sample_properties(n, seed):
    dist = off.geometric()
    rng = task_stream(seed, "trees", 18)
    t = orc.sample_conditioned_height(dist, n, rng, max_gen=n)
    orc.validate_tree(t)
    assert t.height == n  # chopped at n, so exactly n
    r = orc.views(tr.reduce(generations(t, n), n))[0]
    orc.validate_reduced(r)
    assert r.boundary.size == tr.level_set(t.gen_offsets, n).size
