import math
from functools import lru_cache

import numpy as np
import oracles as orc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

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


def depths_key(seq):
    """The preorder depths of the tree with preorder child counts `seq`."""
    return tuple(tr.depths_from_preorder_degrees(np.array(seq, np.int64)).tolist())


def assert_same_forest(a, b):
    assert a.n == b.n
    for x, y in zip(a.counts + a.tree_index, b.counts + b.tree_index, strict=True):
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
    reds = orc.views(tr.sample_conditioned_forest(dist, n, 2000, rng))
    sizes = np.array([r.boundary.size for r in reds], float)
    qn = off.survival_probs(dist, n)[n]
    z = (sizes.mean() - 1.0 / qn) / (sizes.std(ddof=1) / np.sqrt(sizes.size))
    assert abs(z) < 3.5


@pytest.mark.parametrize("n,p", [(50, 10), (100, 25)])
def test_levelset_identity(n, p):
    # E[#T*n_{n-p}] = q_p/q_n
    dist = off.geometric()
    rng = task_stream(8, "trees", 100 + n + p)
    reds = orc.views(tr.sample_conditioned_forest(dist, n, 3000, rng))
    sizes = np.array([tr.level_set(r.tree, n - p).size for r in reds], float)
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
        r2 = orc.views(tr.reduce(orc.preorder_depths(t), 6))[0]
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


@given(st.sampled_from(["geometric", "poisson", "binary"]), st.integers(1, 15),
       st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_direct_forest_is_reduced(law, n, seed):
    forest = tr.sample_conditioned_forest(off.from_spec(law), n, 7, task_stream(seed, "trees", 19))
    assert forest.size == 7 and all(np.all(c >= 1) for c in forest.counts)
    for r in orc.views(forest):
        orc.validate_reduced(r)


def test_sample_conditioned_forest_rejects_bad_sizes():
    rng = task_stream(20, "trees", 20)
    with pytest.raises(ValueError):
        tr.sample_conditioned_forest(off.geometric(), 0, 5, rng)
    with pytest.raises(ValueError):
        tr.sample_conditioned_forest(off.geometric(), 5, 0, rng)


def _two_sample_stats(forest):
    """n C_n and the generation-n//2 size of every tree of a forest."""
    n = forest.n
    return n * net.forest_conductance_to_level(forest), forest.level_sizes(n // 2)


@lru_cache(maxsize=None)
def _oracle_stats(law, n):
    rng = task_stream(21, "trees", 1000 + n)
    return _two_sample_stats(orc.sample_conditioned_forest(off.from_spec(law), n, 4000, rng)[0])


def _ks_pvalues(law, n):
    """KS p-values of the direct sampler against the rejection oracle, 4,000
    trees a side, on n C_n and on the generation-n//2 sizes."""
    mine = _two_sample_stats(
        tr.sample_conditioned_forest(off.from_spec(law), n, 4000, task_stream(22, "trees", n)))
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


def test_fixed_size_edge_count():
    # preorder depths of a plane tree: one root, then each vertex at most one
    # deeper than the vertex before it
    rng = task_stream(11, "trees", 9)
    for dist in (off.geometric(), off.poisson()):
        for N in (1, 2, 7, 40):
            d = tr.sample_fixed_size(dist, N, rng)
            assert d.size == N + 1 and d[0] == 0
            assert np.all(d[1:] >= 1) and np.all(np.diff(d) <= 1)


def test_fixed_size_unsupported():
    rng = task_stream(12, "trees", 10)
    with pytest.raises(tr.UnsupportedDistributionError):
        tr.sample_fixed_size(off.binary(), 4, rng)


def test_fixed_size_geometric_n2_uniform():
    rng = task_stream(13, "trees", 11)
    dist = off.geometric()
    keys = [tuple(tr.sample_fixed_size(dist, 2, rng).tolist()) for _ in range(10**5)]
    path, cherry = (0, 1, 2), (0, 1, 1)  # preorder depths
    freq_path = np.mean([k == path for k in keys])
    freq_cherry = np.mean([k == cherry for k in keys])
    assert abs(freq_path - 0.5) < 0.01
    assert abs(freq_cherry - 0.5) < 0.01


def test_fixed_size_geometric_n3_uniform():
    rng = task_stream(14, "trees", 12)
    dist = off.geometric()
    shapes = [depths_key(s) for s in enumerate_plane_trees(3)]
    assert len(shapes) == 5
    draws = {}
    trials = 10**5
    for _ in range(trials):
        k = tuple(tr.sample_fixed_size(dist, 3, rng).tolist())
        draws[k] = draws.get(k, 0) + 1
    assert set(draws) == set(shapes)
    for k in shapes:
        assert abs(draws[k] / trials - 0.2) < 0.01


def test_fixed_size_poisson_n3_matches_enumeration():
    # conditioned law weights each tree by prod 1/k_v!
    import math

    rng = task_stream(15, "trees", 13)
    dist = off.poisson()
    seqs = enumerate_plane_trees(3)
    weights = np.array([np.prod([1.0 / math.factorial(k) for k in s]) for s in seqs])
    probs = weights / weights.sum()
    exact = {depths_key(s): p for s, p in zip(seqs, probs)}
    trials = 10**5
    draws = {}
    for _ in range(trials):
        k = tuple(tr.sample_fixed_size(dist, 3, rng).tolist())
        draws[k] = draws.get(k, 0) + 1
    tv = 0.5 * sum(abs(draws.get(k, 0) / trials - p) for k, p in exact.items())
    assert tv < 0.01


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


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_preorder_decoder_matches_stack_oracle(counts):
    # add or drop leaves until sum(ks) = len(ks) - 1, then rotate to a valid walk
    excess = len(counts) - 1 - sum(counts)
    for _ in range(excess):
        counts.remove(0)
    ks = np.array(counts + [0] * max(0, -excess), np.int64)
    ks = tr._first_passage_rotation(ks - 1) + 1
    assert np.array_equal(tr.depths_from_preorder_degrees(ks), preorder_degrees_oracle(ks))


class _GivenWalk:
    """An rng whose permutation is the given step sequence: feeds
    sample_fixed_size one chosen walk."""

    def __init__(self, steps):
        self.steps = np.array(steps, np.int64)

    def permutation(self, x):
        assert sorted(self.steps.tolist()) == sorted(x.tolist())
        return self.steps


@given(st.integers(1, 300).flatmap(lambda n: st.permutations([1] * n + [-1] * (n + 1))))
@example([1, -1, -1])
@example([1, 1, -1, -1, -1])
@example([1, -1, 1, -1, -1])
@example([1] * 60 + [-1] * 61)
@settings(max_examples=150, deadline=None)
def test_geometric_decode_matches_the_loop_oracle(steps):
    # one sort for every parent against the per-depth loop, through the
    # geometric decode and reduce, bit for bit (N=1, both N=2 trees, a path)
    dist, n_edges = off.geometric(), (len(steps) - 1) // 2
    d = tr.sample_fixed_size(dist, n_edges, _GivenWalk(steps))
    h = int(d.max())
    for n in {1, (h + 1) // 2, h}:
        forest = tr.reduce(d, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_parents_from_preorder_depths", orc.parents_from_preorder_depths)
            assert_same_forest(forest, tr.reduce(d, n))
        orc.validate_reduced(orc.views(forest)[0])


@given(st.lists(st.tuples(st.sampled_from(["geometric", "poisson"]), st.integers(1, 60)),
                min_size=1, max_size=4),
       st.integers(0, 2**31 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_of_a_forest_is_its_trees_reductions(laws_and_sizes, seed, data):
    # k walks back to back reduce to the k one-tree reductions, level by
    # level, with each tree index shifted by the tree's position
    rng = task_stream(seed, "trees", 23)
    walks = [tr.sample_fixed_size(off.from_spec(law), N, rng) for law, N in laws_and_sizes]
    n = data.draw(st.integers(1, min(int(w.max()) for w in walks)))
    ones = [tr.reduce(w, n) for w in walks]
    assert_same_forest(tr.reduce(np.concatenate(walks), n), orc._concat_forests(ones, n))


def test_fixed_size_conditioned_height():
    rng = task_stream(16, "trees", 14)
    d, trials = tr.sample_fixed_size_conditioned(off.geometric(), 100, 15, rng)
    assert d.max() >= 15 and d.size == 101 and trials >= 1


# ---------------------------------------------------------------------------
# reduce / level_set
# ---------------------------------------------------------------------------


def test_reduce_path_is_identity():
    t = path_tree(5)
    r = orc.views(tr.reduce(orc.preorder_depths(t), 5))[0]
    assert tree_key(r.tree) == tree_key(t)
    assert r.boundary.tolist() == [5]


def test_reduce_prunes_dead_branch():
    # root with a leaf child and a path to depth 3 -> single path
    t = build([-1, 0, 0, 2, 3])
    r = orc.views(tr.reduce(orc.preorder_depths(t), 3))[0]
    assert tree_key(r.tree) == tree_key(path_tree(3))


def test_reduce_no_survivor():
    short, tall = orc.preorder_depths(path_tree(3)), orc.preorder_depths(path_tree(7))
    with pytest.raises(ValueError, match="depth 7"):
        tr.reduce(short, 7)
    # a forest in which only one tree falls short, first or last
    for forest in ((short, tall), (tall, short)):
        with pytest.raises(ValueError, match="depth 7"):
            tr.reduce(np.concatenate(forest), 7)
    assert tr.reduce(np.concatenate((tall, tall)), 7).size == 2


def test_reduce_idempotent_on_samples():
    dist = off.poisson()
    rng = task_stream(17, "trees", 15)
    trees, _, _ = orc.sample_conditioned_batch(dist, 8, 40, rng)
    for t in trees:
        r = orc.views(tr.reduce(orc.preorder_depths(t), 8))[0]
        r2 = orc.views(tr.reduce(orc.preorder_depths(r.tree), 8))[0]
        assert tree_key(r.tree) == tree_key(r2.tree)
        orc.validate_reduced(r)


def test_level_set_basics():
    t = build([-1, 0, 0, 1, 1, 2])
    assert tr.level_set(t, 0).tolist() == [0]
    assert tr.level_set(t, 1).tolist() == [1, 2]
    assert tr.level_set(t, 2).tolist() == [3, 4, 5]
    assert tr.level_set(t, 9).size == 0
    assert tr.level_set(path_tree(4), 2).size == 1


def test_boundary_equals_level_set():
    dist = off.geometric()
    rng = task_stream(18, "trees", 16)
    reds = orc.views(tr.sample_conditioned_forest(dist, 10, 20, rng))
    for r in reds:
        assert np.array_equal(r.boundary, tr.level_set(r.tree, 10))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_conditioned_sample_properties(n, seed):
    dist = off.geometric()
    rng = task_stream(seed, "trees", 18)
    t = orc.sample_conditioned_height(dist, n, rng, max_gen=n)
    orc.validate_tree(t)
    assert t.height == n  # chopped at n, so exactly n
    r = orc.views(tr.reduce(orc.preorder_depths(t), n))[0]
    orc.validate_reduced(r)
    assert r.boundary.size == tr.level_set(t, n).size
