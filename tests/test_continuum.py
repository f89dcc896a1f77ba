import numpy as np
import pytest

from gwharmonic import continuum as co
from gwharmonic import rde
from gwharmonic.cli import EPS_LADDER_DEFAULT
from gwharmonic.rngs import task_stream


def manual_tree(eps, levels):
    """Build a one-tree DeltaBatch from per-level (lo, y, closure-or-None) rows."""
    def col(i):
        return [np.array([r[i] for r in rows], float) for rows in levels]

    lo, y = col(0), col(1)
    leaf = [np.array([r[2] is not None for r in rows]) for rows in levels]
    closure = [np.array([r[2] for r in rows if r[2] is not None], float) for rows in levels]
    for g in range(len(levels) - 1):
        assert lo[g + 1].size == 2 * np.sum(~leaf[g])
    return co.DeltaBatch(eps, lo, y, leaf, closure)


def leaf_count(batch):
    return sum(int(lf.sum()) for lf in batch.leaf)


def leftmost_ray_branches(batch):
    """Branch points on the all-left ray: vertex 0 of each level lies on it."""
    return next(g for g, lf in enumerate(batch.leaf) if lf[0])


def root_side(batch, level, pos):
    """Which root child (0 left, 1 right) is the ancestor of (level, pos)."""
    while level > 1:
        pos = int(np.flatnonzero(~batch.leaf[level - 1])[pos // 2])
        level -= 1
    return pos


def test_sample_delta_structure(solved_cloud):
    rng = task_stream(1, "continuum", 1)
    b = co.sample_delta(1 / 8, solved_cloud, rng)
    eps = b.eps
    assert b.n_trees == 1 and b.lo[0].tolist() == [0.0]
    assert b.node_count == sum(lo.size for lo in b.lo) > 1
    for g in range(len(b.lo)):
        # heights strictly increase along every parent-child segment
        assert np.all(b.y[g] > b.lo[g])
        # leaves are exactly the segments crossing 1-eps
        assert np.array_equal(b.leaf[g], b.y[g] >= 1 - eps)
        # one closure per leaf; closure conductance C*/eps >= 1/eps since the
        # cloud support is [1, inf)
        assert b.closure[g].size == b.leaf[g].sum()
        assert np.all(b.closure[g] >= 1.0)
    # each internal vertex has two children, which start at its branch height
    for g in range(len(b.lo) - 1):
        assert np.array_equal(b.lo[g + 1], np.repeat(b.y[g][~b.leaf[g]], 2))
    assert np.all(b.leaf[-1])


def test_sample_delta_eps_domain(solved_cloud):
    rng = task_stream(2, "continuum", 2)
    for bad in (0.0, 0.5, 0.9):
        with pytest.raises(ValueError):
            co.sample_delta(bad, solved_cloud, rng)


def test_leaf_count_mean(solved_cloud):
    # E[#leaves] = 1/eps
    rng = task_stream(3, "continuum", 3)
    eps = 1 / 16
    counts = []
    for batch in co._batches(eps, solved_cloud, 10**4, rng):
        tree = np.arange(batch.n_trees)
        per_tree = np.zeros(batch.n_trees, np.int64)
        for leaf in batch.leaf:
            per_tree += np.bincount(tree[leaf], minlength=batch.n_trees)
            tree = np.repeat(tree[~leaf], 2)
        counts.append(per_tree)
    counts = np.concatenate(counts)
    assert counts.mean() == pytest.approx(16.0, abs=0.5)


def test_leaf_count_halves_when_eps_doubles(solved_cloud):
    rng = task_stream(4, "continuum", 4)
    means = {}
    for eps in (1 / 8, 1 / 16):
        c = [leaf_count(co.sample_delta(eps, solved_cloud, rng)) for _ in range(3000)]
        means[eps] = np.mean(c)
    assert means[1 / 16] / means[1 / 8] == pytest.approx(2.0, abs=0.15)


def test_leftmost_ray_branch_count(solved_cloud):
    # in log coordinates, ray spacings are Exp(1): mean branches = -log eps
    rng = task_stream(5, "continuum", 5)
    eps = 2.0**-8
    n = [leftmost_ray_branches(co.sample_delta(eps, solved_cloud, rng)) for _ in range(4000)]
    assert np.mean(n) == pytest.approx(-np.log(eps), rel=0.1)


def test_single_segment_series_formula():
    eps = 0.25
    big = 1e12
    t = manual_tree(eps, [[(0.0, 0.9, big)]])
    # series resistance (1-eps) + eps/C*; infinite closure leaves 1/(1-eps)
    assert co.delta_conductance(t) == pytest.approx(1.0 / (1.0 - eps), rel=1e-9)
    t2 = manual_tree(eps, [[(0.0, 0.9, 2.0)]])
    assert co.delta_conductance(t2) == pytest.approx(1.0 / ((1 - eps) + eps / 2.0))


def test_conductance_matches_g_map_algebra():
    # two-leaf tree: C = 1/(y + 1/(A1+A2)) with Ai the child conductances
    eps = 0.125
    y0 = 0.4
    t = manual_tree(eps, [[(0.0, y0, None)], [(y0, 0.95, 3.0), (y0, 0.91, 1.5)]])
    a1 = 1.0 / ((1 - eps - y0) + eps / 3.0)
    a2 = 1.0 / ((1 - eps - y0) + eps / 1.5)
    assert co.delta_conductance(t) == pytest.approx(1.0 / (y0 + 1.0 / (a1 + a2)), rel=1e-12)


def test_conductance_bounds(solved_cloud):
    rng = task_stream(6, "continuum", 6)
    for _ in range(300):
        t = co.sample_delta(1 / 8, solved_cloud, rng)
        c = co.delta_conductance(t)
        first_joint = min(float(t.y[0][0]), 1 - t.eps)
        assert 1.0 - 1e-12 <= c <= 1.0 / first_joint + 1e-12


def test_conductance_law_reproduces_cloud(solved_cloud):
    # the closure makes the truncated conductance law the cloud's own law
    rng = task_stream(7, "continuum", 7)
    cs = co.conductance_samples(solved_cloud, 2.0**-10, 2 * 10**4, rng)
    d1 = rde.wasserstein1(rde.ParticleCloud(np.sort(cs)), solved_cloud)
    assert d1 <= 0.02


def test_ray_symmetric_two_leaves():
    eps = 0.125
    t = manual_tree(eps, [[(0.0, 0.5, None)], [(0.5, 0.95, 2.0), (0.5, 0.97, 2.0)]])
    rng = task_stream(8, "continuum", 8)
    for _ in range(5):
        leaf, lm = co.harmonic_ray_mass(t, rng)
        assert leaf in ((1, 0), (1, 1))
        assert lm == pytest.approx(np.log(0.5), abs=1e-12)


def test_ray_splits_normalised(solved_cloud):
    rng = task_stream(9, "continuum", 9)
    t = co.sample_delta(1 / 8, solved_cloud, rng)
    a = co._conductances(t)
    for g in range(len(t.lo) - 1):
        c = a[g + 1]
        p1 = c[0::2] / (c[0::2] + c[1::2])
        p2 = c[1::2] / (c[0::2] + c[1::2])
        assert p1.size == np.sum(~t.leaf[g])
        assert np.allclose(p1 + p2, 1.0, atol=1e-15)


def test_ray_mass_matches_split_frequencies(solved_cloud):
    # empirical child-choice frequency at the root matches C1/(C1+C2)
    rng = task_stream(10, "continuum", 10)
    t = co.sample_delta(1 / 4, solved_cloud, rng)
    while t.leaf[0][0]:
        t = co.sample_delta(1 / 4, solved_cloud, rng)
    a1, a2 = co._conductances(t)[1]
    p_left = a1 / (a1 + a2)
    went_left = 0
    trials = 20000
    for _ in range(trials):
        leaf, _ = co.harmonic_ray_mass(t, rng)
        went_left += root_side(t, *leaf) == 0
    se = np.sqrt(p_left * (1 - p_left) / trials)
    assert went_left / trials == pytest.approx(p_left, abs=4 * se)


def test_exponent_mean_in_range(solved_cloud):
    rng = task_stream(11, "continuum", 11)
    lm = co.ray_mass_samples(solved_cloud, 2.0**-10, 4000, rng)
    exp10 = -lm.mean() / np.log(2.0**10)
    assert 0.7 < exp10 < 0.85


def test_dimension_curve_shape_and_extrapolation(solved_cloud):
    rng = task_stream(12, "continuum", 12)
    curve = co.dimension_curve(solved_cloud, [2.0**-6, 2.0**-8, 2.0**-10], 2000, rng)
    assert len(curve.points) == 3
    for p in curve.points:
        assert 0.0 < p.exponent < 1.0
        assert p.std_error > 0
    assert curve.extrapolated is not None
    assert 0.5 < curve.extrapolated < 1.0
    rows = curve.to_rows()
    assert rows[0]["extrapolated"] == curve.extrapolated


def test_dimension_curve_empty_on_zero_trials(solved_cloud):
    rng = task_stream(13, "continuum", 13)
    curve = co.dimension_curve(solved_cloud, [2.0**-6, 2.0**-8], 0, rng)
    assert curve.points == [] and curve.extrapolated is None


def test_batched_and_single_agree_in_law(solved_cloud):
    # mean root conductance via the chunked path vs one-at-a-time sampling
    rng1 = task_stream(14, "continuum", 14)
    rng2 = task_stream(15, "continuum", 15)
    batched = co.conductance_samples(solved_cloud, 1 / 8, 4000, rng1)
    single = np.array(
        [co.delta_conductance(co.sample_delta(1 / 8, solved_cloud, rng2)) for _ in range(4000)]
    )
    d1 = rde.wasserstein1(
        rde.ParticleCloud(np.sort(batched)), rde.ParticleCloud(np.sort(single))
    )
    assert d1 < 0.05


def reference_rays(batch, rng):
    """Per-vertex reference for `_conductances` and `_ray_masses`: explicit
    child pointers, recursive conductances, and one descent per tree reading
    the same step-synchronous draws (one rng.random per step over the trees
    still descending, in tree order)."""
    eps, top = batch.eps, 1.0 - batch.eps
    kids, closure = {}, {}
    for g, leaf in enumerate(batch.leaf):
        k = c = 0
        for i, is_leaf in enumerate(leaf):
            if is_leaf:
                closure[g, i] = batch.closure[g][c]
                c += 1
            else:
                kids[g, i] = ((g + 1, 2 * k), (g + 1, 2 * k + 1))
                k += 1

    def cond(v):
        lo, y = batch.lo[v[0]][v[1]], batch.y[v[0]][v[1]]
        if v in closure:
            return 1.0 / ((top - lo) + eps / closure[v])
        c1, c2 = kids[v]
        return 1.0 / ((y - lo) + 1.0 / (cond(c1) + cond(c2)))

    conds = {(g, i): cond((g, i)) for g in range(len(batch.lo)) for i in range(batch.lo[g].size)}
    cur = [(0, t) for t in range(batch.n_trees)]
    logm = [0.0] * batch.n_trees
    active = [t for t in range(batch.n_trees) if cur[t] in kids]
    while active:
        u = rng.random(len(active))
        for j, t in enumerate(active):
            c1, c2 = kids[cur[t]]
            tot = conds[c1] + conds[c2]
            cur[t] = c1 if u[j] * tot < conds[c1] else c2
            logm[t] += np.log(conds[cur[t]] / tot)
        active = [t for t in active if cur[t] in kids]
    return conds, cur, logm


@pytest.mark.parametrize("seed", range(12))
def test_level_passes_match_per_vertex_reference(solved_cloud, seed):
    rng = task_stream(seed, "continuum", 16)
    eps = (1 / 4, 1 / 8, 1 / 32)[seed % 3]
    batch = co._build_batch(eps, solved_cloud.samples, rng, int(rng.integers(1, 20)))
    cond = co._conductances(batch)
    (level, pos), logm = co._ray_masses(batch, cond, task_stream(seed, "continuum", 17))
    ref_cond, ref_leaf, ref_logm = reference_rays(batch, task_stream(seed, "continuum", 17))
    assert [a.size for a in cond] == [lo.size for lo in batch.lo]
    assert all(cond[g][i] == c for (g, i), c in ref_cond.items())
    assert list(zip(level.tolist(), pos.tolist())) == ref_leaf
    assert logm.tolist() == ref_logm


def test_regenerated_chunks_pass_on_the_default_ladder(solved_cloud):
    rng = task_stream(17, "continuum", 17)
    curve = co.dimension_curve(solved_cloud, EPS_LADDER_DEFAULT, 200, rng)
    assert [r["regenerated_chunks"] for r in curve.to_rows()] == [0] * len(EPS_LADDER_DEFAULT)
    check = curve.regenerated_check()
    assert check["criterion"] == "continuum-regenerated-chunks" and check["passed"]


def test_regenerated_chunks_fail_with_a_small_node_budget(solved_cloud, monkeypatch):
    # the chunk plan scaled by 1/1000: at eps = 2^-10 a chunk holds one tree,
    # as at eps = 2^-20 under the real constants, and a few trees per thousand
    # pass the budget
    monkeypatch.setattr(co, "NODE_BUDGET", co.NODE_BUDGET // 1000)
    monkeypatch.setattr(co, "_TARGET_CHUNK_NODES", co._TARGET_CHUNK_NODES // 1000)
    real, tripped = co._build_batch, []

    def counted(*args):
        try:
            return real(*args)
        except co._ChunkCapExceeded:
            tripped.append(args[0])
            raise

    monkeypatch.setattr(co, "_build_batch", counted)
    rng = task_stream(18, "continuum", 18)
    curve = co.dimension_curve(solved_cloud, [2.0**-6, 2.0**-10], 1000, rng)
    counts = [r["regenerated_chunks"] for r in curve.to_rows()]
    assert counts[0] == 0 and counts[1] > 0
    assert counts == [tripped.count(eps) for eps in (2.0**-6, 2.0**-10)]
    check = curve.regenerated_check()
    assert not check["passed"] and f"{2.0**-10:g}:{counts[1]}" in check["detail"]
