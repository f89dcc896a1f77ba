"""The harmonic-ray chain of `continuum`, and the whole-tree sampler in
`oracles` that it is tested against."""

import numpy as np
import oracles as orc
import pytest
from scipy.stats import chi2

from gwharmonic import continuum as co
from gwharmonic import experiments as ex
from gwharmonic import rde
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
    return orc.DeltaBatch(eps, lo, y, leaf, closure)


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
    b = orc.sample_delta(1 / 8, solved_cloud, rng)
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
            orc.sample_delta(bad, solved_cloud, rng)


def test_leaf_count_mean(solved_cloud):
    # E[#leaves] = 1/eps
    rng = task_stream(3, "continuum", 3)
    eps = 1 / 16
    counts = []
    for batch in orc.tree_batches(eps, solved_cloud, 10**4, rng):
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
        c = [leaf_count(orc.sample_delta(eps, solved_cloud, rng)) for _ in range(3000)]
        means[eps] = np.mean(c)
    assert means[1 / 16] / means[1 / 8] == pytest.approx(2.0, abs=0.15)


def test_leftmost_ray_branch_count(solved_cloud):
    # in log coordinates, ray spacings are Exp(1): mean branches = -log eps
    rng = task_stream(5, "continuum", 5)
    eps = 2.0**-8
    n = [leftmost_ray_branches(orc.sample_delta(eps, solved_cloud, rng)) for _ in range(4000)]
    assert np.mean(n) == pytest.approx(-np.log(eps), rel=0.1)


def test_single_segment_series_formula():
    eps = 0.25
    big = 1e12
    t = manual_tree(eps, [[(0.0, 0.9, big)]])
    # series resistance (1-eps) + eps/C*; infinite closure leaves 1/(1-eps)
    assert orc.delta_conductance(t) == pytest.approx(1.0 / (1.0 - eps), rel=1e-9)
    t2 = manual_tree(eps, [[(0.0, 0.9, 2.0)]])
    assert orc.delta_conductance(t2) == pytest.approx(1.0 / ((1 - eps) + eps / 2.0))


def test_conductance_matches_g_map_algebra():
    # two-leaf tree: C = 1/(y + 1/(A1+A2)) with Ai the child conductances
    eps = 0.125
    y0 = 0.4
    t = manual_tree(eps, [[(0.0, y0, None)], [(y0, 0.95, 3.0), (y0, 0.91, 1.5)]])
    a1 = 1.0 / ((1 - eps - y0) + eps / 3.0)
    a2 = 1.0 / ((1 - eps - y0) + eps / 1.5)
    assert orc.delta_conductance(t) == pytest.approx(1.0 / (y0 + 1.0 / (a1 + a2)), rel=1e-12)


def test_conductance_bounds(solved_cloud):
    rng = task_stream(6, "continuum", 6)
    for _ in range(300):
        t = orc.sample_delta(1 / 8, solved_cloud, rng)
        c = orc.delta_conductance(t)
        first_joint = min(float(t.y[0][0]), 1 - t.eps)
        assert 1.0 - 1e-12 <= c <= 1.0 / first_joint + 1e-12


def test_conductance_law_reproduces_cloud(solved_cloud):
    # the closure makes the truncated conductance law the cloud's own law
    rng = task_stream(7, "continuum", 7)
    cs = orc.conductance_samples(solved_cloud, 2.0**-10, 2 * 10**4, rng)
    d1 = rde.wasserstein1(rde.ParticleCloud(np.sort(cs)), solved_cloud)
    assert d1 <= 0.02


def test_ray_symmetric_two_leaves():
    eps = 0.125
    t = manual_tree(eps, [[(0.0, 0.5, None)], [(0.5, 0.95, 2.0), (0.5, 0.97, 2.0)]])
    rng = task_stream(8, "continuum", 8)
    for _ in range(5):
        leaf, lm = orc.harmonic_ray_mass(t, rng)
        assert leaf in ((1, 0), (1, 1))
        assert lm == pytest.approx(np.log(0.5), abs=1e-12)


def test_ray_splits_normalised(solved_cloud):
    rng = task_stream(9, "continuum", 9)
    t = orc.sample_delta(1 / 8, solved_cloud, rng)
    a = orc.conductances(t)
    for g in range(len(t.lo) - 1):
        c = a[g + 1]
        p1 = c[0::2] / (c[0::2] + c[1::2])
        p2 = c[1::2] / (c[0::2] + c[1::2])
        assert p1.size == np.sum(~t.leaf[g])
        assert np.allclose(p1 + p2, 1.0, atol=1e-15)


def test_ray_mass_matches_split_frequencies(solved_cloud):
    # empirical child-choice frequency at the root matches C1/(C1+C2)
    rng = task_stream(10, "continuum", 10)
    t = orc.sample_delta(1 / 4, solved_cloud, rng)
    while t.leaf[0][0]:
        t = orc.sample_delta(1 / 4, solved_cloud, rng)
    a1, a2 = orc.conductances(t)[1]
    p_left = a1 / (a1 + a2)
    went_left = 0
    trials = 20000
    for _ in range(trials):
        leaf, _ = orc.harmonic_ray_mass(t, rng)
        went_left += root_side(t, *leaf) == 0
    se = np.sqrt(p_left * (1 - p_left) / trials)
    assert went_left / trials == pytest.approx(p_left, abs=4 * se)


def test_exponent_mean_in_range(solved_cloud):
    rng = task_stream(11, "continuum", 11)
    lm = co.ray_mass_samples(solved_cloud, 4000, [2.0**-10], rng)
    assert lm.shape == (4000, 1)
    exp10 = -lm.mean() / np.log(2.0**10)
    assert 0.7 < exp10 < 0.85


def test_dimension_curve_shape_and_extrapolation(solved_cloud, monkeypatch):
    rng = task_stream(12, "continuum", 12)
    curve = co.dimension_curve(solved_cloud, [2.0**-6, 2.0**-8, 2.0**-10], 2000, rng)
    assert len(curve.points) == 3
    for p in curve.points:
        assert 0.0 < p.exponent < 1.0
        assert p.std_error > 0
    assert curve.extrapolated is not None
    assert 0.5 < curve.extrapolated < 1.0
    assert curve.extrapolated_se > 0 and curve.slope_se > 0 and curve.chi2_dof >= 0
    rows = curve.to_rows()
    assert list(rows[0]) == ["eps", "exponent", "std_error", "trials", "extrapolated"]
    assert rows[0]["extrapolated"] == curve.extrapolated
    # planted log masses, one column per eps: each point's exponent and
    # std_error are the mean of its column's -logm/log(1/eps) and its
    # standard error over the independent rays
    ln = np.log([2.0**8, 2.0**12])
    planted = np.random.default_rng(0).normal(-0.78 * ln, 0.5, (1000, 2))
    monkeypatch.setattr(co, "ray_mass_samples", lambda *a: planted.copy())
    points = co.dimension_curve(solved_cloud, [2.0**-8, 2.0**-12], 1000, None).points
    for p, col, n in zip(points, planted.T, ln):
        assert p.exponent == pytest.approx(-col.mean() / n, rel=1e-12)
        assert p.std_error == pytest.approx(col.std(ddof=1) / np.sqrt(1000) / n, rel=1e-12)


def test_batched_and_single_agree_in_law(solved_cloud):
    # mean root conductance via the chunked path vs one-at-a-time sampling
    rng1 = task_stream(14, "continuum", 14)
    rng2 = task_stream(15, "continuum", 15)
    batched = orc.conductance_samples(solved_cloud, 1 / 8, 4000, rng1)
    single = np.array(
        [orc.delta_conductance(orc.sample_delta(1 / 8, solved_cloud, rng2)) for _ in range(4000)]
    )
    d1 = rde.wasserstein1(
        rde.ParticleCloud(np.sort(batched)), rde.ParticleCloud(np.sort(single))
    )
    assert d1 < 0.05


def reference_rays(batch, rng):
    """Per-vertex reference for `conductances` and `ray_masses`: explicit
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
    batch = orc.build_batch(eps, solved_cloud.samples, rng, int(rng.integers(1, 20)))
    cond = orc.conductances(batch)
    (level, pos), logm = orc.ray_masses(batch, cond, task_stream(seed, "continuum", 17))
    ref_cond, ref_leaf, ref_logm = reference_rays(batch, task_stream(seed, "continuum", 17))
    assert [a.size for a in cond] == [lo.size for lo in batch.lo]
    assert all(cond[g][i] == c for (g, i), c in ref_cond.items())
    assert list(zip(level.tolist(), pos.tolist())) == ref_leaf
    assert logm.tolist() == ref_logm


# ---------------------------------------------------------------------------
# the harmonic-ray chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c, cap", [(1.75, None), (3.0, None), (6.0, None), (6.0, 1)])
def test_conditional_draw_matches_the_exact_pmf(c, cap, monkeypatch):
    # on a 4-value cloud with weights f, the pair given G = c has pmf
    # f(c1) f(c2) S/(S-1) 1{S >= c} over the 16 ordered pairs; c = 6 is the
    # cloud maximum, and a round cap of 1 makes every round one proposal
    if cap is not None:
        monkeypatch.setattr(co, "_MAX_WIDTH", cap)
    values, f = np.array([1.0, 1.5, 2.5, 6.0]), np.array([0.4, 0.3, 0.2, 0.1])
    samples = np.repeat(values, (10 * f).astype(int))
    draws = 40_000
    _, a1, a2 = co._given(np.full(draws, c), samples, task_stream(24, "continuum", 24))
    pair = 4 * np.searchsorted(values, a1) + np.searchsorted(values, a2)
    counts = np.bincount(pair, minlength=16)
    s = values[:, None] + values[None, :]
    pmf = (np.outer(f, f) * np.where(s >= c, s / (s - 1.0), 0.0)).ravel()
    pmf /= pmf.sum()
    live = pmf > 0
    assert counts.sum() == draws and np.all(counts[~live] == 0)
    expected = draws * pmf[live]
    stat = np.sum((counts[live] - expected) ** 2 / expected)
    assert chi2.sf(stat, live.sum() - 1) > 1e-3


def test_conditional_draw_recomputes_g(solved_cloud, monkeypatch):
    # c includes the cloud maximum, whose draw reaches the (lowered) cap
    s = solved_cloud.samples
    rng = task_stream(25, "continuum", 25)
    c = np.concatenate((s[rng.integers(0, s.size, size=20_000)], s[[0, -1]]))
    monkeypatch.setattr(co, "_MAX_WIDTH", 256)
    widths = []

    class Spy:
        def integers(self, low, high, size):
            widths.append(size[-1])
            return rng.integers(low, high, size=size)

        def random(self, size):
            return rng.random(size)

    keep, a1, a2 = co._given(c, s, Spy())
    assert max(widths) == 256
    assert np.all(np.isin(a1, s)) and np.all(np.isin(a2, s))
    assert np.all((a1 + a2 >= c) & (keep >= 0.0) & (keep <= 1.0))
    g = 1.0 / (1.0 - keep + keep / (a1 + a2))
    assert np.allclose(g, c, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [6, 8])
def test_chain_matches_the_tree_oracle(solved_cloud, k):
    # two-sample z of the chain's exponent against whole trees, one ray per
    # tree
    eps = 2.0**-k
    ln = np.log(1.0 / eps)
    tree = orc.tree_ray_mass_samples(solved_cloud, eps, 20_000, task_stream(k, "continuum", 20))
    tree_exp = -tree.mean() / ln
    tree_se = tree.std(ddof=1) / np.sqrt(tree.size) / ln
    curve = co.dimension_curve(solved_cloud, [eps], 100_000, task_stream(k, "continuum", 21))
    (p,) = curve.points
    z = (p.exponent - tree_exp) / np.hypot(tree_se, p.std_error)
    assert abs(z) <= 4.0


def test_chain_reaches_eps_2_pow_minus_60(solved_cloud, monkeypatch):
    # 1 - 2^-60 == 1.0: a chain that stored start heights would stop near
    # 2^-53 and read about 0.69
    eps = 2.0**-60
    real, steps = co._given, []

    def counted(c, samples, rng):
        steps.append(c.size)
        return real(c, samples, rng)

    monkeypatch.setattr(co, "_given", counted)
    lm = co.ray_mass_samples(solved_cloud, 20_000, [2.0**-30, eps],
                             task_stream(22, "continuum", 22))
    assert lm.shape == (20_000, 2) and np.all(np.isfinite(lm)) and np.all(lm < 0)
    assert steps[-1] == 0  # the last draw held no ray: every ray stopped
    # a ray costs about log(1/eps) steps (1.18 log(1/eps) at this seed)
    assert sum(steps) / len(lm) < 2.0 * np.log(1.0 / eps)
    assert 0.75 < -lm[:, 1].mean() / np.log(1.0 / eps) < 0.82


LADDER = [2.0**-9, 2.0**-14, 2.0**-6, 2.0**-11]  # not sorted: columns follow the list


def test_ladder_column_matches_a_one_eps_pass(solved_cloud):
    # the ladder's rays draw what one ray run to its smallest eps draws
    ladder = co.ray_mass_samples(solved_cloud, 3000, LADDER, task_stream(26, "continuum", 26))
    (one,) = co.ray_mass_samples(solved_cloud, 3000, [2.0**-14],
                                 task_stream(26, "continuum", 26)).T
    assert ladder.shape == (3000, 4) and np.array_equal(ladder[:, 1], one)


def test_ray_mass_does_not_increase_as_eps_falls(solved_cloud):
    lm = co.ray_mass_samples(solved_cloud, 3000, LADDER, task_stream(27, "continuum", 27))
    falling = lm[:, np.argsort(LADDER)[::-1]]
    assert np.all(falling[:, 0] <= 0.0) and np.all(np.diff(falling, axis=1) <= 0.0)


def test_ladder_means_match_one_eps_passes(solved_cloud):
    # each column of one pass against its own independent one-eps pass
    lm = co.ray_mass_samples(solved_cloud, 20_000, LADDER, task_stream(28, "continuum", 28))
    for k, (eps, col) in enumerate(zip(LADDER, lm.T)):
        one = co.ray_mass_samples(solved_cloud, 20_000, [eps], task_stream(29, "continuum", k))
        se = np.hypot(rde.se_of_mean(col), rde.se_of_mean(one))
        assert abs(rde.z_score(col.mean() - one.mean(), se)) <= 4.0, eps


def test_fit_matches_numpy_weighted_polyfit():
    rng = np.random.default_rng(5)
    eps = 2.0 ** -np.arange(6.0, 41.0, 2.0)
    x = 1.0 / np.log(1.0 / eps)
    se = rng.uniform(1e-3, 3e-3, eps.size)
    y = 0.785 - 0.06 * x + rng.normal(0.0, 1.0, eps.size) * se
    pts = [co.DimensionPoint(*row, trials=100) for row in zip(eps, y, se)]
    curve = co._fit(pts, np.diag(se**2))
    (b, a), cov = np.polyfit(x, y, 1, w=1.0 / se, cov="unscaled")
    assert curve.extrapolated == pytest.approx(a, rel=1e-10)
    assert curve.slope == pytest.approx(b, rel=1e-10)
    assert curve.extrapolated_se == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-10)
    assert curve.slope_se == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-10)
    resid = (y - a - b * x) / se
    assert curve.chi2_dof == pytest.approx(np.sum(resid**2) / (eps.size - 2), rel=1e-10)
    # one eps, or a singular covariance: no line
    assert co._fit(pts[:1], np.diag(se[:1] ** 2)).extrapolated is None
    assert co._fit(pts[:3], np.full((3, 3), 1e-6)).extrapolated is None


def test_fit_on_correlated_points_matches_whitened_lstsq():
    # GLS is ordinary least squares on data whitened by the covariance's
    # Cholesky factor L (cov = L L^T)
    rng = np.random.default_rng(6)
    eps = 2.0 ** -np.arange(6.0, 41.0)
    x = 1.0 / np.log(1.0 / eps)
    se = rng.uniform(1e-3, 3e-3, eps.size)
    i = np.arange(eps.size)
    cov = np.outer(se, se) * 0.9 ** np.abs(i[:, None] - i)
    chol = np.linalg.cholesky(cov)
    y = 0.785 - 0.06 * x + chol @ rng.normal(0.0, 1.0, eps.size)
    pts = [co.DimensionPoint(*row, trials=100) for row in zip(eps, y, se)]
    curve = co._fit(pts, cov)
    design = np.linalg.solve(chol, np.stack((np.ones_like(x), x), axis=1))
    white = np.linalg.solve(chol, y)
    (a, b), (rss,), *_ = np.linalg.lstsq(design, white)
    line_cov = np.linalg.inv(design.T @ design)
    assert curve.extrapolated == pytest.approx(a, rel=1e-9)
    assert curve.slope == pytest.approx(b, rel=1e-9)
    assert curve.extrapolated_se == pytest.approx(np.sqrt(line_cov[0, 0]), rel=1e-9)
    assert curve.slope_se == pytest.approx(np.sqrt(line_cov[1, 1]), rel=1e-9)
    assert curve.chi2_dof == pytest.approx(rss / (eps.size - 2), rel=1e-9)


def test_exponent_check_with_zero_se_fails_without_raising():
    # the continuum-exponent row is a z_check on intercept - beta_ref
    for diff, z in ((0.02, np.inf), (-0.02, -np.inf)):
        chk = ex.z_check("continuum-exponent", diff, 0.0, 3.0, tail=" (bound 3)")
        assert not chk["passed"] and chk["z"] == z
        assert chk["detail"] == f"z={z:+.2f} (bound 3)"
