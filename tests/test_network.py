import numpy as np
import oracles as orc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from gwharmonic import experiments as ex
from gwharmonic import network as net
from gwharmonic import offspring as off
from gwharmonic import trees as tr
from gwharmonic.rngs import task_stream

from test_trees import build, generations, path_tree, tree_key


def as_reduced(tree, n):
    r = orc.views(tr.reduce(generations(tree, n), n))[0]
    assert isinstance(r, orc.ReducedTree)
    return r


def star(k):
    return as_reduced(build([-1] + [0] * k), 1)


def random_reduced(rng, n=None, dist=None):
    dist = dist or off.geometric()
    n = n or int(rng.integers(2, 13))
    return orc.views(orc.direct_forest(dist, n, 1, rng))[0]


# ---------------------------------------------------------------------------
# conductances
# ---------------------------------------------------------------------------


def test_conductance_path_series():
    for i in (1, 2, 5, 17):
        r = as_reduced(path_tree(i), i)
        c = np.concatenate(net._conductance_sweep(r.as_forest())[0])
        assert c[0] == pytest.approx(1.0 / i, abs=1e-14)
        assert np.isinf(c[r.boundary[0]])
        c_level = net.forest_conductance_to_level(r.as_forest())
        assert c_level[0] == pytest.approx(1.0 / (i + 1), abs=1e-14)


def test_conductance_depth1_star():
    f = star(2).as_forest()
    assert net._conductance_sweep(f)[0][0][0] == pytest.approx(2.0)
    assert net.forest_conductance_to_level(f)[0] == pytest.approx(2.0 / 3.0)


def test_conductance_two_branches_hand_reduction():
    # root with two branches, each a 3-edge path: branch conductance 1/3,
    # so c(root) = 2/3 (each child subtree is a 2-edge path with c = 1/2)
    t = build([-1, 0, 0, 1, 2, 3, 4])
    r = as_reduced(t, 3)
    c = np.concatenate(net._conductance_sweep(r.as_forest())[0])
    assert c[1] == pytest.approx(0.5)
    assert c[0] == pytest.approx(2.0 / 3.0)


def test_conductance_lower_bound_and_cutset():
    rng = task_stream(20, "network", 0)
    for _ in range(50):
        f = random_reduced(rng).as_forest()
        cl = net.forest_conductance_to_level(f)
        net.check_conductance_invariants(f, cl)
        assert 1.0 / (f.n + 1) - 1e-12 <= cl[0] <= 1.0


# ---------------------------------------------------------------------------
# harmonic measure: exact splitting vs oracles
# ---------------------------------------------------------------------------


def test_measure_star_uniform():
    for k in (2, 3, 7):
        log_mass = net.forest_boundary_log_mass(star(k).as_forest())
        assert np.allclose(log_mass, -np.log(k), atol=1e-14)


def test_measure_path_point_mass():
    log_mass = net.forest_boundary_log_mass(as_reduced(path_tree(6), 6).as_forest())
    assert log_mass.shape == (1,)
    assert log_mass[0] == pytest.approx(0.0, abs=1e-14)


def test_measure_normalised_and_negative():
    rng = task_stream(21, "network", 1)
    for _ in range(40):
        log_mass = net.forest_boundary_log_mass(random_reduced(rng).as_forest())
        assert abs(logsumexp(log_mass)) < 1e-12
        assert np.all(log_mass <= 1e-15)


def test_flow_conservation():
    rng = task_stream(22, "network", 2)
    for _ in range(20):
        r = random_reduced(rng)
        log_flow = np.concatenate(net._flow_sweep(r.as_forest()))
        t = r.tree
        for g in range(r.n):
            lo, hi = t.gen_offsets[g], t.gen_offsets[g + 1]
            clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
            child_flow = np.bincount(
                (t.parent[clo:chi] - lo).astype(np.int64),
                weights=np.exp(log_flow[clo:chi]),
                minlength=int(hi - lo),
            )
            assert np.allclose(
                np.log(child_flow), log_flow[lo:hi], atol=1e-12, rtol=0
            )


def test_splitting_agrees_with_linsolve():
    rng = task_stream(23, "network", 3)
    for _ in range(200):
        r = random_reduced(rng)
        a = net.forest_boundary_log_mass(r.as_forest())
        b = orc.hitting_distribution_linsolve(r)
        assert np.max(np.abs(np.exp(a) - np.exp(b))) < 1e-10


def test_linsolve_star_and_path():
    log_mass = orc.hitting_distribution_linsolve(star(4))
    assert np.allclose(np.exp(log_mass), 0.25, atol=1e-12)
    log_mass = orc.hitting_distribution_linsolve(as_reduced(path_tree(5), 5))
    assert np.exp(log_mass[0]) == pytest.approx(1.0, abs=1e-12)


def test_linsolve_size_cap():
    r = as_reduced(path_tree(3), 3)
    big = orc.ReducedTree(tree=r.tree, n=3, boundary=r.boundary)
    big.tree.parent = np.zeros(30_000, np.int64)  # fake size only for the guard
    with pytest.raises(ValueError):
        orc.hitting_distribution_linsolve(big)


def test_walk_exit_path_deterministic():
    rng = task_stream(24, "network", 4)
    r = as_reduced(path_tree(4), 4)
    exits = orc.simulate_walk_exits(r, 100, rng)
    assert np.all(exits == r.boundary[0])


def test_walk_exit_star_symmetric():
    rng = task_stream(25, "network", 5)
    r = star(4)
    exits = orc.simulate_walk_exits(r, 10**5, rng)
    freqs = np.bincount(exits - r.boundary[0], minlength=4) / 10**5
    assert np.all(np.abs(freqs - 0.25) < 0.005)


def test_walk_frequencies_match_exact_measure():
    rng = task_stream(26, "network", 6)
    r = random_reduced(rng, n=8)
    p = np.exp(net.forest_boundary_log_mass(r.as_forest()))
    walks = 10**5
    exits = orc.simulate_walk_exits(r, walks, rng)
    counts = np.bincount(exits - r.boundary[0], minlength=p.size)
    sigma = np.sqrt(walks * p * (1 - p))
    z = (counts - walks * p) / np.maximum(sigma, 1e-9)
    assert np.max(np.abs(z)) < 3.5
    chi2 = float(np.sum(z * z))
    k = p.size
    assert abs(chi2 - k) / np.sqrt(2 * k) < 3.5


def test_sample_boundary_matches_measure():
    rng = task_stream(27, "network", 7)
    r = random_reduced(rng, n=6)
    log_mass = net.forest_boundary_log_mass(r.as_forest())
    p = np.exp(log_mass)
    draws = orc.sample_boundary(log_mass, rng, size=10**5)
    counts = np.bincount(draws, minlength=p.size)
    sigma = np.sqrt(10**5 * p * (1 - p))
    assert np.max(np.abs(counts - 10**5 * p) / np.maximum(sigma, 1e-9)) < 4.0


# ---------------------------------------------------------------------------
# ball mass / concentration / per-sample statistics
# ---------------------------------------------------------------------------


def test_ball_mass_partitions_at_every_radius():
    rng = task_stream(29, "network", 9)
    r = random_reduced(rng, n=7)
    log_flow = np.concatenate(net._flow_sweep(r.as_forest()))
    t = r.tree
    for rad in range(8):
        anc = tr.level_set(t.gen_offsets, 7 - rad)
        assert np.exp(log_flow[anc]).sum() == pytest.approx(1.0, abs=1e-12)


def test_concentration_statistic_limits():
    rng = task_stream(30, "network", 10)
    log_mass = net.forest_boundary_log_mass(random_reduced(rng, n=8).as_forest())
    assert orc.concentration_statistic(log_mass, 8, 0.78, 50.0) == pytest.approx(1.0, abs=1e-12)
    # delta=0 with generic masses: the window {mass = n^-beta exactly} is empty
    assert orc.concentration_statistic(log_mass, 8, 0.7812345, 0.0) == 0.0
    mid = orc.concentration_statistic(log_mass, 8, 0.78, 0.5)
    assert 0.0 <= mid <= 1.0


def test_exit_exponent_point_mass_is_zero():
    log_mass = net.forest_boundary_log_mass(as_reduced(path_tree(9), 9).as_forest())
    assert -log_mass[0] / np.log(9) == 0.0


def test_exit_exponent_mean_range_n200():
    rng = task_stream(32, "network", 12)
    rep = ex.run_theorem1(off.geometric(), [200], 0.25, 400, rng, 0.7845)
    assert 0.6 <= rep.cells[0]["exponent_mean"] <= 0.95


def test_scaled_conductance_path_and_bounds(solved_cloud, monkeypatch):
    c = net.forest_conductance_to_level(as_reduced(path_tree(12), 12).as_forest())
    assert 12 * c[0] == pytest.approx(12.0 / 13.0, abs=1e-12)
    # every sample the driver draws, seen through its forest invariant check
    seen = []

    def record(forest, c_level):
        net.check_conductance_invariants(forest, c_level)
        seen.extend((forest.n, forest.n * c) for c in c_level)

    monkeypatch.setattr(ex, "check_conductance_invariants", record)
    rng = task_stream(33, "network", 13)
    rep = ex.run_conductance_convergence(off.geometric(), [5, 30], 50, solved_cloud, rng)
    assert sorted({n for n, _ in seen}) == [5, 30] and len(seen) == 100
    assert all(v >= n / (n + 1) - 1e-12 for n, v in seen)
    assert all(cell["mean"] >= cell["n"] / (cell["n"] + 1) - 1e-12 for cell in rep.cells)
    assert "conductance-baseline" not in {chk["criterion"] for chk in rep.checks}


def test_conductance_invariants_fail_on_violations():
    f = as_reduced(path_tree(6), 6).as_forest()  # C_6 = 1/7, one vertex at level 3
    net.check_conductance_invariants(f, [1.0 / 7.0])
    with pytest.raises(AssertionError, match="outside"):
        net.check_conductance_invariants(f, [0.1])
    with pytest.raises(AssertionError, match="cutset"):
        net.check_conductance_invariants(f, [0.5])


def test_scaled_conductance_second_moment_bounded():
    rng = task_stream(34, "network", 14)
    dist = off.geometric()
    moments = {}
    for n in (50, 100, 200):
        vals = n * net.forest_conductance_to_level(orc.direct_forest(dist, n, 800, rng))
        moments[n] = float(np.mean(vals**2))
    # Lemma-style bound: second moments stay bounded (no growth with n)
    assert all(1.0 <= m <= 12.0 for m in moments.values())
    assert max(moments.values()) / min(moments.values()) < 1.6


# ---------------------------------------------------------------------------
# level forest against the single-tree oracles
# ---------------------------------------------------------------------------


def per_tree_sweeps(r):
    """Reference: the per-tree loops over parent pointers that the level
    forest replaced, with the same arithmetic; returns (C_n, boundary log-masses)."""
    t, n = r.tree, r.n
    log_r = np.zeros(orc.node_count(t))
    c = np.full(orc.node_count(t), np.inf)
    for g in range(n - 1, -1, -1):
        lo, hi = t.gen_offsets[g], t.gen_offsets[g + 1]
        clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
        s = np.bincount(t.parent[clo:chi] - lo, weights=np.exp(log_r[clo:chi]),
                        minlength=int(hi - lo))
        c[lo:hi] = s
        log_r[lo:hi] = -np.log1p(1.0 / s)
    log_c = np.log(c)
    log_flow = np.zeros(orc.node_count(t))
    for g in range(n):
        clo, chi = t.gen_offsets[g + 1], t.gen_offsets[g + 2]
        par = t.parent[clo:chi]
        log_flow[clo:chi] = log_flow[par] + log_r[clo:chi] - log_c[par]
    return c[0] / (1.0 + c[0]), log_flow[r.boundary]


@given(st.sampled_from(["geometric", "poisson", "binary"]), st.integers(1, 12),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_forest_matches_single_tree_oracles(law, n, seed):
    dist = off.from_spec(law)
    # the rejection oracle's stream drawn twice: whole chopped trees, then
    # the reduced forest
    full, _, _ = orc.sample_conditioned_batch(dist, n, 6, task_stream(seed, "network", 15))
    forest = orc.sample_conditioned_forest(dist, n, 6, task_stream(seed, "network", 15))[0]
    views = orc.views(forest)
    assert forest.size == len(views) == len(full) == 6
    c_level = net.forest_conductance_to_level(forest)
    log_mass = net.forest_boundary_log_mass(forest)
    off_ = forest.offsets[n]
    for i, (t, view) in enumerate(zip(full, views)):
        assert tree_key(view.tree) == tree_key(as_reduced(t, n).tree)
        orc.validate_reduced(view)
        t_view = view.tree  # reduced: every leaf sits at generation n
        assert np.all(t_view.child_count[: t_view.gen_offsets[n]] > 0)
        assert c_level[i] == net.forest_conductance_to_level(view.as_forest())[0]
        mine = log_mass[off_[i] : off_[i + 1]]
        assert np.array_equal(mine, net.forest_boundary_log_mass(view.as_forest()))
        ref_c, ref_mass = per_tree_sweeps(view)
        assert c_level[i] == ref_c and np.array_equal(mine, ref_mass)
        oracle = orc.hitting_distribution_linsolve(view)
        assert np.max(np.abs(np.exp(mine) - np.exp(oracle))) < 1e-10
