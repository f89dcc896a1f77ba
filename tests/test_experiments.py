import dataclasses
import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import oracles as orc
import pytest

from gwharmonic import experiments as ex
from gwharmonic import network as net
from gwharmonic import offspring as off
from gwharmonic import trees as tr
from gwharmonic.beta import beta_triple
from gwharmonic.rngs import task_stream


def test_mann_kendall_exact_small():
    s, p = ex.mann_kendall([1.0, 2.0, 3.0, 4.0], 1)
    assert s == 6
    assert p == pytest.approx(1.0 / 24.0)
    assert p < 0.05
    s, p = ex.mann_kendall([4.0, 3.0, 2.0, 1.0], 1)
    assert s == -6 and p > 0.9
    # one adjacent inversion is not significant on four points
    _, p = ex.mann_kendall([1.0, 3.0, 2.0, 4.0], 1)
    assert p > 0.05


@lru_cache(maxsize=None)
def _permutation_null(n):
    """S of each of the n! orders of n distinct values: mann_kendall's exact
    null by enumeration, the reference for its inversion-count recursion."""
    p = np.array(list(permutations(range(n))), dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    return np.sign(p[:, j] - p[:, i]).sum(axis=1)


def test_mann_kendall_exact_null_matches_enumeration():
    # bit for bit, with and without ties; n = 8 is where a normal tail once took over
    rng = task_stream(23, "experiments", 23)
    for n in range(9):
        for v in [rng.random(n) for _ in range(40)] + [rng.integers(0, 3, n) for _ in range(40)]:
            for d in (1, -1):
                s, p = ex.mann_kendall(v, d)
                assert p == float(np.mean(_permutation_null(n) >= s))


def test_mann_kendall_normal_tail():
    vals = list(range(9))
    s, p = ex.mann_kendall(vals, 1)
    assert s == 36 and p < 0.001
    _, p_wrong_way = ex.mann_kendall(vals, -1)
    assert p_wrong_way > 0.99


def test_beta_reference_sane(solved_cloud):
    rng = task_stream(1, "experiments", 1)
    b = ex.beta_reference(solved_cloud, rng)
    assert 0.77 < b.value < 0.80
    assert 0.0 < b.std_error < 5e-4
    # the readout is the triple estimator at budget 1e5 on the given stream
    assert b.value == beta_triple(solved_cloud, 10**5, task_stream(1, "experiments", 1)).value


def test_run_levelset_identity(solved_cloud):
    rng = task_stream(2, "experiments", 2)
    rep = ex.run_levelset(off.geometric(), 50, [10, 25], 2500, rng)
    assert rep.experiment == "levelset" and rep.config == {}
    assert len(rep.cells) == 2
    for cell, check in zip(rep.cells, rep.checks):
        assert abs(cell["z"]) <= 3.5
        assert cell["exact"] > 1.0
    assert rep.passed


def test_run_levelset_reads_one_direct_forest():
    # 400 trees fit in one forest of FOREST_VERTICES, so _forest_statistics
    # draws them as one sample_reduced_forest call on the same stream
    n, p_list, trials = 30, [5, 15], 400
    rep = ex.run_levelset(off.poisson(), n, p_list, trials, task_stream(23, "experiments", 23))
    forest = orc.direct_forest(off.poisson(), n, trials, task_stream(23, "experiments", 23))
    assert [c["mean"] for c in rep.cells] == [forest.level_sizes(n - p).mean() for p in p_list]
    assert [c["criterion"] for c in rep.checks] == [f"levelset-z-n{n}-p{p}" for p in p_list]


def _drawn_forest_sizes(monkeypatch):
    """The tree count of every forest that the experiments draw, in order."""
    sizes = []

    def record(cdf, count, rng):
        sizes.append(count)
        return tr.sample_reduced_forest(cdf, count, rng)

    monkeypatch.setattr(ex, "sample_reduced_forest", record)
    return sizes


def _geometric_trees_per_forest(vertices, n):
    # geometric q_m = 1/(m+1): a reduced tree of height n has (n+1) H_{n+1}
    # expected vertices
    return int(vertices / ((n + 1) * sum(1 / (m + 1) for m in range(n + 1))))


def test_run_levelset_chunks_draw_every_tree(monkeypatch):
    # 300 vertices hold 7 trees of height 12 (41.3 expected vertices each),
    # so 20 trees come in forests of 7, 7 and 6
    monkeypatch.setattr(ex, "FOREST_VERTICES", 300)
    drawn = _drawn_forest_sizes(monkeypatch)
    n, p_list = 12, [3, 6]
    per = _geometric_trees_per_forest(300, n)
    assert per == 7
    rep = ex.run_levelset(off.geometric(), n, p_list, 20, task_stream(24, "experiments", 24))
    assert drawn == [per, per, 20 - 2 * per]
    rng = task_stream(24, "experiments", 24)
    cdf = tr.reduced_child_cdf(off.geometric(), n)
    forests = [tr.sample_reduced_forest(cdf, count, rng) for count in (per, per, 20 - 2 * per)]
    assert [c["mean"] for c in rep.cells] == [
        np.concatenate([f.level_sizes(n - p) for f in forests]).mean() for p in p_list]
    assert all(c["trials"] == 20 for c in rep.cells)


def test_run_theorem1_structure():
    rng = task_stream(4, "experiments", 4)
    rep = ex.run_theorem1(off.geometric(), [8, 16, 32], 0.25, 250, rng, 0.7845)
    assert rep.config == {} and rep.summary == {}  # the CLI writes what ran, and beta_ref
    assert [c["n"] for c in rep.cells] == [8, 16, 32]
    for c in rep.cells:
        assert 0.0 < c["exponent_mean"] < 1.0
        assert 0.0 <= c["concentration_mean"] <= 1.0
        assert c["exponent_std_error"] > 0
    names = {chk["criterion"] for chk in rep.checks}
    assert "theorem1-exponent-trend" in names
    # 3 points: p >= 1/3! = 0.1667 whatever the data, and both trends say so
    trends = [chk for chk in rep.checks if chk["criterion"].endswith("-trend")]
    assert len(trends) == 2
    assert all(chk["detail"].endswith("; underpowered: smallest attainable p = 0.1667")
               for chk in trends), trends
    mids = [chk for chk in rep.checks if chk["criterion"].startswith("reduced-midlevel")]
    assert [chk["criterion"] for chk in mids] == [f"reduced-midlevel-n{n}" for n in (8, 16, 32)]
    assert all(chk["passed"] for chk in mids), mids
    flags = {"offspring": "geometric", "seed": 4}
    assert dataclasses.replace(rep, config=flags).file_stem() == "theorem1_geometric_4"


def test_run_theorem1_trees_do_not_depend_on_beta_ref():
    # beta_ref enters only the concentration statistic and the checks
    # against it: the trees, exit exponents and mid-level sizes are the same
    reps = [ex.run_theorem1(off.geometric(), [8, 16], 0.25, 200,
                            task_stream(22, "experiments", 22), b) for b in (0.70, 0.85)]
    for a, b in zip(reps[0].cells, reps[1].cells):
        assert {k: v for k, v in a.items() if not k.startswith("concentration_")} \
            == {k: v for k, v in b.items() if not k.startswith("concentration_")}
        assert a["concentration_mean"] != b["concentration_mean"]
    mids = [[c for c in rep.checks if c["criterion"].startswith("reduced-midlevel")]
            for rep in reps]
    assert len(mids[0]) == 2 and mids[0] == mids[1]


def test_exponent_trend_passes_approaching_from_below():
    chk = ex.exponent_trend_check([0.70, 0.74, 0.76, 0.78], 0.7845)
    assert chk["criterion"] == "theorem1-exponent-trend"
    assert chk["passed"], chk["detail"]
    assert "S=6" in chk["detail"] and "|mean - beta| decreasing" in chk["detail"]
    # 4 points reach p = 1/4! < 0.05: not marked; 3 points cannot pass
    assert "underpowered" not in chk["detail"]
    chk = ex.exponent_trend_check([0.74, 0.76, 0.78], 0.7845)
    assert not chk["passed"]
    assert chk["detail"].endswith("; underpowered: smallest attainable p = 0.1667")


def test_exponent_trend_passes_approaching_from_above():
    chk = ex.exponent_trend_check([0.87, 0.83, 0.80, 0.79], 0.7845)
    assert chk["passed"], chk["detail"]


def test_exponent_trend_fails_moving_away():
    # starts below and ends further above: the old data-chosen direction
    # (beta_ref >= first mean, so "increasing") passed this series
    means = [0.77, 0.79, 0.81, 0.85]
    assert ex.mann_kendall(means, 1)[1] < 0.05
    chk = ex.exponent_trend_check(means, 0.7845)
    assert not chk["passed"], chk["detail"]
    assert not ex.exponent_trend_check([0.78, 0.76, 0.74, 0.70], 0.7845)["passed"]


class _FixedUniform:
    """An rng whose next uniform is given: feeds sample_boundary one u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


@pytest.mark.parametrize("law", ["geometric", "poisson", "binary"])
def test_tree_statistics_match_the_per_tree_loop(law):
    # the one-pass statistics against concentration_statistic and
    # sample_boundary run tree by tree on the same uniforms
    n, beta, delta = 30, 0.7845, 0.25
    forest = orc.direct_forest(off.from_spec(law), n, 300, task_stream(18, "experiments", 18))
    log_mass = net.forest_boundary_log_mass(forest)
    off_ = forest.offsets[n]
    u = task_stream(18, "experiments", 19).random(forest.size)
    conc, expo = ex._tree_statistics(log_mass, off_, u, n, beta, delta)
    for i in range(forest.size):
        tree_mass = log_mass[off_[i] : off_[i + 1]]
        b = orc.sample_boundary(tree_mass, _FixedUniform(u[i]))
        assert expo[i] == -tree_mass[b] / np.log(n)
        assert conc[i] == pytest.approx(orc.concentration_statistic(tree_mass, n, beta, delta),
                                        rel=0, abs=1e-12)
    # a tree whose masses do not sum to one fails the identity
    log_mass[off_[7] : off_[8]] += 1e-9
    with pytest.raises(AssertionError, match="mass off by"):
        ex._tree_statistics(log_mass, off_, u, n, beta, delta)


def test_check_mass_rejects_nan():
    # NaN compares false against any bound: a NaN mass in a tree that
    # otherwise sums to one, and a tree with every log-mass -inf
    half = np.log(0.5)
    faults = (([half, np.nan, half], [0]), ([half, half, -np.inf, -np.inf], [0, 2]))
    for log_mass, starts in faults:
        with pytest.raises(AssertionError, match="mass off by nan"), np.errstate(invalid="ignore"):
            ex._check_mass(np.array(log_mass), np.array(starts))
    ex._check_mass(np.array([half, half, 0.0]), np.array([0, 2]))


def test_run_conductance_convergence(solved_cloud, monkeypatch):
    seen = []

    def record(forest, c_level):
        net.check_conductance_invariants(forest, c_level)
        seen.extend((forest.n, forest.n * c) for c in c_level)

    monkeypatch.setattr(ex, "check_conductance_invariants", record)
    rng = task_stream(6, "experiments", 6)
    rep = ex.run_conductance_convergence(
        off.geometric(), [10, 25, 60], 1500, solved_cloud, rng
    )
    assert len(seen) == 3 * 1500
    assert all(v >= n / (n + 1) - 1e-12 for n, v in seen)
    d1s = [c["d1_to_cloud"] for c in rep.cells]
    assert [c["criterion"] for c in rep.checks] == [
        "conductance-d1-decreasing", "reduced-midlevel-n10",
        "reduced-midlevel-n25", "reduced-midlevel-n60"]
    assert rep.passed and rep.config == {}
    assert all(d > 0 for d in d1s)
    assert d1s[-1] < d1s[0]
    for c in rep.cells:
        assert c["mean"] >= c["n"] / (c["n"] + 1) - 1e-9
        assert c["second_moment"] < 12.0


def test_conductance_chunks_draw_every_tree(solved_cloud, monkeypatch):
    # 5,000 trees of height 8 in forests of 50,000 expected vertices (1963
    # trees of 25.5 vertices each), read through the per-forest invariant hook
    monkeypatch.setattr(ex, "FOREST_VERTICES", 50_000)
    per = _geometric_trees_per_forest(50_000, 8)
    assert per == 1963
    sizes = []

    def record(forest, c_level):
        net.check_conductance_invariants(forest, c_level)
        sizes.append(forest.size)

    monkeypatch.setattr(ex, "check_conductance_invariants", record)
    rep = ex.run_conductance_convergence(off.geometric(), [8], 5000, solved_cloud,
                                         task_stream(19, "experiments", 19))
    assert sizes == [per, per, 5000 - 2 * per]
    assert rep.cells[0]["trials"] == 5000 and rep.checks[1]["passed"]


# theorem1 at n = 400 with 2,000 trials, in a fresh process
_THEOREM1_N400 = """
from gwharmonic import experiments as ex, offspring as off
from gwharmonic.rngs import task_stream
ex.run_theorem1(off.geometric(), [400], 0.25, 2000, task_stream(1, "experiments", 1), 0.7845)
"""
# Spawns argv[1] as a child and prints its exit code and ru_maxrss in MB.
# Linux carries a parent's peak RSS into its children's ru_maxrss, so the
# child is spawned by this small process and not by the test runner.
_PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", sys.argv[1]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)
"""


def test_theorem1_at_n400_stays_under_100_mb():
    # forests of FOREST_VERTICES expected vertices split the 2,000 trees;
    # one forest of all of them peaks near 250 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", _PEAK_RSS, _THEOREM1_N400], env=env,
                         capture_output=True, text=True, timeout=300)
    code, rss = res.stdout.split()
    assert code == "0", res.stderr
    assert float(rss) < 100


def _midlevel_check(law, fault):
    cdf = (orc.faulty_child_cdf if fault else tr.reduced_child_cdf)(law, 12)
    rng = task_stream(17, "experiments", 17)
    return ex._forest_statistics(law, cdf, 20000, rng, lambda forest: ())[1]


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_midlevel_check_passes_on_the_direct_sampler(law):
    chk = _midlevel_check(off.from_spec(law), fault=False)
    assert chk["criterion"] == "reduced-midlevel-n12"
    assert chk["passed"], chk["detail"]


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_midlevel_check_fails_on_a_planted_fault(law):
    chk = _midlevel_check(off.from_spec(law), fault=True)
    assert not chk["passed"], chk["detail"]
    assert float(chk["detail"].split("z=")[1]) < -4


def _acceptance(law, n, count, seed, node_cap=orc.DEFAULT_NODE_CAP, checked_law=None):
    rng = task_stream(seed, "experiments", 11)
    forest, trials, successes, capped = orc.sample_conditioned_forest(law, n, count, rng,
                                                                      node_cap)
    return orc.acceptance_check(checked_law or law, n, trials, successes, capped)


def test_acceptance_check_passes_on_correct_runs():
    for law in (off.geometric(), off.poisson(), off.binary()):
        for n in (5, 40):
            chk = _acceptance(law, n, 400, 12)
            assert chk["criterion"] == f"conditioned-acceptance-n{n}"
            assert chk["passed"], chk["detail"]
            assert "capped=0" in chk["detail"]


def test_acceptance_check_fails_against_the_wrong_law():
    # Poisson samples against the geometric q_n, which is about half as large
    chk = _acceptance(off.poisson(), 40, 400, 13, checked_law=off.geometric())
    assert not chk["passed"]
    z = float(chk["detail"].split("z=")[1])
    assert z > 4


def test_acceptance_check_fails_at_a_tiny_node_cap():
    chk = _acceptance(off.geometric(), 20, 20, 14, node_cap=60)
    assert not chk["passed"]
    assert int(chk["detail"].split("capped=")[1].split()[0]) > 0
    # one capped trial fails the check even when the survivors sit at their
    # exact expectation: geometric q_20 = 1/21, so 10 of 210 trials, z = 0
    assert off.survival_probs(off.geometric(), 20)[20] * 210 == pytest.approx(10)
    assert orc.acceptance_check(off.geometric(), 20, 210, 10, capped=0)["passed"]
    chk = orc.acceptance_check(off.geometric(), 20, 210, 10, capped=1)
    assert not chk["passed"]
    assert float(chk["detail"].split("z=")[1]) == 0


def test_run_corollary_fixed_size():
    rng = task_stream(7, "experiments", 7)
    rep = ex.run_corollary_fixed_size(off.geometric(), 1600, 20, 150, rng, 0.7845, 0.25)
    assert rep.config == {} and rep.summary == {}  # the CLI writes what ran, and beta_ref
    cell = rep.cells[0]
    assert cell["acceptance_rate"] > 0.3
    # the mean sits near 1 at n=20 (0.991 +- 0.026 on the stream of
    # depth-first walks), so 1.0 is a bound only up to its standard error
    assert 0.0 < cell["exponent_mean"] < 1.0 + 4 * cell["exponent_std_error"]
    assert rep.passed


@pytest.mark.parametrize("law", ["geometric", "poisson"])
def test_fixed_size_statistics_match_the_per_tree_oracle(law, monkeypatch):
    # the one-pass statistics against the per-tree path on the same stream:
    # each tree reduced alone, swept alone, its boundary drawn at once
    dist, N, n, trials, beta, delta = off.from_spec(law), 900, 12, 60, 0.7845, 0.25
    real, seen = ex._tree_statistics, []

    def record(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(ex, "_tree_statistics", record)
    rep = ex.run_corollary_fixed_size(dist, N, n, trials, task_stream(20, "experiments", 20),
                                      beta, delta)
    rng = task_stream(20, "experiments", 20)
    concs, expos = [], []
    for _ in range(trials):
        gens, _ = tr.sample_fixed_size_conditioned(dist, N, n, rng)
        tree_mass = net.forest_boundary_log_mass(tr.reduce(gens, n))
        expos.append(-tree_mass[orc.sample_boundary(tree_mass, rng)] / np.log(n))
        concs.append(orc.concentration_statistic(tree_mass, n, beta, delta))
    (conc, expo), = seen
    assert np.array_equal(expo, expos)
    assert np.max(np.abs(conc - concs)) <= 1e-12
    assert rep.cells[0]["exponent_mean"] == ex._summary(np.array(expos))["mean"]


def test_fixed_size_report_does_not_depend_on_the_batch_budget(monkeypatch):
    # 40 trees keep at most 40 * 1601 counts, so the default budget holds
    # every tree in one forest; a budget of one vertex sweeps each tree alone
    sizes = []

    def record(counts, n):
        forest = tr.reduce(counts, n)
        sizes.append(forest.size)
        return forest

    def report():
        return ex.run_corollary_fixed_size(off.poisson(), 1600, 20, 40,
                                           task_stream(21, "experiments", 21), 0.7845, 0.25)

    monkeypatch.setattr(ex, "reduce_tree", record)
    assert 40 * 1601 < ex.FOREST_VERTICES
    default = report()
    assert sizes == [40]
    monkeypatch.setattr(ex, "FOREST_VERTICES", 1)
    assert report() == default
    assert sizes == [40] + [1] * 40


def test_report_roundtrip_and_hash(solved_cloud):
    rep1 = ex.run_levelset(off.geometric(), 30, [5], 400, task_stream(9, "experiments", 9))
    rep2 = ex.run_levelset(off.geometric(), 30, [5], 400, task_stream(9, "experiments", 9))
    assert orc.content_hash(rep1) == orc.content_hash(rep2)
    d = json.loads(rep1.to_json())
    assert d["experiment"] == "levelset" and "version" in d
    csv = rep1.to_csv()
    assert csv.splitlines()[0] == "n,p,trials,mean,std_error,exact,z"
    assert len(csv.splitlines()) == 2


def test_report_rows_key_summary_and_stem():
    rep = ex.ExperimentReport("beta_cross_validate", [{"method": "moment", "value": 0.5}], [], 1.5,
                              rows_key="estimates", summary={"flagged": False},
                              config={"seed": 3})
    d = rep.to_dict()
    assert d["estimates"] == rep.cells and "cells" not in d and d["flagged"] is False
    assert rep.file_stem() == "beta_cross_validate_seed3"
    assert dataclasses.replace(rep, config={"seed": 3, "offspring": "poisson"}).file_stem() \
        == "beta_cross_validate_poisson_3"
    assert rep.to_csv() == "method,value\nmoment,0.5\n"
    assert orc.content_hash(dataclasses.replace(rep, wall_clock_s=9.0)) == orc.content_hash(rep)
    assert orc.content_hash(dataclasses.replace(rep, summary={"flagged": True})) \
        != orc.content_hash(rep)
