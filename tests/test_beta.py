import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import oracles as orc
import pytest
from scipy.integrate import quad

from gwharmonic import beta, rde, rngs
from gwharmonic.rngs import task_stream


@pytest.fixture(scope="module")
def ones():
    return rde.constant_cloud(10**4, 1.0)


def test_kappa_all_ones_closed_form(ones):
    rng = task_stream(1, "beta", 1)
    for r in (1.0, 1.5, 3.0, 10.0):
        assert orc.kappa(ones, r, 10**4, rng) == pytest.approx(r / (r + 1), abs=1e-12)


def test_kappa_symmetry_oracle(solved_cloud):
    # kappa(1) = E[S/(S+T)] = 1/2 exactly, by exchangeability of (S, T)
    rng = task_stream(2, "beta", 2)
    assert orc.kappa(solved_cloud, 1.0, 10**6, rng) == pytest.approx(0.5, abs=0.002)


def test_kappa_increasing_in_r(solved_cloud):
    rng = task_stream(3, "beta", 3)
    vals = [orc.kappa(solved_cloud, r, 10**6, rng) for r in (1.0, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(vals) > 0)
    assert 0.0 < vals[0] < 1.0


def test_kappa_domain(solved_cloud):
    rng = task_stream(4, "beta", 4)
    with pytest.raises(ValueError):
        orc.kappa(solved_cloud, 0.5, 100, rng)


def test_beta_moment_all_ones_diagnostic(ones):
    rng = task_stream(5, "beta", 5)
    est = beta.beta_moment(ones, 10**5, rng)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_beta_triple_all_ones_diagnostic(ones):
    rng = task_stream(6, "beta", 6)
    est = beta.beta_triple(ones, 10**5, rng)
    assert est.value == pytest.approx(np.log(2.0), abs=1e-12)


def test_beta_shift_all_ones_quad_oracle(ones):
    # s = 1/2, kappa-hat(r) = r/(r+1) exactly; value reduces to
    # log2 * E[2/(3+U)] / E[|log(1-U)| 2/(3+U)], both 1-d integrals
    rng = task_stream(7, "beta", 7)
    est = beta.beta_shift(ones, 2 * 10**5, rng)
    num = np.log(2.0) * quad(lambda u: 2.0 / (3.0 + u), 0, 1)[0]
    den = quad(lambda u: -np.log(1.0 - u) * 2.0 / (3.0 + u), 0, 1)[0]
    expect = num / den
    assert est.value == pytest.approx(expect, abs=4 * est.std_error + 1e-4)
    # every sub-table sees the same pairs (1, 1), so the table has no error
    assert est.table_std_error == 0.0
    assert est.total_std_error == est.std_error


def _table_mean_and_se(table):
    return table.mean(axis=0), table.std(axis=0, ddof=1) / np.sqrt(table.shape[0])


def test_kappa_table_end_nodes(solved_cloud):
    # x = 1: kappa = E[S/(S+T)] = 1/2 by exchangeability; x = 0: kappa = E[S]
    mean, se = _table_mean_and_se(beta.kappa_table(solved_cloud, task_stream(16, "beta", 16)))
    assert beta.TABLE_GRID[0] == 0.0 and beta.TABLE_GRID[-1] == 1.0
    assert abs(mean[-1] - 0.5) <= 4 * se[-1]
    assert abs(mean[0] - solved_cloud.samples.mean()) <= 4 * se[0]
    assert np.all(np.diff(mean) < 0)


def test_kappa_table_matches_kappa_oracle(solved_cloud):
    table = beta.kappa_table(solved_cloud, task_stream(17, "beta", 17))
    mean, se = _table_mean_and_se(table)
    pairs, table_pairs = 10**6, beta._SUBTABLES * beta._SUBTABLE_PAIRS
    rng = task_stream(17, "beta", 18)
    for j in (16, 64, 128, 256):
        direct = orc.kappa(solved_cloud, 1.0 / beta.TABLE_GRID[j], pairs, rng)
        # the same per-pair variance, over the table's pairs and over `pairs`
        combined = se[j] * np.sqrt(1.0 + table_pairs / pairs)
        assert abs(direct - mean[j]) <= 4 * combined
    # linear interpolation errs by about |second difference| / 8 between nodes
    assert np.max(np.abs(np.diff(mean, 2)) / 8 / mean[1:-1]) <= 1e-4


def test_beta_shift_error_bar_is_calibrated(solved_cloud):
    ests = [beta.beta_shift(solved_cloud, 10**5, task_stream(seed, "beta", 20))
            for seed in range(20)]
    assert all(e.table_std_error > 0 for e in ests)
    spread = np.std([e.value for e in ests], ddof=1)
    assert 0.6 <= spread / np.mean([e.total_std_error for e in ests]) <= 1.6


# a batch of 20 tuples in pieces of 7, 7 and 6; 3 batches per draw; all 10 of a group in one draw
CHUNKS = [7, 64, rde._CHUNK]


def test_beta_moment_matches_the_replayed_groups(solved_cloud, monkeypatch):
    s = solved_cloud.samples

    def summands(sub, k, m):
        c0, c1 = orc.cloud_at_serial(s, orc.stratified_rows(sub, k, m, 2))
        return (c0 * c1 / (c0 + c1 - 1.0))[:, None]

    a = s.mean()
    for chunk in CHUNKS:
        monkeypatch.setattr(rde, "_CHUNK", chunk)
        b = orc.batch_sums_serial(task_stream(24, "beta", 24), 20, summands, chunk)[:, 0] / 20
        est = beta.beta_moment(solved_cloud, 20 * beta._BATCHES, task_stream(24, "beta", 24))
        assert est.value == pytest.approx(0.5 * (a * a / b.mean() - 1.0), rel=1e-12)
        assert est.std_error == pytest.approx(
            0.5 * a * a / b.mean() ** 2 * b.std(ddof=1) / np.sqrt(beta._BATCHES), rel=1e-9)


def test_beta_triple_matches_the_replayed_groups(solved_cloud, monkeypatch):
    s = solved_cloud.samples

    def summands(sub, k, m):
        r, t, u = orc.cloud_at_serial(s, orc.stratified_rows(sub, k, m, 3))
        return np.stack([2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t),
                         t * u / (t + u - 1.0)], axis=1)

    for chunk in CHUNKS:
        monkeypatch.setattr(rde, "_CHUNK", chunk)
        sums = orc.batch_sums_serial(task_stream(25, "beta", 25), 20, summands, chunk)
        est = beta.beta_triple(solved_cloud, 20 * beta._BATCHES, task_stream(25, "beta", 25))
        ratios = sums[:, 0] / sums[:, 1]
        assert est.value == pytest.approx(sums[:, 0].mean() / sums[:, 1].mean(), rel=1e-12)
        assert est.std_error == pytest.approx(ratios.std(ddof=1) / np.sqrt(beta._BATCHES), rel=1e-9)


def test_beta_shift_matches_direct_interpolation(solved_cloud, monkeypatch):
    # reference loop on the same draws: weights read by np.interp, from the
    # mean table for the value and batch means, from each sub-table for the
    # table error
    s = solved_cloud.samples
    table = beta.kappa_table(solved_cloud, task_stream(22, "beta", 22))
    rows = [table.mean(axis=0), *table]  # mean table, then each sub-table

    def summands(sub, k, m):
        v = orc.stratified_rows(sub, k, m, 3)
        c1, c2 = orc.cloud_at_serial(s, v[:2])
        u = v[2]
        frac = c1 / (c1 + c2)
        w = np.stack([np.interp(u + (1.0 - u) / (c1 + c2), beta.TABLE_GRID, row) for row in rows], axis=1)
        return np.stack([w * (frac * np.log(frac))[:, None], w * -np.log1p(-u)[:, None]], axis=1)

    for chunk in CHUNKS:
        monkeypatch.setattr(rde, "_CHUNK", chunk)
        rng = task_stream(22, "beta", 22)
        beta.kappa_table(solved_cloud, rng)  # the table's draws come first
        sums = orc.batch_sums_serial(rng, 20, summands, chunk)
        num, den = sums[:, 0], sums[:, 1]
        est = beta.beta_shift(solved_cloud, 20 * beta._BATCHES, task_stream(22, "beta", 22))
        ratios = -2.0 * num / den
        assert est.value == pytest.approx(-2.0 * num[:, 0].sum() / den[:, 0].sum(), rel=1e-12)
        assert est.std_error == pytest.approx(
            ratios[:, 0].std(ddof=1) / np.sqrt(beta._BATCHES), rel=1e-9)
        per_table = -2.0 * num[:, 1:].sum(axis=0) / den[:, 1:].sum(axis=0)
        assert est.table_std_error == pytest.approx(
            per_table.std(ddof=1) / np.sqrt(table.shape[0]), rel=1e-9)


def test_kappa_table_matches_the_serial_column_loop(solved_cloud, monkeypatch):
    # the same table from the pooled columns, also with more workers than
    # cores and frequent thread switches, where a lost column write would show
    ref = orc.kappa_table_serial(solved_cloud, task_stream(26, "beta", 26))
    assert np.array_equal(beta.kappa_table(solved_cloud, task_stream(26, "beta", 26)), ref)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            monkeypatch.setattr(rngs, "_POOL", ex)
            table = beta.kappa_table(solved_cloud, task_stream(26, "beta", 26))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(table, ref)


def test_beta_shift_table_error_bar_when_it_dominates(solved_cloud, monkeypatch):
    # with 20 pairs per sub-table the table error outweighs the tuple error
    monkeypatch.setattr(beta, "_SUBTABLE_PAIRS", 20)
    ests = [beta.beta_shift(solved_cloud, 10**6, task_stream(seed, "beta", 23))
            for seed in range(20)]
    assert np.mean([e.table_std_error for e in ests]) > 1.5 * np.mean([e.std_error for e in ests])
    spread = np.std([e.value for e in ests], ddof=1)
    assert 0.6 <= spread / np.mean([e.total_std_error for e in ests]) <= 1.6


def test_beta_shift_detects_a_planted_table_fault(solved_cloud, monkeypatch):
    clean = beta.beta_shift(solved_cloud, 10**6, task_stream(21, "beta", 21))
    table = beta.kappa_table
    monkeypatch.setattr(beta, "kappa_table",
                        lambda cloud, rng: table(cloud, rng) * (1.0 + 0.05 * beta.TABLE_GRID))
    faulty = beta.beta_shift(solved_cloud, 10**6, task_stream(21, "beta", 21))
    assert abs(faulty.value - clean.value) > 4 * clean.total_std_error


def test_beta_moment_duplication_invariance(solved_cloud):
    sub = rde.ParticleCloud(solved_cloud.samples[: 10**5].copy())
    dup = rde.ParticleCloud(np.sort(np.tile(sub.samples, 2)))
    e1 = beta.beta_moment(sub, 10**6, task_stream(8, "beta", 8))
    e2 = beta.beta_moment(dup, 10**6, task_stream(9, "beta", 9))
    assert sub.samples.mean() == pytest.approx(dup.samples.mean(), abs=1e-14)
    assert e1.value == pytest.approx(e2.value, abs=3 * np.hypot(e1.std_error, e2.std_error))


def test_estimators_agree_near_paper_value(solved_cloud):
    rng = task_stream(10, "beta", 10)
    cv = beta.cross_validate(solved_cloud, 2 * 10**6, rng)
    for est in cv.estimates:
        assert 0.75 < est.value < 0.82
        assert 0.0 < est.value < 1.0
        assert est.std_error > 0
    shift = cv.estimates[2]
    assert shift.method == "shift" and shift.table_std_error > 0
    assert shift.total_std_error == pytest.approx(np.hypot(shift.std_error, shift.table_std_error))
    assert not cv.flagged
    assert np.max(cv.z_matrix) <= 3.0


def test_cross_validate_flags_all_ones(ones):
    rng = task_stream(11, "beta", 11)
    cv = beta.cross_validate(ones, 10**5, rng)
    assert cv.flagged  # moment says 0, triple says log 2


def test_cross_validate_deterministic(solved_cloud):
    a = beta.cross_validate(solved_cloud, 10**5, task_stream(12, "beta", 12))
    b = beta.cross_validate(solved_cloud, 10**5, task_stream(12, "beta", 12))
    for x, y in zip(a.estimates, b.estimates):
        assert x.to_dict() == y.to_dict()


def test_se_scaling_with_budget(solved_cloud):
    e1 = beta.beta_moment(solved_cloud, 10**6, task_stream(13, "beta", 13))
    e2 = beta.beta_moment(solved_cloud, 4 * 10**6, task_stream(14, "beta", 14))
    ratio = e1.std_error / e2.std_error
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_cross_validation_report_dict(solved_cloud):
    cv = beta.cross_validate(solved_cloud, 10**5, task_stream(15, "beta", 15))
    d = cv.to_dict()
    assert {e["method"] for e in d["estimates"]} == {"moment", "triple", "shift"}
    assert len(d["z_matrix"]) == 3


# --- stratified tuples ---------------------------------------------------------

TINY = rde.ParticleCloud(np.array([1.0, 1.1, 1.3, 1.6, 2.2, 3.5, 6.0]))
STRATIFIED = beta._stratified  # the helper itself, for the patched versions to call


def _shared_permutation(sub, k, m, dims):
    # planted fault: every coordinate after the second reuses the second's strata
    v = STRATIFIED(sub, k, m, dims)
    v[2:] = (np.floor(v[1] * m) + v[2:] * m % 1.0) / m
    return v


def _shifted_strata(sub, k, m, dims):
    # planted fault: every stratum index one higher
    return STRATIFIED(sub, k, m, dims) + 1.0 / m


def _tiny_zs(monkeypatch, draw):
    """z of each pair and triple mean behind the three estimators on TINY,
    batch means captured from `_batch_sums`, against the exact mean over
    all M^2 or M^3 cloud tuples: the moment's pair, the triple's numerator
    and denominator, the shift's branch entropy and -log(1-U) (exactly 1)."""
    monkeypatch.setattr(beta, "_stratified", draw)
    batch = 50  # not a multiple of the cloud size: strata straddle cloud values
    sums = []
    monkeypatch.setattr(beta, "_batch_sums",
                        lambda *a: sums.append(rde._batch_sums(*a)) or sums[-1])
    beta.beta_moment(TINY, batch * beta._BATCHES, task_stream(30, "beta", 30))
    beta.beta_triple(TINY, batch * beta._BATCHES, task_stream(31, "beta", 31))
    beta.beta_shift(TINY, batch * beta._BATCHES, task_stream(32, "beta", 32))
    means = [sums[0] / batch, *(sums[1] / batch).T, *(sums[2].sum(axis=2) / batch).T]
    s = TINY.samples
    r, t, u = np.meshgrid(s, s, s, indexing="ij")
    frac = t / (t + u)
    exact = [np.mean(t * u / (t + u - 1.0)),
             np.mean(2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t)),
             np.mean(t * u / (t + u - 1.0)), np.mean(frac * np.log(frac)), 1.0]
    return [rde.z_score(b.mean() - e, rde.se_of_mean(b)) for b, e in zip(means, exact)]


def test_stratified_pair_and_triple_means_are_unbiased(monkeypatch):
    zs = _tiny_zs(monkeypatch, STRATIFIED)
    assert np.max(np.abs(zs)) <= 4, zs


@pytest.mark.parametrize("fault", [_shared_permutation, _shifted_strata], ids=["shared", "shifted"])
def test_stratified_means_catch_a_planted_fault(monkeypatch, fault):
    zs = _tiny_zs(monkeypatch, fault)
    assert np.max(np.abs(zs)) > 4, zs


@pytest.mark.parametrize("fn", [beta.beta_moment, beta.beta_triple, beta.beta_shift],
                         ids=["moment", "triple", "shift"])
def test_stratified_error_bars_are_calibrated(solved_cloud, monkeypatch, fn):
    # one fixed kappa table, so that the shift's spread is its tuple noise alone
    table = beta.kappa_table(solved_cloud, task_stream(33, "beta", 33))
    monkeypatch.setattr(beta, "kappa_table", lambda cloud, rng: table)
    ests = [fn(solved_cloud, 10**5, task_stream(seed, "beta", 34)) for seed in range(20)]
    spread = np.std([e.value for e in ests], ddof=1)
    assert 0.6 <= spread / np.mean([e.std_error for e in ests]) <= 1.6


@pytest.mark.parametrize("chunk, rows, sizes", [(7, 1, {7, 6}), (64, 3, {20}), (rde._CHUNK, 10, {20})])
def test_each_draw_is_stratified_row_by_row(solved_cloud, monkeypatch, chunk, rows, sizes):
    # a batch of 20 larger than the chunk is drawn, and stratified, in pieces of 7, 7 and 6
    monkeypatch.setattr(rde, "_CHUNK", chunk)
    draws = []
    monkeypatch.setattr(beta, "_stratified",
                        lambda *a: draws.append(STRATIFIED(*a)) or draws[-1].copy())
    beta.beta_triple(solved_cloud, 20 * beta._BATCHES, task_stream(35, "beta", 35))
    assert max(v.shape[1] for v in draws) == rows and {v.shape[2] for v in draws} == sizes
    for v in draws:
        m = v.shape[2]
        strata = np.floor(v * m).astype(int)
        assert np.all(strata[0] == np.arange(m))
        assert np.all(np.sort(strata[1:], axis=-1) == np.arange(m))
