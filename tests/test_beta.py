import inspect
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import oracles as orc
import pytest
from scipy.integrate import quad

from gwharmonic import beta, rde, rngs
from gwharmonic.rngs import task_stream


@pytest.fixture(scope="module")
def ones():
    return orc.constant_cloud(10**4, 1.0)


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
    assert est.total_std_error == est.std_error


def test_kappa_table_end_nodes(solved_cloud):
    # x = 1: kappa = E[S/(S+T)] = 1/2 by exchangeability; x = 0: kappa = E[S],
    # which the lattice split keeps
    table = beta.kappa_table(solved_cloud)
    assert beta.TABLE_GRID[0] == 0.0 and beta.TABLE_GRID[-1] == 1.0
    assert abs(table[-1] - 0.5) <= 1e-12
    assert abs(table[0] - solved_cloud.samples.mean()) <= 1e-12
    assert np.all(np.diff(table) < 0)


def test_kappa_table_matches_kappa_oracle(solved_cloud):
    table = beta.kappa_table(solved_cloud)
    rng = task_stream(17, "beta", 18)
    for j in (16, 64, 128, 256):
        direct = [orc.kappa(solved_cloud, 1.0 / beta.TABLE_GRID[j], 50_000, rng) for _ in range(20)]
        assert abs(np.mean(direct) - table[j]) <= 4 * rde.se_of_mean(direct)
    # linear interpolation errs by about |second difference| / 8 between nodes
    assert np.max(np.abs(np.diff(table, 2)) / 8 / table[1:-1]) <= 1e-4


def test_beta_shift_moves_little_when_the_lattice_halves(solved_cloud, monkeypatch):
    # the same tuples, read through tables at h and h/2
    coarse = beta.beta_shift(solved_cloud, 10**6, task_stream(18, "beta", 18))
    monkeypatch.setattr(rde, "_LATTICE_H", rde._LATTICE_H / 2)
    fine = beta.beta_shift(solved_cloud, 10**6, task_stream(18, "beta", 18))
    assert abs(fine.value - coarse.value) < 1e-6


def test_beta_shift_error_bar_is_calibrated(solved_cloud):
    ests = [beta.beta_shift(solved_cloud, 10**5, task_stream(seed, "beta", 20))
            for seed in range(20)]
    spread = np.std([e.value for e in ests], ddof=1)
    assert 0.6 <= spread / np.mean([e.total_std_error for e in ests]) <= 1.6


# a batch of 20 tuples in pieces of 7, 7 and 6; 3 batches per draw; all 10 of a group in one draw
CHUNKS = [7, 64, beta._CHUNK]


def test_beta_moment_matches_the_replayed_groups(solved_cloud, monkeypatch):
    s = solved_cloud.samples

    def summands(sub, k, m):
        c0, c1 = orc.cloud_at_serial(s, orc.stratified_rows(sub, k, m, 2))
        return (c0 * c1 / (c0 + c1 - 1.0))[:, None]

    a = s.mean()
    for chunk in CHUNKS:
        monkeypatch.setattr(beta, "_CHUNK", chunk)
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
        monkeypatch.setattr(beta, "_CHUNK", chunk)
        sums = orc.batch_sums_serial(task_stream(25, "beta", 25), 20, summands, chunk)
        est = beta.beta_triple(solved_cloud, 20 * beta._BATCHES, task_stream(25, "beta", 25))
        ratios = sums[:, 0] / sums[:, 1]
        assert est.value == pytest.approx(sums[:, 0].mean() / sums[:, 1].mean(), rel=1e-12)
        assert est.std_error == pytest.approx(ratios.std(ddof=1) / np.sqrt(beta._BATCHES), rel=1e-9)


@pytest.mark.parametrize("k, m", [(1, 1), (1, 7), (3, 20), (10, 20), (6, 21_845), (1, beta._CHUNK)])
@pytest.mark.parametrize("kernel, whole", [(beta._pair_sums, orc.pair_sums_whole),
                                           (beta._triple_sums, orc.triple_sums_whole),
                                           (beta._shift_sums, orc.shift_sums_whole)],
                         ids=["moment", "triple", "shift"])
def test_in_place_kernels_equal_the_whole_expressions(solved_cloud, kernel, whole, k, m):
    s = solved_cloud.samples
    head = (s, beta.kappa_table(solved_cloud)) if kernel is beta._shift_sums else (s,)
    got, want = (fn(*head, task_stream(26, "beta", m), k, m) for fn in (kernel, whole))
    assert got.shape == want.shape and np.array_equal(got, want)


def test_beta_shift_matches_direct_interpolation(solved_cloud, monkeypatch):
    # reference loop on the same draws: weights read from the table by np.interp
    s = solved_cloud.samples
    table = beta.kappa_table(solved_cloud)

    def summands(sub, k, m):
        v = orc.stratified_rows(sub, k, m, 3)
        c1, c2 = orc.cloud_at_serial(s, v[:2])
        u = v[2]
        frac = c1 / (c1 + c2)
        w = np.interp(u + (1.0 - u) / (c1 + c2), beta.TABLE_GRID, table)
        return np.stack([w * frac * np.log(frac), w * -np.log1p(-u)], axis=1)

    for chunk in CHUNKS:
        monkeypatch.setattr(beta, "_CHUNK", chunk)
        sums = orc.batch_sums_serial(task_stream(22, "beta", 22), 20, summands, chunk)
        est = beta.beta_shift(solved_cloud, 20 * beta._BATCHES, task_stream(22, "beta", 22))
        ratios = -2.0 * sums[:, 0] / sums[:, 1]
        assert est.value == pytest.approx(-2.0 * sums[:, 0].mean() / sums[:, 1].mean(), rel=1e-12)
        assert est.std_error == pytest.approx(ratios.std(ddof=1) / np.sqrt(beta._BATCHES), rel=1e-9)


def test_beta_shift_detects_a_planted_table_fault(solved_cloud, monkeypatch):
    clean = beta.beta_shift(solved_cloud, 10**6, task_stream(21, "beta", 21))
    table = beta.kappa_table
    monkeypatch.setattr(beta, "kappa_table",
                        lambda cloud: table(cloud) * (1.0 + 0.05 * beta.TABLE_GRID))
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
    ests, z = beta.cross_validate(solved_cloud, 2 * 10**6, rng)
    for est in ests:
        assert 0.75 < est.value < 0.82
        assert 0.0 < est.value < 1.0
        assert est.std_error > 0
    shift = ests[2]
    assert shift.method == "shift" and shift.cloud_std_error > 0
    assert shift.total_std_error == pytest.approx(np.hypot(shift.std_error, shift.cloud_std_error))
    assert not np.any(z > 3.0)
    assert np.max(z) <= 3.0


def test_cross_validate_flags_all_ones(ones):
    rng = task_stream(11, "beta", 11)
    _, z = beta.cross_validate(ones, 10**5, rng)
    assert np.any(z > 3.0)  # moment says 0, triple says log 2


def test_cross_validate_deterministic(solved_cloud):
    a = beta.cross_validate(solved_cloud, 10**5, task_stream(12, "beta", 12))
    b = beta.cross_validate(solved_cloud, 10**5, task_stream(12, "beta", 12))
    for x, y in zip(a[0], b[0]):
        assert x.to_dict() == y.to_dict()


def test_se_scaling_with_budget(solved_cloud):
    e1 = beta.beta_moment(solved_cloud, 10**6, task_stream(13, "beta", 13))
    e2 = beta.beta_moment(solved_cloud, 4 * 10**6, task_stream(14, "beta", 14))
    ratio = e1.std_error / e2.std_error
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_cross_validation_report_dict(solved_cloud):
    result = beta.cross_validate(solved_cloud, 10**5, task_stream(15, "beta", 15))
    assert len(result) == 2  # results only: the CLI echoes --trials
    ests, z = result
    assert {e.method for e in ests} == {"moment", "triple", "shift"}
    assert z.shape == (3, 3)


def test_cross_validate_draws_one_sub_cloud_split(solved_cloud, monkeypatch):
    calls = []
    split = beta._split
    monkeypatch.setattr(beta, "_split", lambda *a: calls.append(a) or split(*a))
    result = beta.cross_validate(solved_cloud, 10**5, task_stream(16, "beta", 16))
    assert len(calls) == 1
    assert all(est.cloud_std_error > 0 for est in result[0])  # all three cloud terms read it


def test_cross_validate_holds_no_cloud_size_temporary(solved_cloud, monkeypatch):
    # one worker, so the live peak is one task's: the split's int32
    # permutation (half a cloud), one gathered sub-cloud, and `rde._rebin`'s
    # buffers of a few blocks while it lattices the sub-cloud; the lattice
    # vectors and the full-cloud draws of ten batches of 1,000 tuples hold
    # less.  An int64 permutation and ten gathered sub-clouds held more than
    # two clouds; the sub-cloud runs' draws of 25,000 tuples held 1.2 MB.
    def run():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            beta.cross_validate(solved_cloud, 10**5, task_stream(17, "beta", 17))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    with ThreadPoolExecutor(max_workers=1) as ex:
        monkeypatch.setattr(rngs, "_POOL", ex)
        peak = run()
    m = solved_cloud.size
    assert peak <= 4 * m + 8 * (m // beta._SPLIT) + 4 * 8 * rde._BLOCK


@pytest.mark.parametrize("m", [1, 5, 9])
def test_cross_validate_refuses_a_cloud_smaller_than_the_split(m):
    # below 10 values a sub-cloud would be empty; with no generator, any draw would fail otherwise
    with pytest.raises(ValueError, match=f"M={m}"):
        beta.cross_validate(orc.constant_cloud(m, 1.5), 10**3, None)


# --- lattice values of the sub-clouds -----------------------------------------

def _mutant(fn, old: str, new: str):
    """fn recompiled from its source with `old` (which must occur once)
    replaced by `new`, in a copy of its module's namespace: a planted fault."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


LATTICE_FAULTS = {  # each planted in `beta._lattice_values` or `beta._table_means`
    "g-without-x-weight": ("_lattice_values", "_convolve(xp[::-1], ", "_convolve(p[::-1], "),
    "sigma-for-sigma-minus-one": ("_lattice_values", "/ (sigma - 1.0)", "/ sigma"),
    "B-without-its-A-term": ("_table_means", " + np.log1p(-lo) * a", ""),
}
LATTICE_H = [0.01, 0.005, 0.0025, 0.00125]


@pytest.fixture(scope="module")
def small_cloud(solved_cloud):
    """200 sorted values of the fixture cloud, one from each of its 200 quantile blocks."""
    return solved_cloud.samples[2500::5000].copy()


def _converges_as_h_squared(values, s, monkeypatch) -> bool:
    """Whether the moment and the triple of values(s) converge to their exact
    means over all pairs and triples of s as h^2 on LATTICE_H.  The moment
    stays within its split bound: a value split onto two nodes about itself
    has variance at most h^2/4, so it moves E[C0 C1/(C0+C1-1)] by at most
    h^2/8 times the largest |second derivative| in its argument, at most
    1/2 for C >= 1; that is h^2/8 over both arguments, and the moment moves
    by 0.5 a^2/b^2 times that.  Each halving of h divides both
    errors by 4 (within 3.5 to 4.5), and at the finest h both lie within
    1e-7."""
    exact = orc.moment_and_triple_exact(s)
    scale = 0.5 * (2.0 * exact[0] + 1.0) ** 2 / s.mean() ** 2  # 0.5 a^2/b^2, as a^2/b = 2 moment + 1
    errors = []
    for h in LATTICE_H:
        monkeypatch.setattr(rde, "_LATTICE_H", h)
        errors.append(np.subtract(values(s)[:2], exact))
    errors = np.array(errors)
    within = np.all(np.abs(errors[:, 0]) <= scale * np.square(LATTICE_H) / 8.0)
    ratios = errors[:-1] / errors[1:]
    return bool(within and np.all((3.5 <= ratios) & (ratios <= 4.5)) and np.max(np.abs(errors[-1])) <= 1e-7)


def test_lattice_values_converge_to_the_exact_means_as_h_squared(small_cloud, monkeypatch):
    assert _converges_as_h_squared(beta._lattice_values, small_cloud, monkeypatch)


@pytest.mark.parametrize("fault", ["g-without-x-weight", "sigma-for-sigma-minus-one"])
def test_lattice_convergence_catches_a_planted_fault(small_cloud, monkeypatch, fault):
    name, old, new = LATTICE_FAULTS[fault]
    assert not _converges_as_h_squared(_mutant(getattr(beta, name), old, new), small_cloud, monkeypatch)


def _table_means_match_quadrature(table_means, table) -> bool:
    """Whether A and B of `beta._table_means` equal their defining means over
    U, the table read by np.interp at x = U + (1 - U) lo, by adaptive
    quadrature with a break at every node of the table, to 1e-12."""
    grid = beta.TABLE_GRID
    lo = 1.0 / np.array([2.0, 2.01, 2.5, 3.7, 10.0, 123.4, 1e6])
    got = table_means(table, lo)
    for i, x in enumerate(lo):
        def read(u):
            return np.interp(u + (1.0 - u) * x, grid, table)

        breaks = (grid[(grid > x) & (grid < 1.0)] - x) / (1.0 - x)
        want = [quad(read, 0.0, 1.0, points=breaks, limit=1000)[0],
                quad(lambda u: read(u) * -np.log1p(-u), 0.0, 1.0, points=breaks, limit=1000)[0]]
        if np.max(np.abs(np.subtract([got[0][i], got[1][i]], want))) > 1e-12:
            return False
    return True


def test_table_means_are_exact_for_the_read_table(solved_cloud):
    assert _table_means_match_quadrature(beta._table_means, beta.kappa_table(solved_cloud))


def test_table_means_catch_a_planted_fault(solved_cloud):
    name, old, new = LATTICE_FAULTS["B-without-its-A-term"]
    assert not _table_means_match_quadrature(_mutant(getattr(beta, name), old, new),
                                             beta.kappa_table(solved_cloud))


def _lattice_zs(solved_cloud) -> list:
    """z of each lattice value of the fixture cloud against its estimator's
    tuple estimate, over the tuple standard error alone: the cloud is the same."""
    lattice = beta._lattice_values(solved_cloud.samples)
    ests = [fn(solved_cloud, 10**6, task_stream(40, "beta", i))
            for i, fn in enumerate((beta.beta_moment, beta.beta_triple, beta.beta_shift))]
    return [rde.z_score(v - e.value, e.std_error) for v, e in zip(lattice, ests)]


def test_lattice_values_agree_with_the_tuple_estimates(solved_cloud):
    assert np.max(np.abs(_lattice_zs(solved_cloud))) <= 4


def test_lattice_agreement_catches_a_planted_table_fault(solved_cloud, monkeypatch):
    name, old, new = LATTICE_FAULTS["B-without-its-A-term"]
    monkeypatch.setattr(beta, name, _mutant(getattr(beta, name), old, new))
    assert abs(_lattice_zs(solved_cloud)[2]) > 4


def test_lattice_values_keep_an_outlier_within_the_node_cap(small_cloud, monkeypatch):
    sizes, convolve = [], rde._convolve
    monkeypatch.setattr(beta, "_convolve", lambda a, b: sizes.append(a.size + b.size) or convolve(a, b))
    values = beta._lattice_values(np.append(small_cloud, 1e12))
    assert np.all(np.isfinite(values))
    assert max(sizes) <= 4 * rde._LATTICE_NODES


def test_cloud_terms_are_the_spread_of_the_sub_cloud_lattice_values(solved_cloud):
    ests, _ = beta.cross_validate(solved_cloud, 10**5, task_stream(41, "beta", 41))
    parts = beta._split(solved_cloud, task_stream(41, "beta", 41).spawn(4)[3], beta._SPLIT)
    values = np.array([beta._lattice_values(np.sort(solved_cloud.samples[part])) for part in parts])
    assert [e.cloud_std_error for e in ests] == [rde.se_of_mean(column) for column in values.T]


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
    and denominator, the shift's branch entropy and -log(1-U) (exactly 1),
    under a kappa table of ones."""
    monkeypatch.setattr(beta, "_stratified", draw)
    monkeypatch.setattr(beta, "kappa_table", lambda cloud: np.ones(beta.TABLE_GRID.size))
    batch = 50  # not a multiple of the cloud size: strata straddle cloud values
    sums, batch_sums = [], beta._batch_sums
    monkeypatch.setattr(beta, "_batch_sums", lambda *a: sums.append(batch_sums(*a)) or sums[-1])
    beta.beta_moment(TINY, batch * beta._BATCHES, task_stream(30, "beta", 30))
    beta.beta_triple(TINY, batch * beta._BATCHES, task_stream(31, "beta", 31))
    beta.beta_shift(TINY, batch * beta._BATCHES, task_stream(32, "beta", 32))
    means = [sums[0] / batch, *(sums[1] / batch).T, *(sums[2] / batch).T]
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
def test_stratified_error_bars_are_calibrated(solved_cloud, fn):
    # the kappa table is a function of the cloud, so the shift's spread is its tuple noise alone
    ests = [fn(solved_cloud, 10**5, task_stream(seed, "beta", 34)) for seed in range(20)]
    spread = np.std([e.value for e in ests], ddof=1)
    assert 0.6 <= spread / np.mean([e.std_error for e in ests]) <= 1.6


@pytest.mark.parametrize("chunk, rows, sizes", [(7, 1, {7, 6}), (64, 3, {20}), (beta._CHUNK, 10, {20})])
def test_each_draw_is_stratified_row_by_row(solved_cloud, monkeypatch, chunk, rows, sizes):
    # a batch of 20 larger than the chunk is drawn, and stratified, in pieces of 7, 7 and 6
    monkeypatch.setattr(beta, "_CHUNK", chunk)
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
