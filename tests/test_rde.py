import inspect
import struct
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import oracles as orc
import pytest

from gwharmonic import beta, experiments, rde, rngs
from gwharmonic.rngs import task_stream


# ---------------------------------------------------------------------------
# the single-step map
# ---------------------------------------------------------------------------


def test_phi_step_from_all_ones():
    rng = task_stream(1, "rde", 1)
    cloud = orc.constant_cloud(10**6)
    out = rde.phi_step(cloud, rng)
    # law of 2/(1+U): mean 2 log 2
    assert out.samples.mean() == pytest.approx(2 * np.log(2), abs=0.002)
    assert out.samples.min() >= 1.0
    assert out.samples.max() <= 2.0
    assert out.iteration_count == 1


def test_phi_step_support_bounds(solved_cloud):
    rng = task_stream(2, "rde", 2)
    out = rde.phi_step(solved_cloud, rng)
    assert out.samples.min() >= 1.0
    assert out.samples.max() <= 2.0 * solved_cloud.samples.max()
    assert np.all(np.diff(out.samples) >= 0)


@pytest.mark.parametrize("m, chunk", [(1000, 1 << 20), (2**17, 1 << 20),  # one chunk, as before
                                      (2**17 + 1, rde._CHUNK), (3 * 2**17 + 5, rde._CHUNK)])
def test_phi_step_matches_the_serial_chunk_loop(m, chunk):
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(14, "rde", 14).random(m)), 3, 14)
    out = rde.phi_step(cloud, task_stream(15, "rde", 15))
    ref = orc.phi_step_serial(cloud, task_stream(15, "rde", 15), chunk)
    assert np.array_equal(out.samples, ref.samples)
    assert (out.iteration_count, out.seed) == (4, 14)


def _same_state(a, b) -> bool:
    x, y = a.bit_generator.state, b.bit_generator.state
    return (np.array_equal(x["state"]["state"], y["state"]["state"])
            and (x["has_uint32"], x["uinteger"]) == (y["has_uint32"], y["uinteger"]))


@pytest.mark.parametrize("m", [1000, 10**6, 2**31 - 1])
def test_task_stream_draws_do_not_depend_on_how_a_draw_is_split(m):
    # phi_step draws each chunk's indices and uniforms in blocks: it relies on these equalities
    n, pieces = 10**6, [1, 3, 65536, 131071]
    one, split = (task_stream(31, "rde", 31) for _ in range(2))
    whole = one.integers(0, m, size=n)
    parts = [split.integers(0, m, size=k) for k in [*pieces, n - sum(pieces)]]
    assert np.array_equal(whole, np.concatenate(parts)) and _same_state(one, split)
    u, v = one.random(n), np.empty(n)
    for lo, hi in zip([0, 1, 4, 65540, 196611], [1, 4, 65540, 196611, n]):
        split.random(out=v[lo:hi])
    assert np.array_equal(u, v) and _same_state(one, split)


@pytest.mark.parametrize("n", [1, 2, 12_345, 10**6])
def test_a_shuffled_int32_arange_is_the_permutation(n):
    # beta._split shuffles an int32 arange in place for `permutation(n)`
    one, other = task_stream(38, "beta", 38), task_stream(38, "beta", 38)
    perm = np.arange(n, dtype=np.int32)
    other.shuffle(perm)
    assert np.array_equal(one.permutation(n), perm) and _same_state(one, other)


class _FlatPool(ThreadPoolExecutor):
    """A thread pool whose `submit` raises in its own worker threads: a task
    that waits on the pool would wait forever with one worker."""

    def __init__(self, workers):
        super().__init__(max_workers=workers, thread_name_prefix="flat-pool")

    def submit(self, *args, **kwargs):
        if threading.current_thread().name.startswith("flat-pool"):
            raise RuntimeError("a pool task submitted to the pool")
        return super().submit(*args, **kwargs)


def _under_pool(monkeypatch, workers, run):
    """run() with the package's thread pool replaced by a `_FlatPool` of
    `workers` threads."""
    with _FlatPool(workers) as ex:
        monkeypatch.setattr(rngs, "_POOL", ex)
        return run()


def test_flat_pool_refuses_a_nested_task(monkeypatch):
    def nested():
        return rngs.pool().submit(int).result()

    with pytest.raises(RuntimeError, match="submitted to the pool"):
        _under_pool(monkeypatch, 2, lambda: rngs.pool().submit(nested).result())


def _estimates_and_z(ests, z):
    return [e.to_dict() for e in ests], z.tolist()


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # every pool user, under a pool that refuses nested tasks, with 1 and 2 workers
    m = 3 * 2**17 + 5  # four phi_step chunks, the last one short

    def run():
        res = rde.solve_fixpoint(m, 5e-3, 20, task_stream(16, "rde", 16), seed=16)
        cloud = res.cloud
        return (rde.phi_step(cloud, task_stream(17, "rde", 17)).samples, cloud.samples, res.trace,
                rde.estimate_floor(cloud),
                rde.fixed_point_residuals(cloud, [0.5, 1.0, 2.0, 4.0]),
                _estimates_and_z(*beta.cross_validate(cloud, 10**5, task_stream(19, "beta", 19))),
                beta.kappa_table(cloud),
                [fn(cloud, 10**5, task_stream(22, "beta", 22)).to_dict()
                 for fn in (beta.beta_moment, beta.beta_triple, beta.beta_shift)],
                experiments.beta_reference(cloud, task_stream(23, "beta", 23)).to_dict())

    one, two = (_under_pool(monkeypatch, w, run) for w in (1, 2))
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
    assert np.array_equal(one[6], two[6])
    assert one[2:6] == two[2:6] and one[7:] == two[7:]
    assert two[5][0][0]["cloud_std_error"] > 0  # the sub-cloud runs took part


def test_two_steps_from_point_mass_at_infinity_proxy():
    # F_{Phi^2(delta_inf)}(t) <= 4/t^2
    rng = task_stream(3, "rde", 3)
    cloud = orc.constant_cloud(10**5, 1e9)
    out = rde.phi_step(rde.phi_step(cloud, rng), rng)
    for t in (4.0, 8.0, 16.0):
        bound = 4.0 / t**2
        sigma = np.sqrt(bound * (1 - bound) / out.size)
        assert rde.tail_cdf(out, t) <= bound + 3 * sigma


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------


def test_wasserstein_identical_and_translation(solved_cloud):
    sub = rde.ParticleCloud(solved_cloud.samples[: 10**5].copy())
    assert rde.wasserstein1(sub, sub) == 0.0
    shifted = rde.ParticleCloud(sub.samples + 0.7)
    assert rde.wasserstein1(sub, shifted) == pytest.approx(0.7, abs=1e-12)


def test_wasserstein_unequal_sizes_consistency():
    rng = task_stream(4, "rde", 4)
    x = np.sort(1.0 + rng.random(10**4))
    a = rde.ParticleCloud(x)
    doubled = rde.ParticleCloud(np.sort(np.concatenate([x, x])))
    # same empirical quantile function -> zero distance on the common grid
    assert rde.wasserstein1(a, doubled) == pytest.approx(0.0, abs=1e-12)
    b = rde.ParticleCloud(np.sort(1.0 + rng.random(3 * 10**4)))
    d = rde.wasserstein1(a, b)
    assert 0.0 <= d < 0.02


# sizes fixed in advance: equal sizes, small clouds, powers of two (where
# (2i+1)n/2K lands on integers), and n just short of K
_D1_SIZES = [(n, k) for k in (10**4, 2**16, 3 * 2**16 + 17)
             for n in (1, 2, 3, 200, 256, 1000, k // 2, k - 1, k)]


@pytest.mark.parametrize("n, k", _D1_SIZES)
def test_wasserstein1_matches_the_grid_oracle(n, k):
    rng = task_stream(24, "rde", 24)
    a = rde.ParticleCloud(np.sort(1.0 + rng.exponential(size=n)))
    b = rde.ParticleCloud(np.sort(1.0 + rng.exponential(size=k)))
    assert rde.wasserstein1(a, b) == orc.wasserstein1_grid(a, b)
    assert rde.wasserstein1(b, a) == orc.wasserstein1_grid(b, a)


def _traced_peak(run) -> int:
    """The traced peak of run() above the memory traced when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 7, 8, 128, 129, rde._BLOCK, rde._BLOCK + 1, 3 * 2**17 + 5, 10**6])
def test_pairwise_sum_is_numpys_whole_array_sum(n):
    v = task_stream(32, "rde", 32).standard_normal(n) * 1e3
    assert rde._pairwise_sum(lambda lo, hi: v[lo:hi], 0, n) == np.add.reduce(v)


@pytest.mark.parametrize("n, k", [(200, 2**20), (2**20, 200), (2**20, 2**20)])
def test_d1_allocates_one_cloud_buffer(n, k):
    rng = task_stream(26, "rde", 26)
    a = rde.ParticleCloud(np.sort(1.0 + rng.random(n)))
    b = rde.ParticleCloud(np.sort(1.0 + rng.random(k)))
    peak = _traced_peak(lambda: rde.wasserstein1(a, b))
    # unequal sizes spread the smaller cloud over the K levels; equal sizes
    # hold one gap block at a time
    assert peak <= (2**20 if n == k else 1.5 * max(a.samples.nbytes, b.samples.nbytes))


def test_floor_holds_no_cloud_size_buffer():
    m = 2**20
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(33, "rde", 33).random(m)))
    # a few _BLOCK buffers of gap terms
    assert _traced_peak(lambda: rde.estimate_floor(cloud)) <= 2**20


def test_solver_holds_two_clouds(monkeypatch):
    m = 2**20
    # the start cloud's buffer and one more, which the steps write in turn;
    # each of the two workers holds a few _BLOCK buffers
    peak = _under_pool(monkeypatch, 2, lambda: _traced_peak(
        lambda: rde.solve_fixpoint(m, 1e-9, 2, task_stream(35, "rde", 35), seed=35)))
    assert peak <= 2 * 8 * m + 2 * 2**20


def test_contraction_audit():
    # coupled steps contract d1 by at most 2(1 - log 2) ~ 0.6137
    rng = task_stream(5, "rde", 5)
    a = orc.constant_cloud(10**5, 1.0)
    b = orc.constant_cloud(10**5, 3.0)
    d0 = rde.wasserstein1(a, b)
    assert d0 == pytest.approx(2.0)
    fa, fb = orc.phi_step_coupled(a, b, rng)
    d1 = rde.wasserstein1(fa, fb)
    assert d1 / d0 <= 0.62
    fa2, fb2 = orc.phi_step_coupled(fa, fb, rng)
    assert rde.wasserstein1(fa2, fb2) / d1 <= 0.65  # Monte Carlo slack


# ---------------------------------------------------------------------------
# the fixed point
# ---------------------------------------------------------------------------


def test_solver_converges_and_mean(solved_cloud):
    # from the grid start the first step's d1 is Monte Carlo noise, below tol
    assert solved_cloud.iteration_count <= 3
    assert orc.moment(solved_cloud, 1) == pytest.approx(1.72, abs=0.03)


# The two-starts test's M.  Its d1 bound 2 tol must hold the constant start's
# bias at stop plus the noise of two clouds.  The bias is at most
# tol rho/(1-rho) = 1.589 tol (rho = 2(1-log 2)), leaving 0.411 tol = 1.23e-3 at
# tol 3e-3.  A solved cloud's d1 from the grid law's quantiles read, over seeds
# 1-12 at M = 3e5, a median 1.6e-3 and a largest 3.9e-3, and shrinks as
# M^-1/2.  At M = 4e6 that is a median 0.44e-3 (two clouds 0.88e-3, below
# 1.23e-3) and a largest 1.07e-3; two of those fit too while the bias stays
# below 1.29 tol (the constant starts read at most 1.0 tol at M = 1e6 to 8e6).
_TWO_STARTS_M = 4 * 10**6


@pytest.fixture(scope="module")
def grid_solved():
    return rde.solve_fixpoint(_TWO_STARTS_M, 3e-3, 60, task_stream(7, "rde", 7))


@pytest.mark.parametrize("value", [1.0, 3.0], ids=["all-ones", "all-threes"])
def test_unique_fixed_point_from_two_starts(grid_solved, value):
    # the grid start against a constant start run through the solver's former loop
    tol, m = 3e-3, _TWO_STARTS_M
    cloud, trace, converged = orc.solve_from(orc.constant_cloud(m, value), tol, 60,
                                             task_stream(8, "rde", 8))
    assert grid_solved.converged and converged
    assert isinstance(grid_solved.start_law, rde.GridLaw)
    assert len(grid_solved.trace) < len(trace)
    assert rde.wasserstein1(grid_solved.cloud, cloud) <= 2 * tol


def test_polish_steps_follow_the_first_step_below_tol():
    # tol is the stream's own first d1, so the first step is not below it and
    # the first crossing is the first later step with a smaller d1 (from the
    # grid start the first step is the least noisy, so that takes a while)
    m, steps = 10**4, 80
    unpolished = rde.solve_fixpoint(m, 0.0, steps, task_stream(10, "rde", 10)).trace
    tol = unpolished[0][1]
    plain = rde.solve_fixpoint(m, tol, steps, task_stream(10, "rde", 10))
    res = rde.solve_fixpoint(m, tol, steps, task_stream(10, "rde", 10), polish=3)
    first = next(i for i, d in res.trace if d < tol)
    assert plain.converged and res.converged
    assert first > 1 and len(res.trace) == first + 3 and res.trace[:first] == plain.trace
    assert [i for i, _ in res.trace] == list(range(1, first + 4)) and res.cloud.iteration_count == first + 3
    # the polish steps are the unpolished run's next steps, taken whatever
    # their d1: here some lie above tol
    assert res.trace == unpolished[: first + 3]
    assert sum(d >= tol for _, d in res.trace[first:]) > 0
    # without convergence: exactly max_iters steps and no polish step
    below_all = min(d for _, d in unpolished[:12])
    stuck = rde.solve_fixpoint(m, below_all, 12, task_stream(10, "rde", 10), polish=3)
    assert not stuck.converged and len(stuck.trace) == 12 and stuck.cloud.iteration_count == 12


def test_fixed_point_consistency(solved_cloud):
    rng = task_stream(9, "rde", 9)
    stepped = rde.phi_step(solved_cloud, rng)
    floor = rde.estimate_floor(solved_cloud)
    assert rde.wasserstein1(solved_cloud, stepped) <= 2e-3 + 2 * floor


def _floor_problems(estimate_floor) -> list[int]:
    """The M, of 1e3 and 1e4, at which estimate_floor of the grid law's quantile
    cloud lies 3 or more standard errors from the mean of 200 oracle
    bootstrap d1s (their SD is about 0.38 of their mean, so 3 SE is 8%)."""
    problems = []
    for m in (10**3, 10**4):
        cloud, rng = rde.grid_law().quantile_cloud(m, 0), task_stream(36, "rde", 36)
        d1s = [orc.bootstrap_d1(cloud, rng) for _ in range(200)]
        if abs(rde.z_score(estimate_floor(cloud) - np.mean(d1s), rde.se_of_mean(d1s))) >= 3:
            problems.append(m)
    return problems


def test_floor_is_the_mean_bootstrap_d1():
    assert _floor_problems(rde.estimate_floor) == []


@pytest.mark.parametrize("old, new", [("math.sqrt(math.pi * m)", "math.sqrt(math.pi) * m"),  # 1/M, not 1/sqrt(M)
                                      ("q *= 1.0 - q", "q *= 1.0")],  # sqrt(q), not sqrt(q (1 - q))
                         ids=["one-over-M", "sqrt-q"])
def test_floor_check_fails_on_planted_faults(old, new):
    assert _floor_problems(_mutated(rde.estimate_floor, old, new)) == [10**3, 10**4]


@pytest.mark.parametrize("m", [2, 2**10, 3 * 2**16 + 5])
def test_floor_of_an_equally_spaced_cloud_is_the_riemann_sum(m):
    # every gap is h exactly, so the sum is h M times the Riemann sum of
    # int_0^1 sqrt(q (1 - q)) dq = pi/8, whose error the ends' square roots
    # keep below M^-3/2
    h = 2.0**-20
    riemann = sum(np.sqrt(i / m * (1 - i / m)) for i in range(1, m)) / m
    floor = rde.estimate_floor(rde.ParticleCloud(1.0 + h * np.arange(m)))
    assert floor == pytest.approx(2 * h * m * riemann / np.sqrt(np.pi * m), rel=1e-12)
    assert abs(riemann - np.pi / 8) < m**-1.5


def test_nonconvergence_is_reported_not_raised():
    rng = task_stream(10, "rde", 10)
    res = rde.solve_fixpoint(10**4, 1e-9, 5, rng)
    assert not res.converged
    assert len(res.trace) == 5


# ---------------------------------------------------------------------------
# the grid law
# ---------------------------------------------------------------------------

EXACT_MEAN_C = 1.7227572850  # by shooting the Laplace ODE from l = 0
GRID_STEPS = (0.04, 0.02, 0.01)


def _grid_problems(grid_law) -> list[str]:
    """The checks on `grid_law(h)` over GRID_STEPS, bounds fixed before the
    first run: E[C] within 1e-4 of exact at h = 0.02, E[C^2] - 2 E[C] (zero
    for the exact law) within 2e-4 there, and both falling as h^2: each
    halving of h divides them by 3.5 to 4.5."""
    err, res = [], []
    for h in GRID_STEPS:
        law = grid_law(h)
        p, x = np.diff(law.cdf), law.edges[1:] - h / 2.0
        err.append(p @ x - EXACT_MEAN_C)
        res.append(p @ x**2 - 2.0 * (p @ x))
    problems = []
    for name, v, bound in (("E[C] error", err, 1e-4), ("E[C^2] - 2E[C]", res, 2e-4)):
        if not abs(v[1]) <= bound:
            problems.append(f"{name} {v[1]:.2e} at h=0.02")
        ratios = np.array(v[:-1]) / np.array(v[1:])
        if not np.all((ratios >= 3.5) & (ratios <= 4.5)):
            problems.append(f"{name} ratios {ratios} per halving of h")
    return problems


def test_grid_law_converges_as_h_squared():
    assert _grid_problems(rde.grid_law) == []
    assert rde.grid_law().summary()["K0"] == pytest.approx(1.4713, abs=2e-4)


def _mutated(fn, old: str, new: str):
    """fn recompiled in its module's namespace from its source, with the one
    occurrence of `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def test_grid_law_checks_fail_on_planted_faults(monkeypatch):
    # the tail term without its (1 - 1/c)
    no_factor = _mutated(rde.grid_law, "(1.0 - 1.0 / edges) * above[k]", "above[k]")
    with np.errstate(invalid="ignore"):
        assert _grid_problems(no_factor) != []
    # S built from one copy of the law: the masses of 2 X1, not X1 + X2
    monkeypatch.setattr(rde, "_self_convolution",
                        lambda p: np.bincount(2 * np.arange(p.size), p, 2 * p.size - 1))
    assert _grid_problems(rde.grid_law) != []


def test_self_convolution_is_the_direct_sum():
    p = task_stream(29, "rde", 29).random(777)
    assert np.allclose(rde._self_convolution(p), np.convolve(p, p), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sizes", [(1, 1), (777, 300), (300, 2330)])
def test_convolve_is_the_direct_sum(sizes):
    a, b = (task_stream(30, "rde", n).random(n) for n in sizes)
    assert np.allclose(rde._convolve(a, b), np.convolve(a, b), rtol=1e-12, atol=1e-12)


def test_rebin_splits_each_value_between_its_two_nodes():
    # 1.005 halves between nodes 0 and 1, 1.0 and 1.02 sit on nodes 0 and 2
    p, h = rde._rebin(np.array([1.0, 1.005, 1.02]))
    assert h == rde._LATTICE_H and p.size == 4
    assert p == pytest.approx([0.5, 1 / 6, 1 / 3, 0.0], abs=1e-12)
    s = np.sort(1.0 + task_stream(34, "rde", 34).exponential(size=2**20 + 5))
    p, h = rde._rebin(s)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p @ (1.0 + h * np.arange(p.size)) == pytest.approx(s.mean(), rel=1e-12)
    assert _traced_peak(lambda: rde._rebin(s)) <= 2**20  # a few _BLOCK buffers and the masses


def test_rebin_bounds_the_lattice_whatever_the_largest_value():
    # one value at 1e12 would need 1e14 nodes at h = 0.01: h coarsens instead
    s = np.r_[np.linspace(1.0, 3.0, 999), 1e12]
    p, h = rde._rebin(s)
    assert p.size <= 2**16 and h > rde._LATTICE_H
    assert p @ (1.0 + h * np.arange(p.size)) == pytest.approx(s.mean(), rel=1e-12)


def test_quantile_cloud_is_one_chunked_output():
    law = rde.grid_law()
    m = 4 * rde._CHUNK + 12345
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cloud = law.quantile_cloud(m, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the output, which holds the levels, and one chunk of interp output; one
    # interp over an m-length level array would hold two more clouds' worth
    assert peak <= 8 * m + 1.5 * 8 * rde._CHUNK
    assert np.array_equal(cloud.samples, np.interp((np.arange(m) + 0.5) / m, law.cdf, law.edges))
    assert (cloud.size, cloud.iteration_count, cloud.seed) == (m, 0, 5)
    cloud.validate()


# ---------------------------------------------------------------------------
# error bars, moments and identities
# ---------------------------------------------------------------------------


def test_se_of_mean_and_z_score():
    assert rde.se_of_mean(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(np.sqrt(5.0 / 12.0))  # sd sqrt(5/3), n 4
    assert rde.z_score(3.0, 1.5) == 2.0
    assert rde.z_score(0.0, 0.0) == 0.0
    assert rde.z_score(2.0, 0.0) == np.inf and rde.z_score(-2.0, 0.0) == -np.inf


ELLS = [0.5, 1.0, 2.0, 4.0]
IDENTITY_ROWS = ["moment-identity-x", "moment-identity-x2", "integrated-laplace",
                 *(f"laplace-ode-l{ell:g}" for ell in ELLS)]


def z_of(res):
    """The z of a residual's row in `rde validate`."""
    return rde.z_score(res.residual, res.std_error)


def test_moment_identities_at_fixed_point(solved_cloud):
    rows, moments = rde.fixed_point_residuals(solved_cloud, ELLS)
    assert list(rows) == IDENTITY_ROWS
    for label, chk in rows.items():
        assert abs(z_of(chk)) < 3, f"{label}: z={z_of(chk)}"
    # the report's moments are `moment`'s, and the rows their polynomials
    m1, m2, m3 = (orc.moment(solved_cloud, k) for k in (1, 2, 3))
    assert moments == {"m1": m1, "m2": m2, "m3": m3}
    assert rows["moment-identity-x"].residual == m2 - 2 * m1
    assert rows["moment-identity-x2"].residual == 2 * m3 - 3 * m2 - 2 * m1 * m1


def test_integrated_laplace_is_the_negated_l1_row(solved_cloud):
    rows, _ = rde.fixed_point_residuals(solved_cloud, ELLS)
    chk, l1 = rows["integrated-laplace"], rows["laplace-ode-l1"]
    assert (chk.residual, chk.std_error) == (-l1.residual, l1.std_error)
    # and it is the tuple identity E[X(X-1)g'(X)] + E[g(X)] - E[g(X1+X2)] at g = exp(-x/2)
    x = solved_cloud.samples
    g = np.exp(-x / 2.0)
    assert chk.residual == pytest.approx(np.mean(-x * (x - 1.0) / 2.0 * g) + g.mean() - g.mean() ** 2,
                                         rel=1e-9, abs=1e-15)


def test_identity_negative_controls(solved_cloud):
    ones = orc.constant_cloud(10**5, 1.0)
    chk = rde.fixed_point_residuals(ones, [1.0])[0]["moment-identity-x"]
    assert chk.std_error == 0.0 and chk.residual == -1.0
    assert np.isinf(z_of(chk))
    # a wrong continuum law with real spread also fails loudly
    wrong = rde.ParticleCloud(np.sort(1.0 + 2.0 * task_stream(13, "rde", 13).random(10**5)))
    assert abs(z_of(rde.fixed_point_residuals(wrong, [1.0])[0]["moment-identity-x"])) > 5


def test_every_identity_fails_on_a_scaled_cloud(solved_cloud):
    # a planted fault: the solved law stretched by 10% keeps its order and support
    scaled = rde.ParticleCloud(1.1 * solved_cloud.samples, solved_cloud.iteration_count, solved_cloud.seed)
    rows, _ = rde.fixed_point_residuals(scaled, ELLS)
    assert {label: abs(z_of(chk)) > 5 for label, chk in rows.items()} == dict.fromkeys(IDENTITY_ROWS, True)


def test_fixed_point_residuals_hold_no_cloud_size_buffer(monkeypatch):
    m = 10**6  # many leaves: at 10^5 one leaf is half the cloud
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(30, "rde", 30).exponential(size=m)), 0, 30)
    # one worker: one task at a time, holding a leaf of three rows (the
    # moments, or phi and its derivatives); whole-cloud buffers held two clouds
    peak = _under_pool(monkeypatch, 1, lambda: _traced_peak(lambda: rde.fixed_point_residuals(cloud, ELLS)))
    assert peak <= 4 * 8 * rde._LEAF < 8 * m


@pytest.mark.parametrize("n", [2, 7, 8, 9, rde._LEAF - 1, rde._LEAF, rde._LEAF + 1, 3 * rde._LEAF + 5])
def test_block_means_and_errors_are_numpys_bit_for_bit(n):
    rows = task_stream(36, "rde", 36).standard_normal((3, n)) * 1e3 + 5e3
    means, errors = rde._means_and_errors(lambda lo, hi: rows[:, lo:hi].copy(), n)
    assert [float(v) for v in means] == [float(np.mean(r)) for r in rows]
    assert [float(v) for v in errors] == [rde.se_of_mean(r) for r in rows]


@pytest.mark.parametrize("m", [2, 9, 12_345, rde._LEAF + 1, 3 * rde._LEAF + 5, None], ids=str)
def test_fixed_point_residuals_equal_the_whole_cloud_buffers(m, solved_cloud):
    # None: the solved cloud, many leaves long
    cloud = solved_cloud if m is None else rde.ParticleCloud(
        np.sort(1.0 + task_stream(37, "rde", m).exponential(size=m)))
    assert rde.fixed_point_residuals(cloud, ELLS) == orc.fixed_point_residuals_whole(cloud, ELLS)


def test_fixed_point_residuals_read_the_values_alone():
    # no stream keyed on the header's seed: equal samples give equal rows
    s = np.sort(1.0 + task_stream(31, "rde", 31).exponential(size=5000))
    one, two = (rde.fixed_point_residuals(rde.ParticleCloud(s.copy(), 4, seed), ELLS) for seed in (1, 2))
    assert one == two


def test_fixed_point_residual_error_bars_are_calibrated():
    # over iid clouds the spread of each row matches its mean standard error;
    # a wrong gradient term (the -4 m1 x of moment-identity-x2, the factor e of
    # the Laplace rows) reads well outside the band
    rng = task_stream(32, "rde", 32)
    runs = [rde.fixed_point_residuals(rde.ParticleCloud(np.sort(1.0 + rng.exponential(size=2000))), ELLS)[0]
            for _ in range(400)]
    for label in IDENTITY_ROWS:
        spread = np.std([rows[label].residual for rows in runs], ddof=1)
        ratio = spread / np.mean([rows[label].std_error for rows in runs])
        assert 0.85 <= ratio <= 1.15, f"{label}: {ratio:.3f}"


def test_K0_value_and_bounds(solved_cloud):
    k0 = rde.estimate_K0(solved_cloud)
    assert k0 == pytest.approx(1.47, abs=0.05)
    assert 1.0 <= k0 <= 2.0
    inside = rde.ParticleCloud(np.linspace(1.0, 1.999, 1000))
    assert rde.estimate_K0(inside) == 2.0


def test_tail_cdf_edges(solved_cloud):
    assert rde.tail_cdf(solved_cloud, 1.0) == 1.0
    assert rde.tail_cdf(solved_cloud, solved_cloud.samples[-1] + 1.0) == 0.0


def test_tail_law_on_12(solved_cloud):
    # F(t) = K0/t + 1 - K0 on [1,2]
    k0 = rde.estimate_K0(solved_cloud)
    ts = np.linspace(1.0, 2.0, 101)
    gaps = [abs(rde.tail_cdf(solved_cloud, t) - (k0 / t + 1 - k0)) for t in ts]
    assert max(gaps) <= 5e-3
    # parameter recovered consistently at t=1.5 and t=2
    k0_15 = (1.0 - rde.tail_cdf(solved_cloud, 1.5)) / (1.0 - 1.0 / 1.5)
    assert k0_15 == pytest.approx(k0, abs=0.02)


def test_laplace_ode_residuals(solved_cloud):
    small = rde.fixed_point_residuals(solved_cloud, [1e-6, 1.0])[0]["laplace-ode-l1e-06"]
    assert abs(small.residual) < 1e-5  # residual -> phi(0)^2 - phi(0) = 0


@pytest.mark.parametrize("m", [1000, 12345])
def test_laplace_ode_residual_matches_the_serial_loop(m):
    # the residuals bit for bit; each standard error against the covariance
    # of the row's per-value functions
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(20, "rde", 20).exponential(size=m)), 0, 20)
    ells = [1e-6, 0.5, 1.0, 2.0, 4.0]
    (rows, moments), (want, want_moments) = (fn(cloud, ells) for fn in (rde.fixed_point_residuals,
                                                                         orc.fixed_point_residuals_serial))
    assert moments == want_moments and list(rows) == list(want)
    for label, res in rows.items():
        assert res.residual == want[label].residual, label
        assert res.std_error == pytest.approx(want[label].std_error, rel=1e-12, abs=0), label


def test_laplace_ode_negative_control():
    ones = orc.constant_cloud(10**5, 1.0)
    rows, _ = rde.fixed_point_residuals(ones, [1.0])
    chk = rows["laplace-ode-l1"]
    expected = np.exp(-1.0) - np.exp(-0.5)
    assert chk.residual == pytest.approx(expected, abs=1e-12)
    assert chk.std_error == 0.0 and np.isinf(abs(z_of(chk)))
    assert rows["integrated-laplace"].residual == -chk.residual


# ---------------------------------------------------------------------------
# cloud file format
# ---------------------------------------------------------------------------


def test_cloud_roundtrip(tmp_path, solved_cloud):
    small = rde.ParticleCloud(solved_cloud.samples[:5000].copy(), 12, 777)
    path = tmp_path / "cloud.txt"
    rde.save_cloud(small, path)
    back = rde.load_cloud(path)
    assert np.array_equal(back.samples, small.samples)
    assert back.iteration_count == 12 and back.seed == 777


def _binary_cloud(m, seed, iters, values) -> bytes:
    """The v3 file spelled one value at a time, independently of rde."""
    body = b"".join(struct.pack("<d", x) for x in values)
    return f"GAMMA-CLOUD v3 {m} {seed} {iters}\n".encode("ascii") + body


@pytest.mark.parametrize("size", [1, 2**16, 3 * 2**16 + 17])
def test_save_cloud_bytes_match_little_endian_binary64(tmp_path, solved_cloud, size):
    # awkward values: 1.0, the next double after it, a power of two with an
    # exponent, a cloud size that is not a power of two, one that is, M=1
    awkward = [1.0, 1.0 + 2.0**-52, 1.5, 2.0**40, 2.0**53 + 2.0, 1e300]
    picked = solved_cloud.samples[:max(size - len(awkward), 0)]
    samples = np.sort(np.concatenate((awkward, picked)))[:size]
    cloud = rde.ParticleCloud(samples, 3, 41)
    path = tmp_path / "cloud.txt"
    rde.save_cloud(cloud, path)
    assert path.read_bytes() == _binary_cloud(size, 41, 3, samples)
    back = rde.load_cloud(path).samples
    assert np.array_equal(back.view(np.uint64), samples.view(np.uint64))


def _v3(m, *values) -> bytes:
    """A v3 file whose count field says m, holding `values` (floats, or raw
    8-byte patterns as ints)."""
    body = b"".join(struct.pack("<Q", x) if isinstance(x, int) else struct.pack("<d", x) for x in values)
    return f"GAMMA-CLOUD v3 {m} 0 0\n".encode("ascii") + body


def test_cloud_format_errors(tmp_path):
    cases = [
        (b"WRONG" + _v3(2, 1.0, 2.0)[11:], "magic"),
        (_v3(2, 1.0, 2.0).replace(b"v3", b"v9"), "version"),
        (b"GAMMA-CLOUD v3 2 0 x\n" + _v3(2, 1.0, 2.0)[21:], "non-integer"),
        (_v3(2, 1.0), "count"),  # a short body
        (_v3(2, 1.0, 2.0)[:-1], "count"),  # one byte short
        (_v3(2, 1.0, 2.0) + b"\n", "count"),  # one trailing byte
        (_v3(2, 2.0, 1.0), "sorted"),
        (_v3(2, 0.5, 1.5), "support"),
        (_v3(2, 1.0, 0x7FF8000000000000), "non-finite"),  # a NaN bit pattern
        (_v3(2, 1.0, 0x7FF0000000000000), "non-finite"),  # +inf
        (_v3(0), "empty"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n4000000000000000\n", "unsupported version 'v2'.*rde solve"),
        (b"GAMMA-CLOUD v1 2 0 0\n1\n2\n", "unsupported version 'v1'.*rde solve"),
    ]
    path = tmp_path / "bad.txt"
    for text, match in cases:
        path.write_bytes(text)
        with pytest.raises(rde.CloudFormatError, match=match):
            rde.load_cloud(path)


@pytest.mark.parametrize("count", [10**15, -1])
def test_cloud_count_is_checked_before_any_allocation(tmp_path, monkeypatch, count):
    path = tmp_path / "bad.txt"
    path.write_bytes(f"GAMMA-CLOUD v3 {count} 0 0\n".encode("ascii").ljust(40, b"\0"))
    assert path.stat().st_size == 40

    def refused(*a, **k):
        raise AssertionError("the body was read before the count was checked")

    monkeypatch.setattr(np, "fromfile", refused)
    monkeypatch.setattr(np, "empty", refused)
    with pytest.raises(rde.CloudFormatError, match="count"):
        rde.load_cloud(path)


def test_cloud_codec_holds_at_most_64_kib_beyond_the_samples(tmp_path):
    # beyond the samples array load_cloud returns, neither side holds a copy
    # of the values or of the file; save_cloud writes without one on a
    # little-endian host, where "<f8" is the native float64
    m = 2**20
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(28, "rde", 28).random(m)), 3, 28)
    path = tmp_path / "cloud.txt"
    calls = [(lambda: rde.load_cloud(path), 8 * m)]
    if sys.byteorder == "little":
        calls.insert(0, (lambda: rde.save_cloud(cloud, path), 0))
    else:
        rde.save_cloud(cloud, path)
    peaks = []
    tracemalloc.start()
    try:
        for call, extra in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base - extra)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 64 * 1024, peaks


@pytest.mark.parametrize("i", [0, 2**15 - 2, 2**15 - 1, 2**15, 2**16 + 3])
def test_validate_finds_a_fault_at_every_block_edge(i):
    # validate compares neighbours in blocks of 2^14 pairs, so 2^15 is an
    # edge; a fault on either side of an edge is found, and a NaN or inf
    # inside an ordered run is named as non-finite, not as unsorted
    s = 1.0 + np.arange(2**16 + 5) / 2**16
    swapped = s.copy()
    swapped[[i, i + 1]] = s[[i + 1, i]]
    for bad, match in ((swapped, "sorted"), (np.where(np.arange(s.size) == i + 1, np.nan, s), "non-finite"),
                       (np.where(np.arange(s.size) >= i + 1, np.inf, s), "non-finite")):
        with pytest.raises(rde.CloudFormatError, match=match):
            rde.ParticleCloud(bad).validate()
    rde.ParticleCloud(s).validate()
