import struct
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
    cloud = rde.constant_cloud(10**6)
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


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # every pool user, under a pool that refuses nested tasks, with 1 and 2 workers
    m = 3 * 2**17 + 5  # four phi_step chunks, the last one short

    def run():
        res = rde.solve_fixpoint(m, 5e-3, 20, task_stream(16, "rde", 16), seed=16)
        cloud = res.cloud
        return (rde.phi_step(cloud, task_stream(17, "rde", 17)).samples, cloud.samples, res.trace,
                rde.estimate_floor(cloud, task_stream(18, "rde", 18)),
                rde.laplace_ode_residual(cloud, [0.5, 1.0, 2.0, 4.0]),
                beta.cross_validate(cloud, 10**5, task_stream(19, "beta", 19)).to_dict(),
                [rde.check_identity(cloud, spec, task_stream(20, "rde", 20))
                 for spec in (("monomial", 1), ("monomial", 2), ("exp", 1.0))],
                beta.kappa_table(cloud, task_stream(21, "beta", 21)),
                [fn(cloud, 10**5, task_stream(22, "beta", 22)).to_dict()
                 for fn in (beta.beta_moment, beta.beta_triple, beta.beta_shift)],
                experiments.beta_reference(cloud, task_stream(23, "beta", 23)).to_dict())

    one, two = (_under_pool(monkeypatch, w, run) for w in (1, 2))
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
    assert np.array_equal(one[7], two[7])
    assert one[2:7] == two[2:7] and one[8:] == two[8:]
    assert two[5]["estimates"][0]["cloud_std_error"] > 0  # the sub-cloud runs took part
    # the floor is the serial draw: both index vectors from one stream, a's first
    rng, s = task_stream(18, "rde", 18), one[1]
    a = np.sort(s[rng.integers(0, m, size=m)])
    assert two[3] == float(np.mean(np.abs(a - np.sort(s[rng.integers(0, m, size=m)]))))


def test_two_steps_from_point_mass_at_infinity_proxy():
    # F_{Phi^2(delta_inf)}(t) <= 4/t^2
    rng = task_stream(3, "rde", 3)
    cloud = rde.constant_cloud(10**5, 1e9)
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
    if n == k:
        # the floor is the equal-size d1 of two sorted resamples, both index
        # vectors from one stream, a's first
        floor = rde.estimate_floor(b, task_stream(25, "rde", 25))
        rng, s = task_stream(25, "rde", 25), b.samples
        ra = rde.ParticleCloud(np.sort(s[rng.integers(0, k, size=k)]))
        rb = rde.ParticleCloud(np.sort(s[rng.integers(0, k, size=k)]))
        assert floor == orc.wasserstein1_grid(ra, rb)


@pytest.mark.parametrize("n, k", [(200, 2**20), (2**20, 200), (2**20, 2**20)])
def test_d1_allocates_one_cloud_buffer(n, k):
    rng = task_stream(26, "rde", 26)
    a = rde.ParticleCloud(np.sort(1.0 + rng.random(n)))
    b = rde.ParticleCloud(np.sort(1.0 + rng.random(k)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rde.wasserstein1(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * max(a.samples.nbytes, b.samples.nbytes)


def test_contraction_audit():
    # coupled steps contract d1 by at most 2(1 - log 2) ~ 0.6137
    rng = task_stream(5, "rde", 5)
    a = rde.constant_cloud(10**5, 1.0)
    b = rde.constant_cloud(10**5, 3.0)
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
    assert solved_cloud.iteration_count <= 40
    assert rde.moment(solved_cloud, 1) == pytest.approx(1.72, abs=0.03)


def test_solver_rejects_tiny_population():
    rng = task_stream(6, "rde", 6)
    with pytest.raises(ValueError):
        rde.solve_fixpoint(100, 1e-2, 10, rng)


def test_solver_rejects_initial_cloud_of_another_size():
    rng = task_stream(6, "rde", 6)
    with pytest.raises(ValueError, match="initial cloud"):
        rde.solve_fixpoint(2000, 1e-2, 10, rng, initial=rde.constant_cloud(1000))


def test_unique_fixed_point_from_two_starts():
    rng1 = task_stream(7, "rde", 7)
    rng2 = task_stream(8, "rde", 8)
    tol = 3e-3
    r1 = rde.solve_fixpoint(3 * 10**5, tol, 60, rng1)
    r3 = rde.solve_fixpoint(
        3 * 10**5, tol, 60, rng2, initial=rde.constant_cloud(3 * 10**5, 3.0)
    )
    assert r1.converged and r3.converged
    assert rde.wasserstein1(r1.cloud, r3.cloud) <= 2 * tol


def test_fixed_point_consistency(solved_cloud):
    rng = task_stream(9, "rde", 9)
    stepped = rde.phi_step(solved_cloud, rng)
    floor = rde.estimate_floor(solved_cloud, rng)
    assert rde.wasserstein1(solved_cloud, stepped) <= 2e-3 + 2 * floor


def test_nonconvergence_is_reported_not_raised():
    rng = task_stream(10, "rde", 10)
    res = rde.solve_fixpoint(10**4, 1e-9, 5, rng)
    assert not res.converged
    assert len(res.trace) == 5


# ---------------------------------------------------------------------------
# error bars, moments and identities
# ---------------------------------------------------------------------------


def test_se_of_mean_and_z_score():
    assert rde.se_of_mean(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(np.sqrt(5.0 / 12.0))  # sd sqrt(5/3), n 4
    assert rde.z_score(3.0, 1.5) == 2.0
    assert rde.z_score(0.0, 0.0) == 0.0
    assert rde.z_score(2.0, 0.0) == np.inf and rde.z_score(-2.0, 0.0) == -np.inf


def test_moment_identities_at_fixed_point(solved_cloud):
    rng = task_stream(11, "rde", 11)
    m1 = rde.moment(solved_cloud, 1)
    m2 = rde.moment(solved_cloud, 2)
    m3 = rde.moment(solved_cloud, 3)
    g1 = rde.check_identity(solved_cloud, ("monomial", 1), rng)
    g2 = rde.check_identity(solved_cloud, ("monomial", 2), rng)
    ge = rde.check_identity(solved_cloud, ("exp", 1.0), rng)
    assert abs(g1.z) < 3 and abs(g2.z) < 3 and abs(ge.z) < 3
    # same identities phrased through raw moments, 3 combined-scale sigmas
    assert m2 - 2 * m1 == pytest.approx(0.0, abs=3 * g1.std_error)
    assert m3 - 1.5 * m2 - m1**2 == pytest.approx(0.0, abs=1.5 * 3 * g2.std_error)


def test_check_identity_matches_the_replayed_groups(solved_cloud, monkeypatch):
    cloud = rde.ParticleCloud(solved_cloud.samples[::500].copy())  # 2000 particles: batches of 20
    s = cloud.samples
    g, gp = (lambda x: np.exp(-x / 2.0)), (lambda x: -0.5 * np.exp(-x / 2.0))

    def summands(sub, k, m):
        x = s[sub.integers(0, s.size, size=k * m)]
        y = s[sub.integers(0, s.size, size=k * m)]
        return x * (x - 1.0) * gp(x) + g(x) - g(x + y)

    # a batch of 20 tuples in pieces of 7, 7 and 6; 3 batches per draw; all 10 of a group in one draw
    for chunk in (7, 64, rde._CHUNK):
        monkeypatch.setattr(rde, "_CHUNK", chunk)
        bmeans = orc.batch_sums_serial(task_stream(27, "rde", 27), 20, summands, chunk) / 20
        chk = rde.check_identity(cloud, ("exp", 1.0), task_stream(27, "rde", 27))
        assert chk.residual == pytest.approx(bmeans.mean(), rel=1e-12)
        assert chk.std_error == pytest.approx(bmeans.std(ddof=1) / np.sqrt(rde._BATCHES), rel=1e-9)


def test_identity_negative_controls(solved_cloud):
    rng = task_stream(12, "rde", 12)
    ones = rde.constant_cloud(10**5, 1.0)
    chk = rde.check_identity(ones, ("monomial", 1), rng)
    assert chk.std_error == 0.0 and chk.residual == pytest.approx(-1.0)
    assert np.isinf(chk.z)
    # a wrong continuum law with real spread also fails loudly
    wrong = rde.ParticleCloud(np.sort(1.0 + 2.0 * task_stream(13, "rde", 13).random(10**5)))
    assert abs(rde.check_identity(wrong, ("monomial", 1), rng).z) > 5


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
    ells = [0.5, 1.0, 2.0, 4.0]
    for ell, chk in zip(ells, rde.laplace_ode_residual(solved_cloud, ells)):
        assert abs(chk.z) < 3, f"l={ell}: z={chk.z}"
    small = rde.laplace_ode_residual(solved_cloud, [1e-6])[0]
    assert abs(small.residual) < 1e-5  # residual -> phi(0)^2 - phi(0) = 0


@pytest.mark.parametrize("m", [1000, 12345])  # 12345: the batch means leave out 45 values
def test_laplace_ode_residual_matches_the_serial_loop(m):
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(20, "rde", 20).exponential(size=m)), 0, 20)
    ells = [1e-6, 0.5, 1.0, 2.0, 4.0]
    assert rde.laplace_ode_residual(cloud, ells) == orc.laplace_ode_residual_serial(cloud, ells)


def test_laplace_ode_negative_control():
    ones = rde.constant_cloud(10**5, 1.0)
    chk = rde.laplace_ode_residual(ones, [1.0])[0]
    expected = np.exp(-1.0) - np.exp(-0.5)
    assert chk.residual == pytest.approx(expected, abs=1e-12)
    assert chk.std_error == 0.0 and np.isinf(abs(chk.z))


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


def _ieee_hex_cloud(m, seed, iters, values) -> bytes:
    """The v2 file spelled one value at a time, independently of rde."""
    body = "".join(struct.pack(">d", x).hex() + "\n" for x in values)
    return f"GAMMA-CLOUD v2 {m} {seed} {iters}\n{body}".encode("ascii")


@pytest.mark.parametrize("size", [1, 2**16, 3 * 2**16 + 17])
def test_save_cloud_bytes_match_ieee_hex_lines(tmp_path, solved_cloud, size):
    # awkward values: 1.0, the next double after it, a power of two with an
    # exponent, a cloud size that is not a multiple of the write block, one
    # that is exactly one block, M=1
    awkward = [1.0, 1.0 + 2.0**-52, 1.5, 2.0**40, 2.0**53 + 2.0, 1e300]
    picked = solved_cloud.samples[:max(size - len(awkward), 0)]
    samples = np.sort(np.concatenate((awkward, picked)))[:size]
    cloud = rde.ParticleCloud(samples, 3, 41)
    path = tmp_path / "cloud.txt"
    rde.save_cloud(cloud, path)
    assert path.read_bytes() == _ieee_hex_cloud(size, 41, 3, samples)
    back = rde.load_cloud(path).samples
    assert np.array_equal(back.view(np.uint64), samples.view(np.uint64))


def _hex_cloud_with(m, i, digit) -> bytes:
    """An m-value v2 file whose value i ends in `digit`."""
    text = bytearray(_ieee_hex_cloud(m, 0, 0, 1.0 + np.arange(m) / m))
    text[-17 * (m - i) + 15] = digit[0]
    return bytes(text)


def test_cloud_format_errors(tmp_path):
    cases = [
        (b"WRONG v2 2 0 0\n3ff0000000000000\n4000000000000000\n", "magic"),
        (b"GAMMA-CLOUD v9 2 0 0\n3ff0000000000000\n4000000000000000\n", "version"),
        (b"GAMMA-CLOUD v2 5 0 0\n3ff0000000000000\n4000000000000000\n", "count"),
        (b"GAMMA-CLOUD v2 2 0 0\n4000000000000000\n3ff0000000000000\n", "sorted"),
        (b"GAMMA-CLOUD v2 2 0 0\n3fe0000000000000\n3ff8000000000000\n", "support"),
        # the last line cut short by its newline
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n4000000000000000", "count"),
        (b"GAMMA-CLOUD v2 1 0 0\n3ff0000000000000\n4000000000000000\n", "bytes after line 1"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n400000000000000g\n", "value 1 .*lowercase hex"),
        (b"GAMMA-CLOUD v2 2 0 0\n3FF0000000000000\n4000000000000000\n", "value 0 .*lowercase hex"),
        # 17 digits then 15: two values of the right total length
        (b"GAMMA-CLOUD v2 2 0 0\n3ff00000000000000\n400000000000000\n", "value 0 is not 16 digits and a newline"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n7ff8000000000000\n", "non-finite"),
        (b"GAMMA-CLOUD v1 2 0 0\n1\n2\n", "unsupported version 'v1'.*rde solve"),
        # whitespace and capitals that bytes.fromhex would accept, a non-ASCII byte
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n40000000 0000000\n", "value 1 .*lowercase hex"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0 00000000 00\n4000000000000000\n", "value 0 .*lowercase hex"),
        (b"GAMMA-CLOUD v2 2 0 0\n3f\t0000000000000\n4000000000000000\n", "value 0 .*lowercase hex"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\r4000000000000000\n", "value 0 is not 16 digits and a newline"),
        (b"GAMMA-CLOUD v2 2 0 0\n3ff0000000000000\n40000000\xff0000000\n", "value 1 .*lowercase hex"),
        # a capital in the second block, a bad digit on the last line of a short last block
        (_hex_cloud_with(2**16 + 2, 2**16 + 1, b"A"), "value 65537 .*lowercase hex"),
        (_hex_cloud_with(2**16 + 5, 2**16 + 4, b"g"), "value 65540 .*lowercase hex"),
    ]
    path = tmp_path / "bad.txt"
    for text, match in cases:
        path.write_bytes(text)
        with pytest.raises(rde.CloudFormatError, match=match):
            rde.load_cloud(path)


def test_cloud_codec_holds_at_most_three_and_a_quarter_blocks_of_text(tmp_path):
    # the block codec's peak, beyond the samples array load_cloud returns;
    # a whole-file read would hold 16 blocks
    m, block_text = 2**20, 17 * 2**16
    cloud = rde.ParticleCloud(np.sort(1.0 + task_stream(28, "rde", 28).random(m)), 3, 28)
    path = tmp_path / "cloud.txt"
    peaks = []
    tracemalloc.start()
    try:
        for call, extra in ((lambda: rde.save_cloud(cloud, path), 0), (lambda: rde.load_cloud(path), 8 * m)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks.append((tracemalloc.get_traced_memory()[1] - base - extra) / block_text)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 3.25, peaks
