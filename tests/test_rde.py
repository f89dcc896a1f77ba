import struct

import numpy as np
import oracles as orc
import pytest

from gwharmonic import rde
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


@pytest.mark.parametrize("size", [1, 3 * 2**16 + 17])
def test_save_cloud_bytes_match_ieee_hex_lines(tmp_path, solved_cloud, size):
    # awkward values: 1.0, the next double after it, a power of two with an
    # exponent, a cloud size that is not a multiple of the write block, M=1
    awkward = [1.0, 1.0 + 2.0**-52, 1.5, 2.0**40, 2.0**53 + 2.0, 1e300]
    picked = solved_cloud.samples[:max(size - len(awkward), 0)]
    samples = np.sort(np.concatenate((awkward, picked)))[:size]
    cloud = rde.ParticleCloud(samples, 3, 41)
    path = tmp_path / "cloud.txt"
    rde.save_cloud(cloud, path)
    assert path.read_bytes() == _ieee_hex_cloud(size, 41, 3, samples)
    back = rde.load_cloud(path).samples
    assert np.array_equal(back.view(np.uint64), samples.view(np.uint64))


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
    ]
    path = tmp_path / "bad.txt"
    for text, match in cases:
        path.write_bytes(text)
        with pytest.raises(rde.CloudFormatError, match=match):
            rde.load_cloud(path)
