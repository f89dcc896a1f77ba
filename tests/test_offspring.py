import numpy as np
import oracles as orc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwharmonic import offspring as off
from gwharmonic.rngs import task_stream


@pytest.fixture(scope="module")
def geom():
    return off.geometric()


@pytest.fixture(scope="module")
def pois():
    return off.poisson()


def test_builtin_laws_are_critical(geom, pois):
    for dist in (geom, pois, off.binary(), off.pary(3), off.strict_pary(4)):
        assert abs(dist.pmf.sum() - 1.0) < 1e-12
        assert abs(dist.mean - 1.0) < 1e-9
        assert dist.variance > 0


def test_known_variances(geom, pois):
    assert geom.variance == pytest.approx(2.0, abs=1e-9)
    assert pois.variance == pytest.approx(1.0, abs=1e-9)
    assert off.binary().variance == pytest.approx(1.0, abs=1e-12)


def test_custom_rejects_noncritical():
    with pytest.raises(off.OffspringError):
        off.custom({0: 0.5, 1: 0.5})  # mean 1/2
    with pytest.raises(off.OffspringError):
        off.custom({0: 0.5, 2: 0.6})  # mass 1.1
    with pytest.raises(off.OffspringError):
        off.custom({1: 1.0})  # zero variance


def test_pgf_endpoints(geom, pois):
    assert orc.pgf_eval(geom, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert orc.pgf_eval(pois, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_geometric_closed_form(geom):
    # sum_k 2^{-k-1} s^k = 1/(2-s); at s=1/2 this is 2/3
    assert orc.pgf_eval(geom, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    for s in (0.1, 0.3, 0.9):
        assert orc.pgf_eval(geom, s) == pytest.approx(1.0 / (2.0 - s), abs=1e-12)


def test_pgf_domain(geom):
    with pytest.raises(off.OffspringError):
        orc.pgf_eval(geom, -0.1)
    with pytest.raises(off.OffspringError):
        orc.pgf_eval(geom, 1.1)


def test_survival_q0_and_q1(geom, pois):
    assert off.survival_probs(geom, 0)[0] == 1.0
    assert off.survival_probs(pois, 0)[0] == 1.0
    assert off.survival_probs(geom, 1)[1] == pytest.approx(0.5, abs=1e-12)
    assert off.survival_probs(pois, 1)[1] == pytest.approx(1 - np.exp(-1), abs=1e-12)


def test_survival_matches_pgf_iteration(pois):
    # reference route: iterate s_{m+1} = G(s_m) from 0, q_m = 1 - s_m
    n = 40
    s, ref = 0.0, [1.0]
    for _ in range(n):
        s = orc.pgf_eval(pois, s)
        ref.append(1.0 - s)
    qs = off.survival_probs(pois, n)
    assert np.allclose(qs, ref, atol=1e-12, rtol=0)


def test_survival_geometric_closed_form(geom):
    ns = np.arange(10001)
    qs = off.survival_probs(geom, 10000)
    assert np.max(np.abs(qs - 1.0 / (ns + 1.0))) < 1e-12


def test_survival_monotone_and_asymptotic(geom, pois):
    for dist in (geom, pois):
        qs = off.survival_probs(dist, 100000)
        assert np.all(np.diff(qs) < 0)
        # n q_n -> 2/sigma^2, flat to 3 digits between 1e4 and 1e5
        lim = 2.0 / dist.variance
        assert 1e4 * qs[10**4] == pytest.approx(lim, rel=0.01)
        assert 1e5 * qs[10**5] == pytest.approx(lim, rel=0.01)
        assert abs(1e4 * qs[10**4] - 1e5 * qs[10**5]) < 1e-3 * lim


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_pgf_in_unit_interval(s):
    dist = off.geometric()
    v = orc.pgf_eval(dist, s)
    assert 0.0 <= v <= 1.0


def test_sampling_geometric_mean(geom):
    rng = task_stream(11, "offspring", 0)
    draws = orc.sample_offspring(geom, rng, size=10**6)
    # criticality: mean 1 +- 0.005 (3 sigma band is ~0.0042)
    assert abs(draws.mean() - 1.0) < 0.005


def test_sampling_poisson_p0(pois):
    rng = task_stream(12, "offspring", 1)
    draws = orc.sample_offspring(pois, rng, size=10**6)
    assert abs(np.mean(draws == 0) - np.exp(-1)) < 0.002


def test_sampling_custom_support():
    dist = off.custom({0: 0.5, 2: 0.5})
    rng = task_stream(13, "offspring", 2)
    draws = orc.sample_offspring(dist, rng, size=10**5)
    assert set(np.unique(draws)) <= {0, 2}


def test_sampling_matches_pmf(geom):
    rng = task_stream(14, "offspring", 3)
    draws = orc.sample_offspring(geom, rng, size=10**6)
    counts = np.bincount(draws, minlength=8)[:8]
    expected = geom.pmf[:8] * 10**6
    sigma = np.sqrt(10**6 * geom.pmf[:8] * (1 - geom.pmf[:8]))
    assert np.all(np.abs(counts - expected) < 4 * sigma)


def test_from_spec_named():
    assert off.from_spec("geometric").kind == "geometric"
    assert off.from_spec("poisson").kind == "poisson"
    assert off.from_spec("binary").kind == "strict-2-ary"
    assert off.from_spec("pary:3").kind == "3-ary"
    with pytest.raises(off.OffspringError):
        off.from_spec("cauchy")


@pytest.mark.parametrize("spec", ["pary:abc", "strict-pary:2.5", "pary:"])
def test_from_spec_names_a_non_integer_p(spec):
    # int() raised a bare ValueError that named neither the spec nor p
    value = spec.partition(":")[2]
    with pytest.raises(off.OffspringError, match=f"offspring spec '{spec}': p must be an integer, got '{value}'"):
        off.from_spec(spec)


@pytest.mark.parametrize("p", [2, 3, 5, 12, 40])
def test_pary_pmf_matches_scipy_binomial(p):
    from scipy.stats import binom

    ref = binom.pmf(np.arange(p + 1), p, 1.0 / p)
    assert np.max(np.abs(off.pary(p).pmf / ref - 1.0)) < 1e-12


def test_from_spec_custom_file(tmp_path):
    path = tmp_path / "pmf.txt"
    path.write_text("0 0.5\n2 0.5\n")
    dist = off.from_spec(f"custom:{path}")
    assert dist.pmf[0] == 0.5 and dist.pmf[2] == 0.5
    assert dist.variance == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructor_refuses_a_non_finite_entry(bad):
    # NaN passes every comparison of the other checks; [0.5, nan, 0.5] was a valid law
    with pytest.raises(off.OffspringError, match="non-finite entry at k=1"):
        off.OffspringDistribution("custom", [0.5, bad, 0.5])


def test_from_spec_refuses_a_repeated_child_count(tmp_path):
    # the dict kept the last row for k=0 and dropped the other
    path = tmp_path / "pmf.txt"
    path.write_text("0 0.5\n2 0.5\n0 0.5\n")
    with pytest.raises(off.OffspringError, match="k=0 is given on more than one row"):
        off.from_spec(f"custom:{path}")
