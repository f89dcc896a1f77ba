"""Three independent estimators of the dimension exponent from a solved cloud.

All expectations over the conductance law are bootstrap resamples from the
cloud, so estimation cost is decoupled from fixed-point cost.  Ratio
estimators report standard errors via 100 batch means; the plug-in moment
estimator uses the delta method.  The node-shift estimator reads its weights
from one kappa table per call, whose own Monte Carlo error is reported apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import _BATCHES, ParticleCloud, se_of_mean, z_score

_CHUNK = 1 << 17
# kappa table: a uniform grid on x = 1/G in [0, 1], estimated as independent
# sub-tables whose spread is the table's Monte Carlo error.
_TABLE_NODES = 257
_SUBTABLES = 8
_SUBTABLE_PAIRS = 25_000
TABLE_GRID = np.linspace(0.0, 1.0, _TABLE_NODES)


@dataclass
class BetaEstimate:
    value: float
    std_error: float  # tuple-resampling component (100 batch means)
    method: str
    sample_count: int
    cloud_std_error: float = 0.0  # finite-cloud component, when estimated
    table_std_error: float = 0.0  # kappa-table component (shift only)

    @property
    def total_std_error(self) -> float:
        return float(np.sqrt(self.std_error**2 + self.cloud_std_error**2
                             + self.table_std_error**2))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "std_error": self.std_error,
            "cloud_std_error": self.cloud_std_error,
            "table_std_error": self.table_std_error,
            "total_std_error": self.total_std_error,
            "samples": self.sample_count,
        }


def _chunks(batch: int):
    """(batch index, tuple count) for every draw: _BATCHES batches of `batch`
    tuples, each drawn in chunks of at most _CHUNK."""
    for k in range(_BATCHES):
        for done in range(0, batch, _CHUNK):
            yield k, min(_CHUNK, batch - done)


def beta_moment(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Plug-in 0.5 ((E C)^2 / E[C0 C1/(C0+C1-1)] - 1) over resampled pairs."""
    s = cloud.samples
    a = float(s.mean())
    batch = max(sample_count // _BATCHES, 1)
    sums = np.zeros(_BATCHES)
    for k, m in _chunks(batch):
        c0 = s[rng.integers(0, s.size, size=m)]
        c1 = s[rng.integers(0, s.size, size=m)]
        sums[k] += np.sum(c0 * c1 / (c0 + c1 - 1.0))
    bmeans = sums / batch
    b = float(bmeans.mean())
    se_b = se_of_mean(bmeans)
    value = 0.5 * (a * a / b - 1.0)
    std_error = 0.5 * a * a / (b * b) * se_b
    return BetaEstimate(value, std_error, "moment", batch * _BATCHES)


def beta_triple(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Ratio of the triple integral 2 E[RS/(R+S+T-1) log((S+T)/S)] to the
    pair integral E[ST/(S+T-1)]; standard error by batching."""
    s = cloud.samples
    batch = max(sample_count // _BATCHES, 1)
    num_b, den_b = np.zeros(_BATCHES), np.zeros(_BATCHES)
    for k, m in _chunks(batch):
        r = s[rng.integers(0, s.size, size=m)]
        t = s[rng.integers(0, s.size, size=m)]
        u = s[rng.integers(0, s.size, size=m)]
        num_b[k] += np.sum(2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t))
        den_b[k] += np.sum(t * u / (t + u - 1.0))
    num_b, den_b = num_b / batch, den_b / batch
    value = float(num_b.mean() / den_b.mean())
    std_error = se_of_mean(num_b / den_b)
    return BetaEstimate(value, std_error, "triple", batch * _BATCHES)


def kappa_table(cloud: ParticleCloud, rng) -> np.ndarray:
    """kappa(x) = E[S / (1 + x (S+T-1))] on TABLE_GRID, where x = 1/r turns
    kappa(r) into a smooth function on [0, 1].  Row k is one sub-table: the
    mean over its own cloud pairs, common to every node; rows are independent."""
    s = cloud.samples
    shape = (_SUBTABLES, _SUBTABLE_PAIRS)
    a = s[rng.integers(0, s.size, size=shape)]
    d = a + s[rng.integers(0, s.size, size=shape)] - 1.0
    table = np.empty((_SUBTABLES, _TABLE_NODES))
    for j, x in enumerate(TABLE_GRID):
        table[:, j] = np.mean(a / (1.0 + x * d), axis=1)
    return table


def beta_shift(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Node-shift estimator: importance weights kappa(G(U, C1, C2)) applied to
    the branch entropy and the branch-spacing length.  The weight is the
    linear interpolation of one kappa table at x = 1/G = U + (1-U)/(C1+C2).

    Interpolation is linear in the table values, so each batch keeps its
    numerator and denominator as per-node coefficient vectors.  Against the
    mean table they give the batch means (tuple error); against each
    sub-table they give one estimate per sub-table, whose spread is the
    table error that all tuples share and batch means cannot see."""
    table = kappa_table(cloud, rng)
    s = cloud.samples
    last = _TABLE_NODES - 1
    batch = max(sample_count // _BATCHES, 1)
    num_c = np.zeros((_BATCHES, _TABLE_NODES))
    den_c = np.zeros((_BATCHES, _TABLE_NODES))
    for k, m in _chunks(batch):
        c1 = s[rng.integers(0, s.size, size=m)]
        c2 = s[rng.integers(0, s.size, size=m)]
        u = rng.random(m)
        pos = (u + (1.0 - u) / (c1 + c2)) * last
        j = np.minimum(pos.astype(np.intp), last - 1)
        t = pos - j
        frac = c1 / (c1 + c2)
        for coef, f in ((num_c[k], frac * np.log(frac)), (den_c[k], -np.log1p(-u))):
            coef[:-1] += np.bincount(j, (1.0 - t) * f, minlength=last)
            coef[1:] += np.bincount(j, t * f, minlength=last)
    mean_table = table.mean(axis=0)
    num, den = num_c.sum(axis=0), den_c.sum(axis=0)
    value = float(-2.0 * (num @ mean_table) / (den @ mean_table))
    ratios = -2.0 * (num_c @ mean_table) / (den_c @ mean_table)
    std_error = se_of_mean(ratios)
    table_std_error = se_of_mean(-2.0 * (table @ num) / (table @ den))
    return BetaEstimate(value, std_error, "shift", batch * _BATCHES,
                        table_std_error=table_std_error)


@dataclass
class CrossValidation:
    estimates: list
    z_matrix: np.ndarray
    flagged: bool
    budget: int
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "estimates": [e.to_dict() for e in self.estimates],
            "z_matrix": self.z_matrix.tolist(),
            "flagged": self.flagged,
            "budget": self.budget,
            "seed": self.seed,
        }


def _cloud_component(cloud: ParticleCloud, runner, rng, k: int = 10, sub_budget: int = 10**6) -> float:
    """Finite-cloud std error of an estimator at the full cloud size,
    from its spread over k disjoint random sub-clouds of size M/k (tuple
    noise subtracted, scaled down by sqrt(k))."""
    perm = rng.permutation(cloud.size)
    vals, tup = [], []
    for part in np.array_split(perm, k):
        sub = ParticleCloud(np.sort(cloud.samples[part]))
        est = runner(sub, sub_budget, rng)
        vals.append(est.value)
        tup.append(est.std_error**2)
    var_sub = max(float(np.var(vals, ddof=1)) - float(np.mean(tup)), 0.0)
    return float(np.sqrt(var_sub / k))


def cross_validate(cloud: ParticleCloud, budget: int, rng) -> CrossValidation:
    """Run the three estimators on derived streams and compare pairwise;
    |z| > 3 between any two flags the report.

    The two expectation-style estimators are smooth functionals of the
    empirical cloud, so their values carry a finite-cloud error of order
    M^{-1/2} that tuple resampling cannot see; on clouds of 1e5 or more
    particles it is estimated by disjoint sub-cloud splits and folded into
    the pairwise z denominators ("agreement within combined statistical
    error").  The shift estimator's finite-cloud error is not estimated, so
    its `total_std_error` may be too small (at M=1e6 its tuple error is of
    the order of the triple's cloud error); its kappa-table error is always
    folded in.
    """
    streams = rng.spawn(5)
    ests = [
        beta_moment(cloud, budget, streams[0]),
        beta_triple(cloud, budget, streams[1]),
        beta_shift(cloud, budget, streams[2]),
    ]
    if cloud.size >= 10**5:
        sub_budget = int(min(max(budget // 50, 10**6), 10**7))
        ests[0].cloud_std_error = _cloud_component(cloud, beta_moment, streams[3], sub_budget=sub_budget)
        ests[1].cloud_std_error = _cloud_component(cloud, beta_triple, streams[4], sub_budget=sub_budget)
    z = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                z[i, j] = z_score(abs(ests[i].value - ests[j].value),
                                  np.hypot(ests[i].total_std_error, ests[j].total_std_error))
    return CrossValidation(
        estimates=ests,
        z_matrix=z,
        flagged=bool(np.any(z > 3.0)),
        budget=budget,
        seed=cloud.seed,
    )
