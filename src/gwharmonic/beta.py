"""Three independent estimators of the dimension exponent from a solved cloud.

All expectations over the conductance law are Monte Carlo readouts of the
cloud over drawn tuples, so estimation cost is decoupled from fixed-point
cost.  Each batch of m tuples is one Latin hypercube sample (`_stratified`):
every coordinate puts one draw in each of its m strata of [0, 1), and a
cloud value is read at index floor(v M) of the sorted cloud, so the strata
of v are strata of the conductance law.  Each tuple is still uniform, and
batches stay independent, so the batch means are unbiased and iid.  Ratio
estimators report standard errors via 100 batch means; the plug-in moment
estimator uses the delta method.  The node-shift estimator reads its weights
from one kappa table per call, built from iid pairs, whose own Monte Carlo
error is reported apart.

Every estimator draws its batches through `rde._batch_sums`: ten groups of
ten consecutive batches, each group one thread-pool task on its own stream
spawned from the estimator's generator, so an estimate is the same on any
number of cores.  The estimators themselves run in the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import _BATCHES, _TASKS, ParticleCloud, _batch_sums, se_of_mean, z_score
from .rngs import pool

# kappa table: a uniform grid on x = 1/G in [0, 1], estimated as independent
# sub-tables whose spread is the table's Monte Carlo error.
_TABLE_NODES = 257
_SUBTABLES = 8
_SUBTABLE_PAIRS = 25_000
TABLE_GRID = np.linspace(0.0, 1.0, _TABLE_NODES)
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def _stratified(sub, k: int, m: int, dims: int) -> np.ndarray:
    """k rows of m stratified uniforms per coordinate, shape (dims, k, m):
    entry i of a row is (p_i + U_i) / m with U iid uniform on [0, 1), p the
    identity for coordinate 0 and, for each other coordinate, a uniform
    permutation of 0..m-1 of its own for each row (`Generator.permuted`).
    Each row is a Latin hypercube sample whose tuples are each uniform on
    [0, 1)^dims.  Draw order: all the U in one call, then the permutations,
    coordinate by coordinate and row by row."""
    v = sub.random((dims, k, m))
    v[0] += np.arange(m)
    p = np.empty((k, m))
    for c in v[1:]:
        p[:] = np.arange(m)
        c += sub.permuted(p, axis=-1, out=p)
    v /= m
    return v


def _cloud_at(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v with each value replaced by the sorted cloud s at index floor(v M),
    one coordinate at a time; clip maps the rounding case v M == M to M - 1."""
    for c in v:
        c *= s.size
        np.take(s, c.astype(np.intp), mode="clip", out=c)
    return v


def beta_moment(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Plug-in 0.5 ((E C)^2 / E[C0 C1/(C0+C1-1)] - 1) over stratified
    pairs (c0 | c1)."""
    s = cloud.samples
    a = float(s.mean())
    batch = max(sample_count // _BATCHES, 1)

    def kernel(sub, k, m):
        c0, c1 = _cloud_at(s, _stratified(sub, k, m, 2))
        return np.sum(c0 * c1 / (c0 + c1 - 1.0), axis=1)

    bmeans = _batch_sums(kernel, batch, rng) / batch
    b = float(bmeans.mean())
    se_b = se_of_mean(bmeans)
    value = 0.5 * (a * a / b - 1.0)
    std_error = 0.5 * a * a / (b * b) * se_b
    return BetaEstimate(value, std_error, "moment", batch * _BATCHES)


def beta_triple(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Ratio of the triple integral 2 E[RS/(R+S+T-1) log((S+T)/S)] to the
    pair integral E[ST/(S+T-1)] over stratified triples (r | t, u);
    standard error by batching."""
    s = cloud.samples
    batch = max(sample_count // _BATCHES, 1)

    def kernel(sub, k, m):
        r, t, u = _cloud_at(s, _stratified(sub, k, m, 3))
        return np.stack([np.sum(2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t), axis=1),
                         np.sum(t * u / (t + u - 1.0), axis=1)], axis=1)

    num_b, den_b = (_batch_sums(kernel, batch, rng) / batch).T
    value = float(num_b.mean() / den_b.mean())
    std_error = se_of_mean(num_b / den_b)
    return BetaEstimate(value, std_error, "triple", batch * _BATCHES)


def kappa_table(cloud: ParticleCloud, rng) -> np.ndarray:
    """kappa(x) = E[S / (1 + x (S+T-1))] on TABLE_GRID, where x = 1/r turns
    kappa(r) into a smooth function on [0, 1].  Row k is one sub-table: the
    mean over its own cloud pairs, common to every node; rows are independent.
    The pairs are drawn in the calling thread, and the columns are computed
    in _TASKS groups on the thread pool."""
    s = cloud.samples
    shape = (_SUBTABLES, _SUBTABLE_PAIRS)
    a = np.take(s, rng.integers(0, s.size, size=shape), mode="clip")
    d = a + np.take(s, rng.integers(0, s.size, size=shape), mode="clip") - 1.0
    table = np.empty((_SUBTABLES, _TABLE_NODES))

    def columns(nodes):
        for j in nodes:
            table[:, j] = np.mean(a / (1.0 + TABLE_GRID[j] * d), axis=1)

    list(pool().map(columns, np.array_split(np.arange(_TABLE_NODES), _TASKS)))
    return table


def beta_shift(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Node-shift estimator: importance weights kappa(G(U, C1, C2)) applied to
    the branch entropy and the branch-spacing length.  The weight is the
    linear interpolation of one kappa table at x = 1/G = U + (1-U)/(C1+C2),
    over stratified tuples (c1 | c2, u).

    Interpolation is linear in the table values, so each batch keeps its
    numerator and denominator as per-node coefficient vectors.  Against the
    mean table they give the batch means (tuple error); against each
    sub-table they give one estimate per sub-table, whose spread is the
    table error that all tuples share and batch means cannot see."""
    table = kappa_table(cloud, rng)
    s = cloud.samples
    last = _TABLE_NODES - 1
    batch = max(sample_count // _BATCHES, 1)

    def kernel(sub, k, m):
        v = _stratified(sub, k, m, 3).reshape(3, k * m)
        c1, c2 = _cloud_at(s, v[:2])
        u = np.minimum(v[2], _BELOW_ONE, out=v[2])  # (m-1+U)/m can round up to 1
        pos = (u + (1.0 - u) / (c1 + c2)) * last
        j = np.minimum(pos.astype(np.intp), last - 1)
        t = pos - j
        frac = c1 / (c1 + c2)
        bins = k * _TABLE_NODES
        j += np.repeat(np.arange(0, bins, _TABLE_NODES), m)  # node n of batch i is bin i*_TABLE_NODES + n
        coef = np.empty((k, 2, _TABLE_NODES))
        for c, f in enumerate((frac * np.log(frac), -np.log1p(-u))):
            coef[:, c] = np.bincount(j, (1.0 - t) * f, minlength=bins).reshape(k, -1)
            coef[:, c, 1:] += np.bincount(j, t * f, minlength=bins).reshape(k, -1)[:, :-1]
        return coef

    num_c, den_c = _batch_sums(kernel, batch, rng).transpose(1, 0, 2)
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


def _sub_clouds(cloud: ParticleCloud, rng, k: int) -> list:
    """k disjoint random sub-clouds of size M/k, each sorted, from one
    permutation of the cloud drawn from rng."""
    parts = np.array_split(rng.permutation(cloud.size), k)
    return [ParticleCloud(np.sort(cloud.samples[part])) for part in parts]


def _cloud_component(subs: list, runner, rng, sub_budget: int) -> float:
    """Finite-cloud std error of an estimator at the full cloud size, from
    its spread over k disjoint sub-clouds of size M/k, each read with
    sub_budget tuples drawn from streams spawned from rng (tuple noise
    subtracted, scaled down by sqrt(k))."""
    vals, tup = [], []
    for sub in subs:
        est = runner(sub, sub_budget, rng)
        vals.append(est.value)
        tup.append(est.std_error**2)
    var_sub = max(float(np.var(vals, ddof=1)) - float(np.mean(tup)), 0.0)
    return float(np.sqrt(var_sub / len(subs)))


def cross_validate(cloud: ParticleCloud, budget: int, rng) -> CrossValidation:
    """Run the three estimators on derived streams and compare pairwise;
    |z| > 3 between any two flags the report.  The estimator runs and the
    sub-cloud runs each draw from their own stream, one after another in the
    calling thread; each run spreads its own draws over the thread pool, and
    the two sub-cloud splits are made there while the full-cloud runs draw.

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
    splits = []
    if cloud.size >= 10**5:
        # the sub-cloud splits are drawn and sorted on the pool while the full-cloud runs use it too
        splits = [pool().submit(_sub_clouds, cloud, streams[3 + i], 10) for i in range(2)]
    ests = [fn(cloud, budget, stream) for fn, stream in zip((beta_moment, beta_triple, beta_shift), streams)]
    sub_budget = min(max(budget // 200, 250_000), 2_500_000)
    for i, (fn, split) in enumerate(zip((beta_moment, beta_triple), splits)):
        ests[i].cloud_std_error = _cloud_component(split.result(), fn, streams[3 + i], sub_budget)
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
