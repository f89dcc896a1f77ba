"""Three independent estimators of the dimension exponent from a solved cloud.

All expectations over the conductance law are bootstrap resamples from the
cloud, so estimation cost is decoupled from fixed-point cost.  Ratio
estimators report standard errors via 100 batch means; the plug-in moment
estimator uses the delta method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import ParticleCloud

_BATCHES = 100
_CHUNK = 1 << 17


@dataclass
class BetaEstimate:
    value: float
    std_error: float  # tuple-resampling component (100 batch means)
    method: str
    sample_count: int
    cloud_std_error: float = 0.0  # finite-cloud component, when estimated

    @property
    def total_std_error(self) -> float:
        return float(np.hypot(self.std_error, self.cloud_std_error))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "std_error": self.std_error,
            "cloud_std_error": self.cloud_std_error,
            "total_std_error": self.total_std_error,
            "samples": self.sample_count,
        }


def kappa(cloud: ParticleCloud, r, pair_count: int, rng) -> float:
    """Monte Carlo kappa(r) = E[r S / (r + S + T - 1)] over cloud pairs."""
    r = float(r)
    if r < 1.0:
        raise ValueError("kappa is defined for r >= 1")
    s = cloud.samples
    total = 0.0
    done = 0
    while done < pair_count:
        m = min(_CHUNK, pair_count - done)
        a = s[rng.integers(0, s.size, size=m)]
        b = s[rng.integers(0, s.size, size=m)]
        total += float(np.sum(r * a / (r + a + b - 1.0)))
        done += m
    return total / pair_count


def beta_moment(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Plug-in 0.5 ((E C)^2 / E[C0 C1/(C0+C1-1)] - 1) over resampled pairs."""
    s = cloud.samples
    a = float(s.mean())
    batch = max(sample_count // _BATCHES, 1)
    bmeans = np.empty(_BATCHES)
    for k in range(_BATCHES):
        acc, done = 0.0, 0
        while done < batch:
            m = min(_CHUNK, batch - done)
            c0 = s[rng.integers(0, s.size, size=m)]
            c1 = s[rng.integers(0, s.size, size=m)]
            acc += float(np.sum(c0 * c1 / (c0 + c1 - 1.0)))
            done += m
        bmeans[k] = acc / batch
    b = float(bmeans.mean())
    se_b = float(bmeans.std(ddof=1) / np.sqrt(_BATCHES))
    value = 0.5 * (a * a / b - 1.0)
    std_error = 0.5 * a * a / (b * b) * se_b
    return BetaEstimate(value, std_error, "moment", batch * _BATCHES)


def beta_triple(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Ratio of the triple integral 2 E[RS/(R+S+T-1) log((S+T)/S)] to the
    pair integral E[ST/(S+T-1)]; standard error by batching."""
    s = cloud.samples
    batch = max(sample_count // _BATCHES, 1)
    num_b = np.empty(_BATCHES)
    den_b = np.empty(_BATCHES)
    for k in range(_BATCHES):
        nacc, dacc, done = 0.0, 0.0, 0
        while done < batch:
            m = min(_CHUNK, batch - done)
            r = s[rng.integers(0, s.size, size=m)]
            t = s[rng.integers(0, s.size, size=m)]
            u = s[rng.integers(0, s.size, size=m)]
            nacc += float(np.sum(2.0 * r * t / (r + t + u - 1.0) * np.log((t + u) / t)))
            dacc += float(np.sum(t * u / (t + u - 1.0)))
            done += m
        num_b[k], den_b[k] = nacc / batch, dacc / batch
    value = float(num_b.mean() / den_b.mean())
    ratios = num_b / den_b
    std_error = float(ratios.std(ddof=1) / np.sqrt(_BATCHES))
    return BetaEstimate(value, std_error, "triple", batch * _BATCHES)


def beta_shift(cloud: ParticleCloud, sample_count: int, rng, inner: int = 64) -> BetaEstimate:
    """Node-shift estimator: importance weights kappa-hat(G(U, C1, C2)) with a
    fixed inner resampling count, applied to the branch entropy and the
    branch-spacing length."""
    s = cloud.samples
    batch = max(sample_count // _BATCHES, 1)
    num_b = np.empty(_BATCHES)
    den_b = np.empty(_BATCHES)
    for k in range(_BATCHES):
        nacc, dacc, done = 0.0, 0.0, 0
        while done < batch:
            m = min(_CHUNK, batch - done)
            c1 = s[rng.integers(0, s.size, size=m)]
            c2 = s[rng.integers(0, s.size, size=m)]
            u = rng.random(m)
            g = 1.0 / (u + (1.0 - u) / (c1 + c2))
            w = np.zeros(m)
            for _ in range(inner):
                a = s[rng.integers(0, s.size, size=m)]
                b = s[rng.integers(0, s.size, size=m)]
                w += g * a / (g + a + b - 1.0)
            w /= inner
            frac = c1 / (c1 + c2)
            nacc += float(np.sum(w * frac * np.log(frac)))
            dacc += float(np.sum(w * -np.log1p(-u)))
            done += m
        num_b[k], den_b[k] = nacc / batch, dacc / batch
    value = float(-2.0 * num_b.mean() / den_b.mean())
    ratios = -2.0 * num_b / den_b
    std_error = float(ratios.std(ddof=1) / np.sqrt(_BATCHES))
    return BetaEstimate(value, std_error, "shift", batch * _BATCHES)


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

    @property
    def consensus(self) -> float:
        """Inverse-variance weighted mean of the three estimates."""
        v = np.array([e.value for e in self.estimates])
        w = np.array([1.0 / max(e.total_std_error, 1e-300) ** 2 for e in self.estimates])
        return float((v * w).sum() / w.sum())


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


def cross_validate(
    cloud: ParticleCloud, budget: int, rng, inner: int = 64, cloud_se: bool = True
) -> CrossValidation:
    """Run the three estimators on derived streams and compare pairwise;
    |z| > 3 between any two flags the report.

    The two expectation-style estimators are smooth functionals of the
    empirical cloud, so their values carry a finite-cloud error of order
    M^{-1/2} that tuple resampling cannot see; with cloud_se it is estimated
    by disjoint sub-cloud splits and folded into the pairwise z denominators
    ("agreement within combined statistical error").  The shift estimator's
    tuple noise dominates its cloud component at the supported budgets.
    """
    streams = rng.spawn(5)
    ests = [
        beta_moment(cloud, budget, streams[0]),
        beta_triple(cloud, budget, streams[1]),
        beta_shift(cloud, budget, streams[2], inner=inner),
    ]
    if cloud_se and cloud.size >= 10**5:
        sub_budget = int(min(max(budget // 50, 10**6), 10**7))
        ests[0].cloud_std_error = _cloud_component(cloud, beta_moment, streams[3], sub_budget=sub_budget)
        ests[1].cloud_std_error = _cloud_component(cloud, beta_triple, streams[4], sub_budget=sub_budget)
    z = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            denom = np.hypot(ests[i].total_std_error, ests[j].total_std_error)
            diff = abs(ests[i].value - ests[j].value)
            z[i, j] = diff / denom if denom > 0 else (0.0 if diff == 0 else np.inf)
    return CrossValidation(
        estimates=ests,
        z_matrix=z,
        flagged=bool(np.any(z > 3.0)),
        budget=budget,
        seed=cloud.seed,
    )
