"""Continuum reduced tree: harmonic rays as a Markov chain on conductances.

The continuum reduced tree is binary.  A vertex whose segment starts at
remaining height h (its distance below the top, height 1) branches at
remaining height h(1-U), U uniform, and the two subtrees above the branch
point are independent copies of the whole tree scaled by h(1-U).  With unit
resistance per unit height, a subtree of remaining height h has conductance
C/h, with C from the conductance law gamma (the solved cloud), and the
normalised conductances satisfy the same algebra as the discrete recursion:
C = G(U, C1, C2) = 1/(U + (1-U)/(C1+C2)).  The harmonic ray leaves a branch
point into child i with probability C_i/(C1+C2).

Truncate the tree at height 1-eps and close each vertex crossing 1-eps with
conductance C*/eps, C* from gamma: the part above 1-eps is a copy of the whole
tree scaled by eps, so the closure keeps every conductance below 1-eps, and
with it every ray choice, at its untruncated law (up to cloud error).  The ray
therefore needs only the conductances along its own path.  Given a vertex's
normalised conductance c, its (U, C1, C2) have their law given G = c, and the
child the ray enters has normalised conductance C_i.  So a ray is a Markov
chain on (c, h), the environment seen from the harmonic ray, whose invariant
law is the kappa-density measure (Lyons, Pemantle and Peres 1995).  A step
from (c, h):

1. draw (U, C1, C2) given G = c;
2. stop when h(1-U) <= eps: the vertex crosses 1-eps and is the ray's leaf;
3. otherwise enter child i with probability C_i/(C1+C2), add
   log(C_i/(C1+C2)) to the log mass, and move to (C_i, h(1-U)).

A ray costs about log(1/eps) steps, where the truncated tree has about 2/eps
vertices.  The state holds the remaining height h, never the start height
1-h, which rounds to 1 below eps = 2^-53.

The conditional draw is a nearest neighbour.  Each call of `ray_mass_samples`
builds _SUBTABLES independent sub-tables of _SUBTABLE_SIZE fresh cloud
triples (U, C1, C2), sorted by G, and ray r reads sub-table r mod _SUBTABLES.
A ray starts at a uniform entry of its sub-table (a uniform triple's G is a
root draw); each later step takes the entry whose G is nearest c.  The rays
that read one sub-table share its Monte Carlo error, which `dimension_curve`
reports apart from the ray error, from the spread between sub-tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import ParticleCloud

# Table sizes from 2.5e5 to 4e6 triples showed no trend beyond the noise
# between independent tables; that noise is in `table_std_error`.
_SUBTABLES = 8
_SUBTABLE_SIZE = 250_000


def _tables(samples: np.ndarray, rng):
    """_SUBTABLES sub-tables of cloud triples, each sorted by x = 1/G.

    Returns the search keys k + x (sub-table k fills the open interval
    (k, k+1), as 0 < x < 1) and, in key order, 1-U, C1 and C2."""
    n = _SUBTABLE_SIZE
    key, keep, c1, c2 = (np.empty(_SUBTABLES * n) for _ in range(4))
    for k in range(_SUBTABLES):
        u = rng.random(n)
        a1 = samples[rng.integers(0, samples.size, size=n)]
        a2 = samples[rng.integers(0, samples.size, size=n)]
        x = u + (1.0 - u) / (a1 + a2)
        order = np.argsort(x)
        part = slice(k * n, (k + 1) * n)
        key[part] = k + x[order]
        keep[part] = 1.0 - u[order]
        c1[part], c2[part] = a1[order], a2[order]
    return key, keep, c1, c2


def _nearest(key: np.ndarray, sub: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per ray, the entry of sub-table `sub` whose G = 1/x is nearest c."""
    first = sub * _SUBTABLE_SIZE
    at = np.searchsorted(key, sub + 1.0 / c)
    below = np.clip(at - 1, first, first + _SUBTABLE_SIZE - 1)
    above = np.clip(at, first, first + _SUBTABLE_SIZE - 1)
    # key - sub is exact (Sterbenz), so these are the stored x
    gap_below = np.abs(1.0 / (key[below] - sub) - c)
    gap_above = np.abs(1.0 / (key[above] - sub) - c)
    return np.where(gap_above < gap_below, above, below)


def ray_mass_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """log cylinder masses of `trials` independent harmonic rays, one fresh
    table set per call; ray r reads sub-table r mod _SUBTABLES."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    key, keep, c1, c2 = _tables(cloud.samples, rng)
    ray = np.arange(trials)
    sub = ray % _SUBTABLES
    entry = sub * _SUBTABLE_SIZE + rng.integers(0, _SUBTABLE_SIZE, size=trials)
    h = np.ones(trials)
    logm = np.zeros(trials)
    while ray.size:
        h = h * keep[entry]  # remaining height at the branch point
        go = h > eps
        ray, entry, h = ray[go], entry[go], h[go]
        a1, a2 = c1[entry], c2[entry]
        tot = a1 + a2
        c = np.where(rng.random(ray.size) * tot < a1, a1, a2)
        logm[ray] += np.log(c / tot)
        entry = _nearest(key, sub[ray], c)
    return logm


@dataclass
class DimensionPoint:
    eps: float
    exponent: float
    std_error: float  # ray component
    table_std_error: float  # shared by the rays of one table set
    trials: int


@dataclass
class DimensionCurve:
    """Points, and the weighted line in x = 1/log(1/eps) through them:
    `extrapolated` is its intercept (x = 0), `chi2_dof` its chi^2 per degree
    of freedom (None with two points)."""

    points: list
    extrapolated: float | None = None
    extrapolated_se: float | None = None
    slope: float | None = None
    slope_se: float | None = None
    chi2_dof: float | None = None

    def to_rows(self):
        return [
            {
                "eps": p.eps,
                "exponent": p.exponent,
                "std_error": p.std_error,
                "table_std_error": p.table_std_error,
                "trials": p.trials,
                "extrapolated": self.extrapolated,
            }
            for p in self.points
        ]

    def summary(self) -> dict:
        return {"extrapolated": self.extrapolated, "extrapolated_se": self.extrapolated_se,
                "slope": self.slope, "slope_se": self.slope_se, "chi2_dof": self.chi2_dof}

    def exponent_check(self, beta_ref: float) -> dict:
        """Passes when the intercept lies within 3 of its standard errors of
        the cloud's `beta_reference`."""
        if self.extrapolated is None:
            return {"criterion": "continuum-exponent", "passed": False,
                    "detail": "no fit: needs points at two or more eps"}
        z = (self.extrapolated - beta_ref) / self.extrapolated_se
        chi2 = "n/a" if self.chi2_dof is None else f"{self.chi2_dof:.2f}"
        return {"criterion": "continuum-exponent", "passed": bool(abs(z) <= 3.0),
                "detail": f"intercept {self.extrapolated:.4f} +- {self.extrapolated_se:.4f} "
                          f"against beta_ref {beta_ref:.4f}: z={z:+.2f} (bound 3); "
                          f"slope {self.slope:.4f} +- {self.slope_se:.4f}, chi2/dof {chi2}"}


def _table_std_error(logm: np.ndarray) -> float:
    """Standard error of mean(logm) that the table set adds: the variance of
    the per-sub-table means (ray r in group r mod _SUBTABLES) less their ray
    variance, over _SUBTABLES; NaN below two rays per sub-table."""
    if logm.size < 2 * _SUBTABLES:
        return float("nan")
    groups = [logm[k::_SUBTABLES] for k in range(_SUBTABLES)]
    means = np.array([g.mean() for g in groups])
    ray_var = np.mean([g.var(ddof=1) / g.size for g in groups])
    return float(np.sqrt(max(means.var(ddof=1) - ray_var, 0.0) / _SUBTABLES))


def _fit(points: list) -> DimensionCurve:
    """The points with their weighted least-squares line of exponent on
    x = 1/log(1/eps), each point weighted by 1/(std_error^2 +
    table_std_error^2); no line below two distinct eps."""
    if len({p.eps for p in points}) < 2:
        return DimensionCurve(points)
    x = np.array([1.0 / np.log(1.0 / p.eps) for p in points])
    y = np.array([p.exponent for p in points])
    w = 1.0 / np.array([p.std_error**2 + p.table_std_error**2 for p in points])
    design = np.stack((np.ones_like(x), x), axis=1)
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    a, b = cov @ (design.T @ (w * y))
    dof = len(points) - 2
    chi2 = float(np.sum(w * (y - a - b * x) ** 2))
    a_se, b_se = np.sqrt(np.diag(cov))
    return DimensionCurve(points, float(a), float(a_se), float(b), float(b_se),
                          chi2 / dof if dof else None)


def dimension_curve(cloud: ParticleCloud, eps_list, trials: int, rng) -> DimensionCurve:
    """E[-log mass]/log(1/eps) per eps, each from one fresh table set, and
    the weighted line through them in x = 1/log(1/eps).  The error at scale
    eps is controlled by a quantity vanishing with |log eps|; the line in x is
    an implementation choice, flagged as such, whose fit shows in chi2_dof."""
    points = []
    for eps in eps_list:
        if trials <= 0:
            break
        logm = ray_mass_samples(cloud, eps, trials, rng)
        ln = np.log(1.0 / eps)
        points.append(
            DimensionPoint(
                eps=float(eps),
                exponent=float(-logm.mean() / ln),
                std_error=float(logm.std(ddof=1) / np.sqrt(trials) / ln),
                table_std_error=float(_table_std_error(logm) / ln),
                trials=trials,
            )
        )
    return _fit(points)
