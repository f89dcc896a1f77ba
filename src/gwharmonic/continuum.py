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

The conditional draw is exact (`_given`).  Given S = C1 + C2, x = 1/G is
uniform on [1/S, 1], so given G = c the cloud pair (C1, C2) has law
proportional to f(C1) f(C2) S/(S-1) 1{S >= c}, and 1-U = (1-1/c)/(1-1/S).
The rays are therefore independent given the cloud.  No choice of a ray
depends on eps, so one ray run to the smallest eps of a ladder gives its log
mass at every eps, and the line through these correlated points is fit by
generalised least squares on the rays' own covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import ParticleCloud, se_of_mean, z_score

# Proposals per pending entry in one round of `_given`, at most: about
# 3 MB of work arrays.  An entry at the cloud maximum can need about M
# proposals, which unbounded doubling would allocate in one round.
_MAX_WIDTH = 1 << 16


def _given(c: np.ndarray, samples: np.ndarray, rng):
    """(1-U, C1, C2) per entry of c, drawn from their law given G = c, with
    C1 and C2 from the cloud `samples`; every c must be a cloud value.

    Iid cloud pairs are proposed and one is accepted when S >= c, with
    probability S/(2(S-1)), which lies in (1/2, 1] as S >= 2.  Round j gives
    every pending entry min(2^j, _MAX_WIDTH) fresh proposals of its own and
    keeps the first accepted one, so an entry whose proposals pass with
    probability p costs O(log(1/p)) rounds below the cap.  The pair
    (c, any) passes S >= c, so every entry ends."""
    a1, a2 = np.empty_like(c), np.empty_like(c)
    todo = np.arange(c.size)
    width = 1
    while todo.size:
        p1, p2 = np.take(samples, rng.integers(0, samples.size, size=(2, todo.size, width)), mode="clip")
        s = p1 + p2
        ok = (s >= c[todo, None]) & (2.0 * (s - 1.0) * rng.random(s.shape) < s)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)[hit]
        a1[todo[hit]], a2[todo[hit]] = p1[hit, first], p2[hit, first]
        todo = todo[~hit]
        width = min(2 * width, _MAX_WIDTH)
    return (1.0 - 1.0 / c) / (1.0 - 1.0 / (a1 + a2)), a1, a2


def ray_mass_samples(cloud: ParticleCloud, trials: int, eps, rng) -> np.ndarray:
    """log cylinder masses of `trials` independent harmonic rays, a (trials,
    len(eps)) matrix: each ray runs once, to the smallest eps, and its mass at
    eps sums its increments at branch heights above eps."""
    eps = np.asarray(eps, float)
    if not np.all((0.0 < eps) & (eps < 0.5)):
        raise ValueError("eps must lie in (0, 1/2)")
    asc = np.sort(eps)
    samples = cloud.samples
    # the root's triple is unconditional
    keep = 1.0 - rng.random(trials)
    a1, a2 = np.take(samples, rng.integers(0, samples.size, size=(2, trials)), mode="clip")
    ray = np.arange(trials)
    h = np.ones(trials)
    logm = np.zeros(trials)
    out = np.empty((asc.size, trials))
    above = np.full(trials, asc.size)  # the ray has crossed asc[above:]
    while ray.size:
        h = h * keep  # remaining height at the branch point
        below = np.searchsorted(asc, h)  # it crosses asc[below:above] here
        n = above - below
        rows = np.repeat(ray, n)
        out[np.repeat(above - np.cumsum(n), n) + np.arange(rows.size), rows] = logm[rows]
        go = below > 0  # h > eps.min()
        ray, h, a1, a2, above = ray[go], h[go], a1[go], a2[go], below[go]
        tot = a1 + a2
        c = np.where(rng.random(ray.size) * tot < a1, a1, a2)
        logm[ray] += np.log(c / tot)
        keep, a1, a2 = _given(c, samples, rng)
    return out[np.searchsorted(asc, eps)].T


@dataclass
class DimensionPoint:
    eps: float
    exponent: float
    std_error: float
    trials: int


@dataclass
class DimensionCurve:
    """Points, and their generalised least-squares line in x = 1/log(1/eps):
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
            need = "points at two or more eps" if len(self.points) < 2 else "more rays than eps"
            return {"criterion": "continuum-exponent", "passed": False,
                    "detail": f"no fit: needs {need}"}
        z = z_score(self.extrapolated - beta_ref, self.extrapolated_se)
        chi2 = "n/a" if self.chi2_dof is None else f"{self.chi2_dof:.2f}"
        return {"criterion": "continuum-exponent", "passed": bool(abs(z) <= 3.0),
                "detail": f"intercept {self.extrapolated:.4f} +- {self.extrapolated_se:.4f} "
                          f"against beta_ref {beta_ref:.4f}: z={z:+.2f} (bound 3); "
                          f"slope {self.slope:.4f} +- {self.slope_se:.4f}, chi2/dof {chi2}"}


def _fit(points: list, cov: np.ndarray) -> DimensionCurve:
    """The points with their generalised least-squares line of exponent on
    x = 1/log(1/eps), under the exponents' covariance `cov`; no line below
    two points or with a singular `cov`."""
    if len(points) < 2 or np.linalg.matrix_rank(cov) < len(points):
        return DimensionCurve(points)
    x = np.array([1.0 / np.log(1.0 / p.eps) for p in points])
    y = np.array([p.exponent for p in points])
    design = np.stack((np.ones_like(x), x), axis=1)
    w = np.linalg.inv(cov)
    line_cov = np.linalg.inv(design.T @ w @ design)
    a, b = line_cov @ (design.T @ (w @ y))
    resid = y - a - b * x
    dof = len(points) - 2
    a_se, b_se = np.sqrt(np.diag(line_cov))
    return DimensionCurve(points, float(a), float(a_se), float(b), float(b_se),
                          float(resid @ w @ resid) / dof if dof else None)


def dimension_curve(cloud: ParticleCloud, eps_list, trials: int, rng) -> DimensionCurve:
    """E[-log mass]/log(1/eps) per eps, all from one pass of `trials` rays, and
    their line in x = 1/log(1/eps) on the rays' covariance.  The error at scale
    eps is controlled by a quantity vanishing with |log eps|; the line in x is
    an implementation choice, flagged as such, whose fit shows in chi2_dof."""
    logm = ray_mass_samples(cloud, trials, eps_list, rng)
    ln = np.log(1.0 / np.asarray(eps_list))
    points = [DimensionPoint(float(e), float(-col.mean() / n), float(se_of_mean(col) / n), trials)
              for e, n, col in zip(eps_list, ln, logm.T)]
    return _fit(points, np.atleast_2d(np.cov(logm, rowvar=False)) / np.outer(ln, ln) / trials)
