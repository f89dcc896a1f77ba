"""Critical offspring distributions, generating functions, survival probabilities.

Every law here has mean one and finite positive variance.  Infinite-support
laws (geometric, Poisson) are truncated where the pmf drops below 1e-16 and
renormalised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PMF_TAIL_CUTOFF = 1e-16
SUM_TOL = 1e-12
MEAN_TOL = 1e-9


class OffspringError(ValueError):
    pass


@dataclass(eq=False)
class OffspringDistribution:
    """Critical offspring law on {0, 1, ..., K}.  Immutable after construction.

    `pmf[k]` is the probability of k children.
    """

    kind: str
    pmf: np.ndarray
    mean: float = field(init=False)
    variance: float = field(init=False)
    _q: list = field(init=False, repr=False)

    def __post_init__(self):
        self.pmf = np.asarray(self.pmf, dtype=np.float64)
        if self.pmf.ndim != 1 or self.pmf.size == 0:
            raise OffspringError("pmf must be a nonempty 1-d array")
        if np.any(self.pmf < 0):
            raise OffspringError("pmf has negative entries")
        total = float(self.pmf.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise OffspringError(f"pmf sums to {total!r}, not 1 within {SUM_TOL}")
        ks = np.arange(self.pmf.size, dtype=np.float64)
        self.mean = float(ks @ self.pmf)
        if abs(self.mean - 1.0) > MEAN_TOL:
            raise OffspringError(
                f"law is not critical: mean {self.mean!r} differs from 1 by more than {MEAN_TOL}"
            )
        self.variance = float((ks * ks) @ self.pmf) - 1.0
        if self.variance <= 0:
            raise OffspringError("variance must be positive (degenerate law theta(1)=1?)")
        self.pmf.flags.writeable = False
        self._q = [1.0]  # survival probabilities q_0, q_1, ...


def geometric() -> OffspringDistribution:
    """theta(k) = 2^{-k-1}: uniform plane trees under fixed-size conditioning."""
    k = np.arange(54)
    pmf = 0.5 ** (k + 1)
    pmf = pmf[pmf >= PMF_TAIL_CUTOFF]
    return OffspringDistribution("geometric", pmf / pmf.sum())


def poisson() -> OffspringDistribution:
    """Mean-one Poisson: uniform Cayley trees under fixed-size conditioning."""
    pmf = [np.exp(-1.0)]
    while pmf[-1] >= PMF_TAIL_CUTOFF:
        pmf.append(pmf[-1] / len(pmf))
    pmf = np.array(pmf[:-1])
    return OffspringDistribution("poisson", pmf / pmf.sum())


def strict_pary(p: int) -> OffspringDistribution:
    """0 or p children: theta(p) = 1/p keeps the law critical."""
    if p < 2:
        raise OffspringError("strict p-ary needs p >= 2")
    pmf = np.zeros(p + 1)
    pmf[0] = 1.0 - 1.0 / p
    pmf[p] = 1.0 / p
    return OffspringDistribution(f"strict-{p}-ary", pmf)


def binary() -> OffspringDistribution:
    """Strictly binary: 0 or 2 children with probability 1/2 each."""
    return strict_pary(2)


def pary(p: int) -> OffspringDistribution:
    """Binomial(p, 1/p): uniform p-ary trees under fixed-size conditioning.

    theta(k) = C(p, k) p^-k (1-1/p)^(p-k) = C(p, k) (p-1)^(p-k) / p^p, one
    exact integer ratio rounded once per k.
    """
    if p < 2:
        raise OffspringError("p-ary needs p >= 2")
    pmf = np.array([math.comb(p, k) * (p - 1) ** (p - k) / p**p for k in range(p + 1)])
    return OffspringDistribution(f"{p}-ary", pmf / pmf.sum())


def custom(pmf_map: dict[int, float]) -> OffspringDistribution:
    """Finitely supported law given as {k: theta(k)}."""
    if not pmf_map:
        raise OffspringError("empty pmf")
    kmax = max(pmf_map)
    pmf = np.zeros(kmax + 1)
    for k, v in pmf_map.items():
        if k < 0:
            raise OffspringError("negative child count in pmf")
        pmf[k] = v
    return OffspringDistribution("custom", pmf)


def from_spec(spec: str) -> OffspringDistribution:
    """Parse a CLI distribution spec.

    Accepted: `geometric`, `poisson`, `binary`, `pary:<p>`, `strict-pary:<p>`,
    `custom:<path>` where the file holds two columns `k value`.
    """
    if spec == "geometric":
        return geometric()
    if spec == "poisson":
        return poisson()
    if spec == "binary":
        return binary()
    if spec.startswith("pary:"):
        return pary(int(spec.split(":", 1)[1]))
    if spec.startswith("strict-pary:"):
        return strict_pary(int(spec.split(":", 1)[1]))
    if spec.startswith("custom:"):
        path = Path(spec.split(":", 1)[1])
        rows = np.loadtxt(path, dtype=np.float64, ndmin=2)
        if rows.shape[1] != 2:
            raise OffspringError(f"{path}: expected two columns `k value`")
        ks = rows[:, 0]
        if np.any(ks != np.round(ks)):
            raise OffspringError(f"{path}: child counts must be integers")
        return custom({int(k): float(v) for k, v in rows})
    raise OffspringError(f"unknown offspring spec {spec!r}")


def survival_probs(dist: OffspringDistribution, n: int) -> np.ndarray:
    """Exact q_0..q_n where q_m = P(height >= m) = 1 - G^(m)(0).

    Iterated in q-space, q_{m+1} = 1 - G(1 - q_m), written as
    sum_k theta(k) (1 - (1-q)^k) to avoid cancellation once q ~ 1/m.
    """
    if n < 0:
        raise OffspringError("n must be >= 0")
    q = dist._q
    ks = np.arange(1, dist.pmf.size, dtype=np.float64)
    w = dist.pmf[1:]
    while len(q) <= n:
        lg = np.log1p(-q[-1]) if q[-1] < 1.0 else -np.inf
        q.append(float(w @ -np.expm1(ks * lg)))
    return np.array(q[: n + 1])

