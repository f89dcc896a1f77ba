"""Particle-population solver for the limiting conductance law on [1, inf).

The law is the unique fixed point of the map taking X1, X2 iid and U uniform
to (U + (1-U)/(X1+X2))^{-1}; one population step resamples both arguments
with replacement from the current cloud.  The map contracts the 1-Wasserstein
metric at rate 2(1-log 2) ~ 0.6137, so iteration from any start converges to
the fixed point up to the Monte Carlo floor of the population size.

Validation tooling lives here too: moment identities, the tail law
F(t) = K0/t + 1 - K0 on [1,2], and the exact-moment residual of the
Laplace-transform ODE 2 l phi'' + l phi' + phi^2 - phi = 0.  So do the two
error-bar rules that every reported check of the package uses:
`se_of_mean` and `z_score`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

CONTRACTION_RATE = 2.0 * (1.0 - math.log(2.0))  # ~0.6137 per iteration
_CHUNK = 1 << 20
_SAVE_BLOCK = 1 << 16  # cloud values encoded or decoded per block (~1 MB of text)
_BATCHES = 100  # batch means behind every batched standard error (here and in beta)


class CloudFormatError(ValueError):
    pass


def se_of_mean(values) -> float:
    """Standard error of the mean of iid values (or of batch means):
    sample standard deviation over sqrt(count)."""
    return float(np.std(values, ddof=1) / np.sqrt(np.size(values)))


def z_score(diff: float, se: float) -> float:
    """diff / se; with a zero standard error, 0 for a zero diff and an
    infinity of diff's sign for any other."""
    if se > 0:
        return float(diff / se)
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


@dataclass(eq=False)
class ParticleCloud:
    """Sorted empirical approximation of the conductance law."""

    samples: np.ndarray
    iteration_count: int = 0
    seed: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.samples.size

    def validate(self) -> None:
        if self.samples.size == 0:
            raise CloudFormatError("empty cloud")
        if not np.all(np.isfinite(self.samples)):
            raise CloudFormatError("cloud holds non-finite values")
        if self.samples[0] < 1.0:
            raise CloudFormatError("cloud support must lie in [1, inf)")
        if np.any(np.diff(self.samples) < 0):
            raise CloudFormatError("cloud values must be sorted ascending")


def constant_cloud(m: int, value: float = 1.0, seed: int = 0) -> ParticleCloud:
    return ParticleCloud(np.full(m, float(value)), iteration_count=0, seed=seed)


def phi_step(cloud: ParticleCloud, rng) -> ParticleCloud:
    """One population step: cloud-size many iid draws of G(U, X1, X2) with
    X1, X2 resampled with replacement from the cloud.

    Output indices are produced in fixed chunks, each from its own spawned
    stream (draw order per chunk: X1 indices, X2 indices, U), so the result
    does not depend on how chunks would be scheduled across workers.
    """
    s = cloud.samples
    n_chunks = (s.size + _CHUNK - 1) // _CHUNK
    streams = rng.spawn(n_chunks)
    parts = []
    for k, sub in enumerate(streams):
        m = min(_CHUNK, s.size - k * _CHUNK)
        x = s[sub.integers(0, s.size, size=m)]
        x += s[sub.integers(0, s.size, size=m)]
        u = sub.random(m)
        parts.append(1.0 / (u + (1.0 - u) / x))
    out = np.sort(np.concatenate(parts)) if n_chunks > 1 else np.sort(parts[0])
    return ParticleCloud(out, cloud.iteration_count + 1, cloud.seed)


def wasserstein1(a: ParticleCloud, b: ParticleCloud) -> float:
    """d1 between empirical laws: mean |order-statistic gap| for equal sizes,
    else L1 distance of the quantile functions on a uniform grid of
    max(size) points (levels (k+1/2)/K, lower empirical quantile)."""
    x, y = a.samples, b.samples
    if x.size == 0 or y.size == 0:
        raise ValueError("empty cloud")
    if x.size == y.size:
        return float(np.mean(np.abs(x - y)))
    k = max(x.size, y.size)
    u = (np.arange(k) + 0.5) / k
    qx = x[(u * x.size).astype(np.int64)]
    qy = y[(u * y.size).astype(np.int64)]
    return float(np.mean(np.abs(qx - qy)))


@dataclass
class SolveResult:
    cloud: ParticleCloud
    trace: list  # (iteration, d1 to previous cloud)
    converged: bool
    tol: float


def solve_fixpoint(
    m: int,
    tol: float,
    max_iters: int,
    rng,
    initial: ParticleCloud | None = None,
    seed: int = 0,
    polish: int = 0,
) -> SolveResult:
    """Iterate the population step from the all-ones cloud until successive
    clouds are tol-close in d1.  Non-convergence is reported, never raised.

    The stopping rule measures step size, not distance to the fixed point;
    stopping the monotone approach from all-ones leaves a residual bias of
    order tol in smooth functionals.  `polish` extra steps after convergence
    shrink it by the contraction rate per step.
    """
    if m < 1000:
        raise ValueError("population size must be >= 1e3")
    if initial is not None and initial.size != m:
        raise ValueError(f"initial cloud holds {initial.size} particles, not {m}")
    cloud = initial if initial is not None else constant_cloud(m, 1.0, seed)
    trace = []
    converged = False
    for it in range(1, max_iters + 1):
        nxt = phi_step(cloud, rng)
        d1 = wasserstein1(nxt, cloud)
        trace.append((it, d1))
        cloud = nxt
        if d1 < tol:
            converged = True
            break
    if converged:
        for _ in range(polish):
            nxt = phi_step(cloud, rng)
            trace.append((cloud.iteration_count + 1, wasserstein1(nxt, cloud)))
            cloud = nxt
    cloud = ParticleCloud(cloud.samples, cloud.iteration_count, seed)
    return SolveResult(cloud=cloud, trace=trace, converged=converged, tol=tol)


def estimate_floor(cloud: ParticleCloud, rng) -> float:
    """Monte Carlo floor estimate: d1 between two independent bootstrap
    resamples of the cloud (the scale below which d1 cannot shrink)."""
    m = cloud.size
    a = np.sort(cloud.samples[rng.integers(0, m, size=m)])
    b = np.sort(cloud.samples[rng.integers(0, m, size=m)])
    return float(np.mean(np.abs(a - b)))


# ---------------------------------------------------------------------------
# distribution functionals
# ---------------------------------------------------------------------------


def tail_cdf(cloud: ParticleCloud, t: float) -> float:
    """F(t) = fraction of mass in [t, inf)."""
    s = cloud.samples
    return float((s.size - np.searchsorted(s, t, side="left")) / s.size)


def estimate_K0(cloud: ParticleCloud) -> float:
    """K0 = 2 P(C < 2), the density at 1; the tail on [1,2] is K0/t + 1 - K0."""
    return 2.0 * (1.0 - tail_cdf(cloud, 2.0))


def moment(cloud: ParticleCloud, m: int) -> float:
    if m < 1:
        raise ValueError("moment order must be >= 1")
    return float(np.mean(cloud.samples**m))


# ---------------------------------------------------------------------------
# fixed-point identities
# ---------------------------------------------------------------------------


@dataclass
class Residual:
    """A Monte Carlo residual that is zero at the fixed point, and its
    standard error."""

    residual: float
    std_error: float

    @property
    def z(self) -> float:
        return z_score(self.residual, self.std_error)


def _g_funcs(g_spec):
    kind, arg = g_spec
    if kind == "monomial":
        m = int(arg)
        return lambda x: x**m, lambda x: m * x ** (m - 1) if m > 1 else np.ones_like(x)
    if kind == "exp":
        ell = float(arg)
        return lambda x: np.exp(-ell * x / 2.0), lambda x: -(ell / 2.0) * np.exp(-ell * x / 2.0)
    raise ValueError(f"unknown identity test function {g_spec!r}")


def check_identity(cloud: ParticleCloud, g_spec, rng) -> Residual:
    """Monte Carlo residual of E[X(X-1)g'(X)] + E[g(X)] - E[g(X1+X2)] with
    cloud-size many X, X1, X2 resampled from the cloud; zero at the fixed
    point.  Standard error by _BATCHES batch means."""
    g, gp = _g_funcs(g_spec)
    s = cloud.samples
    n = s.size
    x = s[rng.integers(0, n, size=n)]
    y = s[rng.integers(0, n, size=n)]
    res = x * (x - 1.0) * gp(x) + g(x) - g(x + y)
    m = n // _BATCHES
    bmeans = res[: m * _BATCHES].reshape(_BATCHES, m).mean(axis=1)
    return Residual(float(res.mean()), se_of_mean(bmeans))


def laplace_ode_residual(cloud: ParticleCloud, ell_grid) -> list[Residual]:
    """Residual of 2 l phi'' + l phi' + phi^2 - phi at each l, with phi and
    its derivatives computed as exact sample averages (no numerical
    differentiation); standard errors by _BATCHES batch means over the cloud
    in an order drawn from the cloud seed's Philox stream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cloud.seed)))
    s = cloud.samples[rng.permutation(cloud.size)]
    m = s.size // _BATCHES
    arr = s[: m * _BATCHES].reshape(_BATCHES, m)
    out = []
    for ell in np.asarray(ell_grid, dtype=np.float64):
        e = np.exp(-ell * arr / 2.0)
        phi_b = e.mean(axis=1)
        dphi_b = np.mean(-arr / 2.0 * e, axis=1)
        d2phi_b = np.mean(arr**2 / 4.0 * e, axis=1)
        res_b = 2.0 * ell * d2phi_b + ell * dphi_b + phi_b**2 - phi_b
        full = np.exp(-ell * s / 2.0)
        phi = full.mean()
        res = (
            2.0 * ell * np.mean(s**2 / 4.0 * full)
            + ell * np.mean(-s / 2.0 * full)
            + phi * phi
            - phi
        )
        out.append(Residual(float(res), se_of_mean(res_b)))
    return out


# ---------------------------------------------------------------------------
# cloud file format (text, one IEEE-754 bit pattern per line; consumed by the
# beta and continuum modules)
# ---------------------------------------------------------------------------

CLOUD_MAGIC = "GAMMA-CLOUD"
CLOUD_VERSION = "v2"
_LINE = 17  # 16 hex digits and a newline
_DIGITS = b"0123456789abcdef\n"  # code -> byte: the 16 nibble values, then 16 for the line end
_ENCODE = _DIGITS.ljust(256, b"\0")
_DECODE = bytes(_DIGITS.find(b) if b in _DIGITS else len(_DIGITS) for b in range(256))  # 17: no place in a line


def save_cloud(cloud: ParticleCloud, path) -> None:
    """`GAMMA-CLOUD v2 <M> <seed> <iterations>` then M ascending lines, each
    the 16 lowercase hex digits of the value's big-endian IEEE-754 binary64
    bits (1.0 is `3ff0000000000000`).  Exact and byte-reproducible; any
    language reads a line in one call, in Python
    `struct.unpack(">d", bytes.fromhex(line))`.  Encoded one block per write:
    nibble codes, then one table translation to text."""
    cloud.validate()
    s = cloud.samples
    codes = np.empty((min(s.size, _SAVE_BLOCK), _LINE), dtype=np.uint8)
    codes[:, 16] = 16
    with open(path, "wb") as fh:
        fh.write(f"{CLOUD_MAGIC} {CLOUD_VERSION} {cloud.size} {cloud.seed} {cloud.iteration_count}\n".encode("ascii"))
        for lo in range(0, s.size, _SAVE_BLOCK):
            blk = s[lo : lo + _SAVE_BLOCK]
            octets = blk.astype(">f8").view(np.uint8).reshape(blk.size, 8)
            lines = codes[: blk.size]
            np.right_shift(octets, 4, out=lines[:, 0:16:2])
            np.bitwise_and(octets, 15, out=lines[:, 1:16:2])
            fh.write(lines.tobytes().translate(_ENCODE))


def load_cloud(path) -> ParticleCloud:
    """Read a `save_cloud` file block by block, rejecting a wrong header or
    length and any byte out of place; the values are then checked by
    `ParticleCloud.validate`.  Files of other versions are refused: re-run
    `gwharmonic rde solve` to rebuild them."""
    with open(path, "rb") as fh:
        header = fh.readline(256).decode("ascii", errors="replace").split()
        if len(header) != 5:
            raise CloudFormatError(f"{path}: header must be '{CLOUD_MAGIC} {CLOUD_VERSION} <M> <seed> <iterations>'")
        magic, version, m_str, seed_str, iters_str = header
        if magic != CLOUD_MAGIC:
            raise CloudFormatError(f"{path}: bad magic {magic!r}")
        if version != CLOUD_VERSION:
            raise CloudFormatError(f"{path}: unsupported version {version!r}; re-run `gwharmonic rde solve` with "
                                   f"the same seed and flags to rebuild the same samples as {CLOUD_VERSION}")
        try:
            m, seed, iters = int(m_str), int(seed_str), int(iters_str)
        except ValueError as exc:
            raise CloudFormatError(f"{path}: non-integer header field") from exc
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if m < 0 or body < _LINE * m:
            raise CloudFormatError(f"{path}: count field says {m}, file holds {body // _LINE} lines")
        if body > _LINE * m:
            raise CloudFormatError(f"{path}: {body - _LINE * m} bytes after line {m}")
        samples = np.empty(m, dtype=np.float64)
        for lo in range(0, m, _SAVE_BLOCK):
            k = min(_SAVE_BLOCK, m - lo)
            codes = np.frombuffer(fh.read(_LINE * k).translate(_DECODE), dtype=np.uint8).reshape(k, _LINE)
            bad = np.flatnonzero(codes[:, 16] != 16)
            if bad.size:
                raise CloudFormatError(f"{path}: value {lo + bad[0]} is not 16 digits and a newline")
            if np.count_nonzero(codes > 15) != k:  # the k line ends are the only non-digits
                bad = np.flatnonzero((codes[:, :16] > 15).any(axis=1))
                raise CloudFormatError(f"{path}: value {lo + bad[0]} holds a byte that is not a lowercase hex digit")
            octets = codes[:, 0:16:2] * np.uint8(16) + codes[:, 1:16:2]
            samples[lo : lo + k] = octets.view(">f8").ravel()
    cloud = ParticleCloud(samples, iteration_count=iters, seed=seed)
    cloud.validate()
    return cloud
