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

from .rngs import pool

CONTRACTION_RATE = 2.0 * (1.0 - math.log(2.0))  # ~0.6137 per iteration
_CHUNK = 1 << 17  # particles per phi_step chunk (one stream and one pool task), tuples per batched draw
_SAVE_BLOCK = 1 << 16  # cloud values encoded or decoded per block (~1 MB of text)
_BATCHES = 100  # batch means behind every batched standard error (here and in beta)
_TASKS = 10  # groups of consecutive batches per batched draw: one stream and one pool task each


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


def _batch_sums(kernel, batch: int, rng) -> np.ndarray:
    """Per-batch sums of _BATCHES batches of `batch` tuples, shape
    (_BATCHES, ...).  `kernel(sub, k, m)` draws k batches of m tuples from
    `sub` (each draw of k*m values in one call) and returns their k sums.

    The batches are drawn in _TASKS groups of consecutive batches, each group
    one pool task on its own stream from `rng.spawn(_TASKS)`.  Within a group
    every draw holds at most _CHUNK tuples: as many whole batches as fit, or,
    for batches larger than _CHUNK, one batch in pieces whose sums are added
    up in turn.  The result does not depend on the number of workers."""
    per = _BATCHES // _TASKS

    def group(sub):
        if batch <= _CHUNK:
            step = _CHUNK // batch
            return np.concatenate([kernel(sub, min(step, per - lo), batch) for lo in range(0, per, step)])
        pieces = [min(_CHUNK, batch - done) for done in range(0, batch, _CHUNK)]
        return np.concatenate([sum(kernel(sub, 1, m) for m in pieces) for _ in range(per)])

    return np.concatenate(list(pool().map(group, rng.spawn(_TASKS))))


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
        s = self.samples
        if s.size == 0:
            raise CloudFormatError("empty cloud")
        if not np.all(np.isfinite(s)):
            raise CloudFormatError("cloud holds non-finite values")
        if s[0] < 1.0:
            raise CloudFormatError("cloud support must lie in [1, inf)")
        if np.any(s[1:] < s[:-1]):  # no NaN gets here, so this is diff(s) < 0
            raise CloudFormatError("cloud values must be sorted ascending")


def constant_cloud(m: int, value: float = 1.0, seed: int = 0) -> ParticleCloud:
    return ParticleCloud(np.full(m, float(value)), iteration_count=0, seed=seed)


def phi_step(cloud: ParticleCloud, rng) -> ParticleCloud:
    """One population step: cloud-size many iid draws of G(U, X1, X2) with
    X1, X2 resampled with replacement from the cloud.

    Output indices are produced in fixed chunks of _CHUNK, each from its own
    spawned stream (draw order per chunk: X1 indices, X2 indices, U) into
    its own slice of the output, and the chunks run on the thread pool; the
    result does not depend on the number of workers.  A cloud of at most
    _CHUNK particles is one chunk.
    """
    s = cloud.samples
    out = np.empty(s.size)
    starts = range(0, s.size, _CHUNK)

    def chunk(lo, sub):
        o = out[lo : lo + _CHUNK]
        x = np.take(s, sub.integers(0, s.size, size=o.size), mode="clip")
        x += np.take(s, sub.integers(0, s.size, size=o.size), mode="clip")
        u = sub.random(o.size)
        # 1 / (u + (1 - u) / x), bit for bit, in place
        np.subtract(1.0, u, out=o)
        o /= x
        o += u
        np.divide(1.0, o, out=o)

    list(pool().map(chunk, starts, rng.spawn(len(starts))))
    out.sort()
    return ParticleCloud(out, cloud.iteration_count + 1, cloud.seed)


def wasserstein1(a: ParticleCloud, b: ParticleCloud) -> float:
    """d1 between empirical laws: the L1 distance of their quantile functions
    on the K = max(size) levels (i+1/2)/K, lower empirical quantile; for
    equal sizes, the mean |order-statistic gap|.

    The larger cloud is its own quantile grid: fl(fl(i+1/2)/K)*K floors to
    i for K < 2^51.  The smaller cloud (n values) holds its value j on the
    levels i with ((i+1/2)/K*n).astype(int64) == j, a run that starts at the
    least i with (i+1/2)n/K >= j in exact arithmetic, or one level later
    where that index rounds down to j-1; so the index is evaluated once per
    step, at that level.  The gaps are taken, made absolute and averaged in
    one K-length buffer.  The result is bit for bit the full-grid gather
    for n*K < 2^51; past that, the rounding could move a step by one level.
    """
    x, y = a.samples, b.samples
    if x.size == 0 or y.size == 0:
        raise ValueError("empty cloud")
    if x.size > y.size:
        x, y = y, x  # |x - y| is symmetric in floating point
    n, k = x.size, y.size
    if n == k:
        d = x - y
    else:
        j = np.arange(1, n)
        first = -((n - 2 * j * k) // (2 * n))  # ceil(jK/n - 1/2) in integers
        first += ((first + 0.5) / k * n).astype(np.int64) < j
        d = np.repeat(x, np.diff(first, prepend=0, append=k))
        d -= y
    np.abs(d, out=d)
    return float(np.mean(d))


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
    resamples of the cloud (the scale below which d1 cannot shrink).  Both
    index vectors come from `rng`, a's first; each resample is sorted and
    `wasserstein1` takes their mean |order-statistic gap|."""
    m = cloud.size
    a = np.take(cloud.samples, rng.integers(0, m, size=m), mode="clip")
    a_sorted = pool().submit(a.sort)  # in place, while b is drawn and sorted
    b = np.take(cloud.samples, rng.integers(0, m, size=m), mode="clip")
    b.sort()
    a_sorted.result()
    return wasserstein1(ParticleCloud(a), ParticleCloud(b))


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
    """Monte Carlo residual of E[X(X-1)g'(X)] + E[g(X)] - E[g(X1+X2)] over
    _BATCHES batches of M // _BATCHES tuples (X, X1, X2) resampled from a
    cloud of M particles; zero at the fixed point.  Standard error by the
    batch means.  The batches are drawn by `_batch_sums`, in groups on
    spawned streams on the thread pool; X1 is X, and each draw takes the X
    indices, then the X2 indices."""
    g, gp = _g_funcs(g_spec)
    s = cloud.samples
    batch = max(s.size // _BATCHES, 1)

    def kernel(sub, k, m):
        x = np.take(s, sub.integers(0, s.size, size=(k, m)), mode="clip")
        y = np.take(s, sub.integers(0, s.size, size=(k, m)), mode="clip")
        y += x
        return np.sum(x * (x - 1.0) * gp(x) + g(x) - g(y), axis=1)

    bmeans = _batch_sums(kernel, batch, rng) / batch
    return Residual(float(bmeans.mean()), se_of_mean(bmeans))


def laplace_ode_residual(cloud: ParticleCloud, ell_grid) -> list[Residual]:
    """Residual of 2 l phi'' + l phi' + phi^2 - phi at each l, with phi and
    its derivatives computed as exact sample averages (no numerical
    differentiation); standard errors by _BATCHES batch means over the cloud
    in an order drawn from the cloud seed's Philox stream.  The l values run
    on the thread pool; each computes its summands once, and the batch means
    and the whole mean read the same values."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cloud.seed)))
    s = cloud.samples[rng.permutation(cloud.size)]
    m = s.size // _BATCHES

    def means(v):
        """The _BATCHES batch means of v and its whole mean."""
        return v[: m * _BATCHES].reshape(_BATCHES, m).mean(axis=1), v.mean()

    def residual(ell):
        # exp(-l x/2), -x/2 exp(-l x/2) and x^2/4 exp(-l x/2) over the cloud,
        # each operation of those expressions in turn, in two cloud-size buffers
        e = np.multiply(s, -ell)
        e /= 2.0
        np.exp(e, out=e)
        t = np.negative(s)
        t /= 2.0
        t *= e
        phi, dphi = means(e), means(t)
        np.square(s, out=t)
        t /= 4.0
        t *= e
        return [2.0 * ell * d2 + ell * d1 + p * p - p for p, d1, d2 in zip(phi, dphi, means(t))]

    return [Residual(float(res), se_of_mean(res_b))
            for res_b, res in pool().map(residual, np.asarray(ell_grid, dtype=np.float64))]


# ---------------------------------------------------------------------------
# cloud file format (text, one IEEE-754 bit pattern per line; consumed by the
# beta and continuum modules)
# ---------------------------------------------------------------------------

CLOUD_MAGIC = "GAMMA-CLOUD"
CLOUD_VERSION = "v2"
_LINE = 17  # 16 hex digits and a newline


def save_cloud(cloud: ParticleCloud, path) -> None:
    """`GAMMA-CLOUD v2 <M> <seed> <iterations>` then M ascending lines, each
    the 16 lowercase hex digits of the value's big-endian IEEE-754 binary64
    bits (1.0 is `3ff0000000000000`).  Exact and byte-reproducible; any
    language reads a line in one call, in Python
    `struct.unpack(">d", bytes.fromhex(line))`.  One `hex` call spells each
    block, a newline after every 8 bytes but the last; one more ends it."""
    cloud.validate()
    s = cloud.samples
    buf = np.empty(min(s.size, _SAVE_BLOCK), dtype=">f8")
    with open(path, "wb") as fh:
        fh.write(f"{CLOUD_MAGIC} {CLOUD_VERSION} {cloud.size} {cloud.seed} {cloud.iteration_count}\n".encode("ascii"))
        for lo in range(0, s.size, _SAVE_BLOCK):
            blk = buf[: min(_SAVE_BLOCK, s.size - lo)]
            blk[:] = s[lo : lo + blk.size]
            fh.writelines((memoryview(blk.view(np.uint8)).hex("\n", 8).encode("ascii"), b"\n"))


def load_cloud(path) -> ParticleCloud:
    """Read a `save_cloud` file block by block, rejecting a wrong header or
    length and any byte out of place; the values are then checked by
    `ParticleCloud.validate`.  One `bytes.fromhex` decodes each block; it
    skips whitespace and takes `A`-`F`, so 8 bytes a line rules out spaces
    and short lines, a newline at every 17th byte any other line end, and a
    scan for `A`-`F` capitals; a non-ASCII byte fails the ASCII decode.
    Files of other versions are refused: re-run `gwharmonic rde solve`."""
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
        text = bytearray(_LINE * min(m, _SAVE_BLOCK))
        for lo in range(0, m, _SAVE_BLOCK):
            del text[_LINE * (m - lo) :]  # the last block may be short
            k = fh.readinto(text) // _LINE
            try:
                octets = bytes.fromhex(text.decode("ascii"))
            except ValueError:  # a non-ASCII byte, or one neither a hex digit nor whitespace
                octets = b""
            if len(octets) != 8 * k or text[16::_LINE] != b"\n" * k or any(c in text for c in b"ABCDEF"):
                lines = np.frombuffer(text, dtype=np.uint8).reshape(k, _LINE)
                ends = lines[:, 16] != ord("\n")
                i = np.flatnonzero(ends | ~np.isin(lines[:, :16], list(b"0123456789abcdef")).all(axis=1))[0]
                raise CloudFormatError(f"{path}: value {lo + i} " + ("is not 16 digits and a newline" if ends[i]
                                       else "holds a byte that is not a lowercase hex digit"))
            samples[lo : lo + k] = np.frombuffer(octets, dtype=">f8")
    cloud = ParticleCloud(samples, iteration_count=iters, seed=seed)
    cloud.validate()
    return cloud
