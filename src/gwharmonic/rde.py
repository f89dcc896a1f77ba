"""Particle-population solver for the limiting conductance law on [1, inf).

The law is the unique fixed point of the map taking X1, X2 iid and U uniform
to (U + (1-U)/(X1+X2))^{-1}; one population step resamples both arguments
with replacement from the current cloud.  The map contracts the 1-Wasserstein
metric at rate 2(1-log 2) ~ 0.6137, so iteration converges to the fixed
point up to the Monte Carlo floor of the population size.  The solver starts
at the quantiles of `grid_law`, the map iterated on cell masses, so its first
step already moves the cloud by Monte Carlo noise alone.  That first d1
compares one noisy cloud with the noise-free start, and every later one two
noisy clouds, so step 1 reads lower (at M = 1e4, 5.6e-3 against a median of
1.1e-2 over steps 2-52) and the stopping rule fires there more easily.
Every cloud-length pass of the solver holds at most two clouds: the steps
write in turn into the start cloud's buffer and one more, and d1 sums its
gaps block by block, in numpy's own pairwise order, so every bit is that of
whole-array arithmetic.  The floor, `estimate_floor`, is the expected d1 of
two bootstrap resamples of the cloud, one such pass over its gaps with
nothing drawn.  The lattice routines sit beside the grid law: `_rebin`
splits a sorted cloud onto a lattice block by block,
`_self_convolution` gives the law of a sum of two draws from it, which
`beta.kappa_table` reads, and `_convolve` convolves two lattice vectors,
as beta's lattice values do.

Validation tooling lives here too: the tail law F(t) = K0/t + 1 - K0 on
[1,2], and `fixed_point_residuals`, the tuple identities and the Laplace ODE
2 l phi'' + l phi' + phi^2 - phi = 0 as exact averages over the cloud with
delta-method errors, summed in passes of _LEAF values in the same pairwise
order, so they too hold no cloud-size buffer and equal whole-cloud
arithmetic bit for bit.  So do the two error-bar rules that every reported
check of the package uses: `se_of_mean` and `z_score`.  Every random draw
here comes from an SFC64 stream handed in, or from one spawned from it.

The cloud file (`save_cloud`, `load_cloud`) is one ASCII header line, then
the values as little-endian IEEE-754 binary64, read and written in one call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rngs import pool

_CHUNK = 1 << 17  # particles per phi_step chunk (one stream and one pool task)
_BLOCK = 1 << 14  # values per draw, gap or comparison block of a cloud-length pass (128 KiB of float64)
_LEAF = 1 << 16  # values per part of a validate pass: its Python overhead stays below its arithmetic
_GRID_TOP, _GRID_H = 30.0, 0.02  # the grid law's support [1, top) and cell width; mass beyond top is dropped
_GRID_L1, _GRID_ITERS = 1e-12, 200  # its stopping rule: successive masses L1-close, or the step cap
_LATTICE_H, _LATTICE_NODES = 0.01, 1 << 16  # `_rebin`'s node spacing, and its cap on nodes


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
        """Raise CloudFormatError unless the cloud is non-empty, finite, in
        [1, inf) and ascending.  One pass compares neighbours _BLOCK pairs at
        a time, holding no cloud-size temporary; `b >= a` is false at a NaN,
        so an ordered cloud with finite ends is finite throughout."""
        s = self.samples
        if s.size == 0:
            raise CloudFormatError("empty cloud")
        a, b = s[:-1], s[1:]
        ordered = all(np.all(b[lo : lo + _BLOCK] >= a[lo : lo + _BLOCK]) for lo in range(0, a.size, _BLOCK))
        if not (ordered and np.isfinite(s[0]) and np.isfinite(s[-1])) and not np.all(np.isfinite(s)):
            raise CloudFormatError("cloud holds non-finite values")
        if s[0] < 1.0:
            raise CloudFormatError("cloud support must lie in [1, inf)")
        if not ordered:
            raise CloudFormatError("cloud values must be sorted ascending")


def phi_step(cloud: ParticleCloud, rng, out: np.ndarray | None = None) -> ParticleCloud:
    """One population step: cloud-size many iid draws of G(U, X1, X2) with
    X1, X2 resampled with replacement from the cloud, written sorted into
    `out` (a new array when None; never `cloud.samples` itself).

    Output indices are produced in fixed chunks of _CHUNK, each from its own
    spawned stream (draw order per chunk: X1 indices, X2 indices, U) into
    its own slice of the output, and the chunks run on the thread pool; the
    result does not depend on the number of workers.  A cloud of at most
    _CHUNK particles is one chunk.  A chunk draws all its X1 indices, then
    all X2 indices, then all U, each in _BLOCK pieces straight into its
    slice of `out` (a stream's draws do not depend on how they are split;
    see `rngs`), so a task holds two block buffers and the step no cloud
    beyond `out`.
    """
    s = cloud.samples
    out = np.empty(s.size) if out is None else out
    starts = range(0, s.size, _CHUNK)

    def chunk(lo, sub):
        o = out[lo : lo + _CHUNK]
        blocks = [o[b : b + _BLOCK] for b in range(0, o.size, _BLOCK)]
        t, u = np.empty(blocks[0].size), np.empty(blocks[0].size)
        for ob in blocks:  # X1
            np.take(s, sub.integers(0, s.size, size=ob.size), out=ob, mode="clip")
        for ob in blocks:  # + X2
            ob += np.take(s, sub.integers(0, s.size, size=ob.size), out=t[: ob.size], mode="clip")
        for ob in blocks:
            ub = sub.random(out=u[: ob.size])
            # 1 / (u + (1 - u) / x), bit for bit, x in ob
            tb = np.subtract(1.0, ub, out=t[: ob.size])
            tb /= ob
            tb += ub
            np.divide(1.0, tb, out=ob)

    list(pool().map(chunk, starts, rng.spawn(len(starts))))
    out.sort()
    return ParticleCloud(out, cloud.iteration_count + 1, cloud.seed)


def _pairwise_sum(block, lo: int, hi: int, leaf: int = _BLOCK):
    """The sum of a sequence over [lo, hi), `block(i, j)` giving its values
    on [i, j), equal bit for bit to `np.add.reduce` of the whole range:
    numpy's own pairwise order (halve the length, the first half rounded
    down to a multiple of 8) down to parts of at most `leaf`, each summed by
    `np.add.reduce`.  Only one block is held at a time.  A block may hold
    the rows of several sequences, shape (k, j - i); a last-axis reduce sums
    each row in that same order, so the k sums come in one pass."""
    if hi - lo <= leaf:
        return np.add.reduce(block(lo, hi), axis=-1)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(block, lo, lo + half, leaf) + _pairwise_sum(block, lo + half, hi, leaf)


def wasserstein1(a: ParticleCloud, b: ParticleCloud) -> float:
    """d1 between empirical laws: the L1 distance of their quantile functions
    on the K = max(size) levels (i+1/2)/K, lower empirical quantile; for
    equal sizes, the mean |order-statistic gap|.

    The larger cloud is its own quantile grid: fl(fl(i+1/2)/K)*K floors to
    i for K < 2^51.  The smaller cloud (n values) holds its value j on the
    levels i with ((i+1/2)/K*n).astype(int64) == j, a run that starts at the
    least i with (i+1/2)n/K >= j in exact arithmetic, or one level later
    where that index rounds down to j-1; so the index is evaluated once per
    step, at that level, and the smaller cloud is spread over the K levels
    in one K-length buffer (none for equal sizes).  The gaps are taken and
    made absolute block by block and summed by `_pairwise_sum`, so the mean
    is bit for bit `np.mean` of the K gaps, and so the full-grid gather for
    n*K < 2^51; past that, the rounding could move a step by one level.
    """
    x, y = a.samples, b.samples
    if x.size == 0 or y.size == 0:
        raise ValueError("empty cloud")
    if x.size > y.size:
        x, y = y, x  # |x - y| is symmetric in floating point
    n, k = x.size, y.size
    if n < k:
        j = np.arange(1, n)
        first = -((n - 2 * j * k) // (2 * n))  # ceil(jK/n - 1/2) in integers
        first += ((first + 0.5) / k * n).astype(np.int64) < j
        x = np.repeat(x, np.diff(first, prepend=0, append=k))

    def gaps(lo, hi):
        d = x[lo:hi] - y[lo:hi]
        return np.abs(d, out=d)

    return float(_pairwise_sum(gaps, 0, k) / k)


def _rebin(s: np.ndarray) -> tuple[np.ndarray, float]:
    """The sorted cloud s split linearly onto the nodes 1 + ih: a value at
    1 + (i + f) h puts 1 - f of its mass 1/M on node i and f on node i + 1,
    so the lattice law keeps the cloud's mean.  Returns the node masses and
    h, which is _LATTICE_H unless the largest value would need more than
    _LATTICE_NODES nodes: then h coarsens to fit them, so one outlier
    cannot exhaust memory.  The split runs _BLOCK sorted values at a time,
    each block's nodes a contiguous run, so nothing cloud-size is held."""
    h = max(_LATTICE_H, (s[-1] - 1.0) / (_LATTICE_NODES - 2))
    p = np.zeros(int((s[-1] - 1.0) / h) + 2)
    for lo in range(0, s.size, _BLOCK):
        f = s[lo : lo + _BLOCK] - 1.0
        f /= h
        i = f.astype(np.intp)
        f -= i  # the fraction past node i
        base = i[0]
        i -= base
        upper = np.bincount(i, f)
        p[base + 1 : base + 1 + upper.size] += upper
        np.subtract(1.0, f, out=f)
        lower = np.bincount(i, f)
        p[base : base + lower.size] += lower
    p /= s.size
    return p, h


def _self_convolution(p: np.ndarray) -> np.ndarray:
    """The masses of X1 + X2 for X1, X2 iid with masses p on a lattice (entry
    k sums p[i] p[j] over i + j = k), by one zero-padded rfft."""
    return np.fft.irfft(np.fft.rfft(p, 2 * p.size) ** 2, 2 * p.size)[: 2 * p.size - 1]


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry n sums a[i] b[j] over i + j = n, by one zero-padded rfft."""
    n = a.size + b.size - 1
    return np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)


@dataclass(eq=False)
class GridLaw:
    """The fixed point as its CDF at the edges of the cells [1 + ih, 1 + (i+1)h) of
    [1, _GRID_TOP): linear in each cell, each cell's mass a midpoint atom for E[C]."""

    edges: np.ndarray
    cdf: np.ndarray
    h: float

    def summary(self) -> dict:
        return {"h": self.h, "top": _GRID_TOP, "mean": float(np.diff(self.cdf) @ (self.edges[1:] - self.h / 2.0)),
                "K0": 2.0 * float(np.interp(2.0, self.edges, self.cdf))}

    def quantile_cloud(self, m: int, seed: int) -> ParticleCloud:
        """The quantiles at the levels (i + 1/2)/m, in _CHUNK slices of one output."""
        out = np.arange(m, dtype=np.float64)
        out += 0.5
        out /= m  # the levels, replaced by their quantiles in place
        for lo in range(0, m, _CHUNK):
            out[lo : lo + _CHUNK] = np.interp(out[lo : lo + _CHUNK], self.cdf, self.edges)
        return ParticleCloud(out, 0, seed)


def grid_law(h: float = _GRID_H) -> GridLaw:
    """The map on cell masses, from all mass in the first cell until successive
    masses are _GRID_L1-close in L1.  The atoms of S = X1 + X2 lie on cell
    edges, and as 1/G is uniform on [1/S, 1] the new CDF at an edge c is
    P(S <= c) + (1 - 1/c) E[1/(1 - 1/S); S > c].  FFT round-off leaves tiny
    negative masses in the far tail, which would double every step: they are
    clipped to 0 and the masses renormalised.  E[C] converges as h^2."""
    n = round((_GRID_TOP - 1.0) / h)
    edges = 1.0 + h * np.arange(n + 1)
    s = 2.0 + h * np.arange(1, 2 * n)
    k = np.searchsorted(s, edges, side="right")  # the atoms of S at or below each edge
    p = np.r_[1.0, np.zeros(n - 1)]  # all mass in the first cell
    for _ in range(_GRID_ITERS):
        q = _self_convolution(p)
        below = np.concatenate(([0.0], np.cumsum(q)))
        above = np.concatenate((np.cumsum((q / (1.0 - 1.0 / s))[::-1])[::-1], [0.0]))
        new = np.maximum(np.diff(below[k] + (1.0 - 1.0 / edges) * above[k]), 0.0)
        new /= new.sum()
        step, p = np.abs(new - p).sum(), new
        if step < _GRID_L1:
            break
    return GridLaw(edges, np.concatenate(([0.0], np.cumsum(p))), h)


@dataclass
class SolveResult:
    cloud: ParticleCloud
    trace: list  # (iteration, d1 to previous cloud)
    converged: bool
    start_law: GridLaw  # the grid law whose quantiles the solver started from


def solve_fixpoint(m: int, tol: float, max_iters: int, rng, seed: int = 0, polish: int = 0) -> SolveResult:
    """Step from the quantile cloud of `grid_law` until successive clouds are
    tol-close in d1, then `polish` steps more; else stop after `max_iters`
    steps (reported, never raised).  From this start each step's d1 is the
    population's Monte Carlo noise, not a distance to the fixed point.  Step
    1 measures one noisy cloud against the noise-free start, later steps two
    noisy clouds, so step 1's d1 reads lower and meets tol more easily."""
    law = grid_law()
    cloud, spare = law.quantile_cloud(m, seed), np.empty(m)
    trace, converged, stop = [], False, max_iters
    while len(trace) < stop:
        nxt = phi_step(cloud, rng, out=spare)
        trace.append((nxt.iteration_count, wasserstein1(nxt, cloud)))
        cloud, spare = nxt, cloud.samples
        if not converged and trace[-1][1] < tol:
            converged, stop = True, len(trace) + polish
    return SolveResult(cloud, trace, converged, law)


def estimate_floor(cloud: ParticleCloud) -> float:
    """The Monte Carlo floor, below which d1 between clouds of this size
    cannot shrink: the expected d1 of two independent bootstrap resamples of
    the cloud, (2/sqrt(pi M)) sum_i (s[i] - s[i-1]) sqrt(q (1 - q)) at q = i/M.
    On [s[i-1], s[i]) the resamples' CDFs differ by about N(0, 2 q (1 - q)/M),
    whose mean absolute value this sums: the mean of del Barrio, Gine and
    Matran's limit sqrt(M) W1 -> int |B(F(x))| dx (Ann. Probab. 27, 1999),
    with the variance doubled for the two resamples.  Nothing is drawn; the
    gap terms are summed block by block by `_pairwise_sum`."""
    s, m = cloud.samples, cloud.size

    def terms(lo, hi):  # (s[i] - s[i-1]) sqrt(q (1 - q)), q = i/M, i in (lo, hi]
        q = np.arange(lo + 1, hi + 1) / m
        q *= 1.0 - q
        np.sqrt(q, out=q)
        q *= s[lo + 1 : hi + 1] - s[lo:hi]
        return q

    return float(2.0 * _pairwise_sum(terms, 0, m - 1) / math.sqrt(math.pi * m))


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


# ---------------------------------------------------------------------------
# fixed-point identities
# ---------------------------------------------------------------------------


@dataclass
class Residual:
    """A residual that is zero at the fixed point, and its standard error."""

    residual: float
    std_error: float


def _means_and_errors(rows, n: int):
    """The means of the rows of a (k, n) sequence, and each row's
    `se_of_mean`, bit for bit those of the materialized rows; `rows(i, j)`
    gives columns [i, j) as a fresh (k, j - i) array.  Two passes of
    `_pairwise_sum` in _LEAF columns follow np.std's own order: the sum over
    n, then each deviation from that mean squared, their sum over n - 1, and
    the root over sqrt(n)."""
    means = _pairwise_sum(rows, 0, n, _LEAF) / n

    def squares(lo, hi):
        d = rows(lo, hi)
        d -= means[:, None]
        return np.square(d, out=d)

    return means, np.sqrt(_pairwise_sum(squares, 0, n, _LEAF) / (n - 1)) / np.sqrt(n)


def fixed_point_residuals(cloud: ParticleCloud, ell_grid) -> tuple[dict, dict]:
    """Every fixed-point identity of `rde validate`, keyed by its check name,
    as an exact average over the cloud, and the cloud's moments m1, m2, m3.

    With X1, X2 iid from the cloud, E[X(X-1)g'(X)] + E[g(X)] - E[g(X1+X2)]
    is m2 - 2 m1 at g = x ("moment-identity-x"), 2 m3 - 3 m2 - 2 m1^2 at
    g = x^2 ("moment-identity-x2"), and -(2 phi'' + phi' + phi^2 - phi) at
    l = 1 for g = exp(-x/2): "integrated-laplace" is the negated
    "laplace-ode-l1" row, so ell_grid must hold 1.  "laplace-ode-l{l}" is
    2 l phi'' + l phi' + phi^2 - phi, with phi(l) = E exp(-l X/2) and its
    derivatives in l exact averages (no numerical differentiation).

    Each residual is a polynomial of whole-cloud means; its standard error
    is `se_of_mean` of its influence, the polynomial's gradient applied to
    the per-value functions: x^2 - 2x, 2x^3 - 3x^2 - 4 m1 x, and
    e ((2 phi - 1) - (l/2) x + (l/2) x^2), e = exp(-l x/2), less its constant
    (2 phi - 1) e[0], so that its values keep their precision as l -> 0 and
    a constant cloud's error is exactly 0.  Nothing is drawn.  The moment
    identities and each l are one pool task of three passes over the cloud,
    _LEAF values at a time: the means, then `_means_and_errors` of the
    influences.  Each pass applies each operation of the per-value
    expressions in turn, so every number is bit for bit that of whole-cloud
    buffers, and a task holds a few leaf rows, no cloud-size buffer."""
    s, n = cloud.samples, cloud.size

    def moment_identities():
        def powers(lo, hi):  # x, x^2 and x^3, as the oracle `moment` takes them
            x, r = s[lo:hi], np.empty((3, hi - lo))
            r[0] = x
            np.square(x, out=r[1])
            np.power(x, 3, out=r[2])
            return r

        m1, m2, m3 = moments = [float(v) for v in _pairwise_sum(powers, 0, n, _LEAF) / n]

        def influences(lo, hi):  # x^2 - 2x, and x (2 (x^2 - 2x) + x - 4 m1) = 2x^3 - 3x^2 - 4 m1 x
            x, r = s[lo:hi], np.empty((2, hi - lo))
            np.subtract(x, 2.0, out=r[0])
            r[0] *= x
            np.multiply(r[0], 2.0, out=r[1])
            r[1] += x
            r[1] -= 4.0 * m1
            r[1] *= x
            return r

        se = _means_and_errors(influences, n)[1]
        return (Residual(m2 - 2.0 * m1, float(se[0])),
                Residual(2.0 * m3 - 3.0 * m2 - 2.0 * m1 * m1, float(se[1])), moments)

    def laplace(ell):
        def weight(x, out):  # exp(-l x/2)
            np.multiply(x, -ell, out=out)
            out /= 2.0
            return np.exp(out, out=out)

        def terms(lo, hi):  # exp(-l x/2), -x/2 exp(-l x/2) and x^2/4 exp(-l x/2)
            x, r = s[lo:hi], np.empty((3, hi - lo))
            e = weight(x, r[0])
            np.negative(x, out=r[1])
            r[1] /= 2.0
            r[1] *= e
            np.square(x, out=r[2])
            r[2] /= 4.0
            r[2] *= e
            return r

        phi, dphi, d2phi = (float(v) for v in _pairwise_sum(terms, 0, n, _LEAF) / n)
        e0 = weight(s[:1], np.empty(1))[0]

        def influence(lo, hi):  # e (l/2) (x^2 - x) + (2 phi - 1) (e - e[0])
            x, r = s[lo:hi], np.empty((1, hi - lo))
            e, t = weight(x, np.empty(hi - lo)), r[0]
            np.multiply(x, ell / 2.0, out=t)
            t -= ell / 2.0
            t *= x
            t *= e
            e -= e0
            e *= 2.0 * phi - 1.0
            t += e
            return r

        se = _means_and_errors(influence, n)[1]
        return Residual(float(2.0 * ell * d2phi + ell * dphi + phi * phi - phi), float(se[0]))

    ells = np.asarray(ell_grid, dtype=np.float64)
    tasks = [pool().submit(moment_identities), *(pool().submit(laplace, ell) for ell in ells)]
    x, x2, moments = tasks[0].result()
    odes = {f"laplace-ode-l{ell:g}": task.result() for ell, task in zip(ells, tasks[1:])}
    l1 = odes["laplace-ode-l1"]
    rows = {"moment-identity-x": x, "moment-identity-x2": x2,
            "integrated-laplace": Residual(-l1.residual, l1.std_error), **odes}
    return rows, dict(zip(("m1", "m2", "m3"), moments))


# ---------------------------------------------------------------------------
# cloud file format (an ASCII header line, then the values as little-endian
# binary64; consumed by the beta and continuum modules)
# ---------------------------------------------------------------------------

CLOUD_MAGIC = "GAMMA-CLOUD"
CLOUD_VERSION = "v3"
_CLOUD_DTYPE = "<f8"  # an explicit byte order, so the bytes do not depend on the host


def save_cloud(cloud: ParticleCloud, path) -> None:
    """`GAMMA-CLOUD v3 <M> <seed> <iterations>` and a newline, then exactly
    8*M bytes: the M ascending values as little-endian IEEE-754 binary64
    (1.0 is the bytes `00 00 00 00 00 00 f0 3f`).  Exact and
    byte-reproducible; numpy reads the values in one call,
    `np.fromfile(path, "<f8", offset=len(header_line))`.  One `tofile`
    writes them, with no copy on a little-endian host."""
    cloud.validate()
    with open(path, "wb") as fh:
        fh.write(f"{CLOUD_MAGIC} {CLOUD_VERSION} {cloud.size} {cloud.seed} {cloud.iteration_count}\n".encode("ascii"))
        cloud.samples.astype(_CLOUD_DTYPE, copy=False).tofile(fh)


def load_cloud(path) -> ParticleCloud:
    """Read a `save_cloud` file, rejecting a wrong header, and a body that is
    not exactly 8*M bytes before anything is allocated; one `np.fromfile`
    reads the values, which `ParticleCloud.validate` then checks.  Files of
    other versions are refused: re-run `gwharmonic rde solve`."""
    with open(path, "rb") as fh:
        header = fh.readline(256).decode("ascii", errors="replace").split()
        if len(header) != 5:
            raise CloudFormatError(f"{path}: header must be '{CLOUD_MAGIC} {CLOUD_VERSION} <M> <seed> <iterations>'")
        magic, version, m_str, seed_str, iters_str = header
        if magic != CLOUD_MAGIC:
            raise CloudFormatError(f"{path}: bad magic {magic!r}")
        if version != CLOUD_VERSION:
            raise CloudFormatError(f"{path}: unsupported version {version!r}; re-run `gwharmonic rde solve` "
                                   f"to rebuild it as {CLOUD_VERSION}")
        try:
            m, seed, iters = int(m_str), int(seed_str), int(iters_str)
        except ValueError as exc:
            raise CloudFormatError(f"{path}: non-integer header field") from exc
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != 8 * m:
            raise CloudFormatError(f"{path}: count field says {m} values, the body holds {body} bytes, not 8 each")
        samples = np.fromfile(fh, dtype=_CLOUD_DTYPE, count=m)
    cloud = ParticleCloud(samples, iteration_count=iters, seed=seed)
    cloud.validate()
    return cloud
