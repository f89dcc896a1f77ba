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
from one kappa table per call, a functional of the cloud with nothing drawn:
one self-convolution of the cloud's lattice split.

Every estimator draws its batches through `_batch_sums`: ten groups of
ten consecutive batches, each group one thread-pool task on its own stream
spawned from the estimator's generator, so an estimate is the same on any
number of cores.  The estimators themselves run in the calling thread.
Each estimator's kernel (`_pair_sums`, `_triple_sums`, `_shift_sums`)
works in place in the rows of its draw and one scratch row (the shift also
in its node index), each operation in the order of the expression it
computes, so a pool task holds a few rows of at most _CHUNK tuples.

The error that comes from the cloud itself draws no tuple: `cross_validate`
splits the cloud into ten sub-clouds and takes each estimator's lattice
value on each (`_lattice_values`), an exact functional of the sub-cloud's
split onto a lattice, by rfft convolutions of lattice vectors.  It holds one
int32 permutation of the cloud and one gathered sub-cloud per pool worker:
nothing it holds is a cloud-size temporary of float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .rde import ParticleCloud, _convolve, _rebin, _self_convolution, se_of_mean, z_score
from .rngs import pool

_CHUNK = 1 << 17  # tuples per batched draw
_BATCHES = 100  # batch means behind every batched standard error
_TASKS = 10  # groups of consecutive batches per batched draw: one stream and one pool task each
_SPLIT = 10  # disjoint sub-clouds behind the finite-cloud std errors

TABLE_GRID = np.linspace(0.0, 1.0, 257)  # the kappa table's nodes: a uniform grid on x = 1/G in [0, 1]
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass
class BetaEstimate:
    value: float
    std_error: float  # tuple-resampling component (100 batch means)
    method: str
    sample_count: int
    cloud_std_error: float = 0.0  # finite-cloud component, when estimated

    @property
    def total_std_error(self) -> float:
        return float(np.sqrt(self.std_error**2 + self.cloud_std_error**2))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "std_error": self.std_error,
            "cloud_std_error": self.cloud_std_error,
            "total_std_error": self.total_std_error,
            "samples": self.sample_count,
        }


def _batch_sums(kernel, batch: int, rng) -> np.ndarray:
    """Per-batch sums of _BATCHES batches of `batch` tuples, shape
    (_BATCHES, ...); `kernel(sub, k, m)` draws k batches of m tuples from
    `sub` in one call and returns their k sums.  The batches are drawn in
    _TASKS groups of consecutive batches, each one pool task on its own
    stream of `rng.spawn(_TASKS)`, and each draw holds at most _CHUNK
    tuples: as many whole batches as fit, or one batch in pieces whose sums
    are added up in turn.  The result does not depend on the number of workers."""
    per = _BATCHES // _TASKS

    def group(sub):
        if batch <= _CHUNK:
            step = _CHUNK // batch
            return np.concatenate([kernel(sub, min(step, per - lo), batch) for lo in range(0, per, step)])
        pieces = [min(_CHUNK, batch - done) for done in range(0, batch, _CHUNK)]
        return np.concatenate([sum(kernel(sub, 1, m) for m in pieces) for _ in range(per)])

    return np.concatenate(list(pool().map(group, rng.spawn(_TASKS))))


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


def _cloud_at(s: np.ndarray, v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """v with each value replaced by the sorted cloud s at index floor(v M),
    in place, one coordinate at a time through `idx`, an intp buffer of one
    coordinate's shape (the cast truncates as `astype` does); clip maps the
    rounding case v M == M to M - 1."""
    for c in v:
        c *= s.size
        np.copyto(idx, c, casting="unsafe")
        np.take(s, idx, mode="clip", out=c)
    return v


def _pair_sums(s: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """The moment's k batch sums of c0 c1 / (c0 + c1 - 1) over stratified
    pairs (c0 | c1), in the draw's own rows and one scratch row."""
    v = _stratified(sub, k, m, 2)
    w = np.empty((k, m))
    c0, c1 = _cloud_at(s, v, w.view(np.intp))
    np.add(c0, c1, out=w)
    w -= 1.0
    c0 *= c1
    c0 /= w
    return np.sum(c0, axis=1)


def _triple_sums(s: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """The triple's k batch sums of 2 r t / (r + t + u - 1) log((t + u) / t)
    and of t u / (t + u - 1) over stratified triples (r | t, u), shape
    (k, 2), in the draw's own rows and one scratch row: r and t take the
    summands once they are no longer read."""
    v = _stratified(sub, k, m, 3)
    w = np.empty((k, m))
    r, t, u = _cloud_at(s, v, w.view(np.intp))
    np.add(r, t, out=w)
    w += u
    w -= 1.0
    np.multiply(2.0, r, out=r)
    r *= t
    r /= w
    np.add(t, u, out=w)
    w /= t
    r *= np.log(w, out=w)
    np.add(t, u, out=w)
    w -= 1.0
    t *= u
    t /= w
    return np.stack([np.sum(r, axis=1), np.sum(t, axis=1)], axis=1)


def _shift_sums(s: np.ndarray, table: np.ndarray, sub, k: int, m: int) -> np.ndarray:
    """The shift's k batch sums of w frac log frac, frac = c1 / (c1 + c2), and
    of w (-log(1 - u)) over stratified tuples (c1 | c2, u), shape (k, 2): w
    is the table read linearly at x = u + (1 - u) / (c1 + c2), table[j] +
    t diff(table)[j] with x on the grid at node j plus t.  In the draw's own
    rows, one scratch row and the node index j: c1 takes frac and then its
    summand, c2 x's position on the grid, then t and t diff(table)[j], u its
    summand, and the scratch row c1 + c2, the log and then w."""
    last = table.size - 1
    v = _stratified(sub, k, m, 3)
    w = np.empty((k, m))
    c1, c2 = _cloud_at(s, v[:2], w.view(np.intp))
    u = np.minimum(v[2], _BELOW_ONE, out=v[2])  # (m-1+U)/m can round up to 1
    np.add(c1, c2, out=w)
    c1 /= w
    np.subtract(1.0, u, out=c2)
    c2 /= w
    np.add(u, c2, out=c2)
    c2 *= last
    c1 *= np.log(c1, out=w)  # frac log frac
    np.negative(u, out=u)
    np.negative(np.log1p(u, out=u), out=u)  # -log(1 - u)
    j = c2.astype(np.intp)
    np.minimum(j, last - 1, out=j)
    c2 -= j
    c2 *= np.take(np.diff(table), j, out=w, mode="clip")
    np.take(table, j, out=w, mode="clip")
    w += c2
    c1 *= w
    u *= w
    return np.stack([np.sum(c1, axis=1), np.sum(u, axis=1)], axis=1)


def beta_moment(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Plug-in 0.5 ((E C)^2 / E[C0 C1/(C0+C1-1)] - 1) over stratified
    pairs (c0 | c1)."""
    s = cloud.samples
    a = float(s.mean())
    batch = max(sample_count // _BATCHES, 1)
    bmeans = _batch_sums(partial(_pair_sums, s), batch, rng) / batch
    b = float(bmeans.mean())
    se_b = se_of_mean(bmeans)
    value = 0.5 * (a * a / b - 1.0)
    std_error = 0.5 * a * a / (b * b) * se_b
    return BetaEstimate(value, std_error, "moment", batch * _BATCHES)


def beta_triple(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Ratio of the triple integral 2 E[RS/(R+S+T-1) log((S+T)/S)] to the
    pair integral E[ST/(S+T-1)] over stratified triples (r | t, u);
    standard error by batching."""
    batch = max(sample_count // _BATCHES, 1)
    num_b, den_b = (_batch_sums(partial(_triple_sums, cloud.samples), batch, rng) / batch).T
    value = float(num_b.mean() / den_b.mean())
    std_error = se_of_mean(num_b / den_b)
    return BetaEstimate(value, std_error, "triple", batch * _BATCHES)


def _kappa(q: np.ndarray, h: float) -> np.ndarray:
    """kappa on TABLE_GRID from the masses q of R = S+T on the nodes 2 + kh:
    sum_k q_k (r_k/2) / (1 + x (r_k - 1))."""
    r = 2.0 + h * np.arange(q.size)
    w = q * (0.5 * r)
    r -= 1.0
    return np.array([np.sum(w / (1.0 + x * r)) for x in TABLE_GRID])


def kappa_table(cloud: ParticleCloud) -> np.ndarray:
    """kappa(x) = E[S / (1 + x (S+T-1))] on TABLE_GRID, where x = 1/r turns
    kappa(r) into a smooth function on [0, 1].  As E[S | S+T] = (S+T)/2,
    kappa(x) = E[(R/2) / (1 + x (R-1))] with R = S+T, the sum of two cloud
    draws: `rde._rebin` splits the cloud onto the lattice 1 + ih, one
    `rde._self_convolution` gives R's masses q_k on the nodes r_k = 2 + kh,
    and kappa(x) = sum_k q_k (r_k/2) / (1 + x (r_k - 1)).  Nothing is drawn:
    the table is a functional of the cloud, kappa(0) its mean and kappa(1)
    = 1/2 up to round-off.  On a full-preset cloud, halving h = 0.01 moves
    the shift by about 1e-7, far below its cloud error."""
    p, h = _rebin(cloud.samples)
    return _kappa(_self_convolution(p), h)


def beta_shift(cloud: ParticleCloud, sample_count: int, rng) -> BetaEstimate:
    """Node-shift estimator: importance weights kappa(G) applied to the
    branch entropy frac log frac, frac = C1 / (C1 + C2), and to the
    branch-spacing length -log(1 - U), as -2 E[kappa(G) frac log frac] /
    E[kappa(G) (-log(1 - U))] over stratified tuples (c1 | c2, u).  The
    weight is the kappa table read linearly at x = 1/G = U + (1-U)/(C1+C2);
    standard error by batching, as the triple's."""
    table = kappa_table(cloud)
    batch = max(sample_count // _BATCHES, 1)
    num_b, den_b = (_batch_sums(partial(_shift_sums, cloud.samples, table), batch, rng) / batch).T
    value = float(-2.0 * num_b.mean() / den_b.mean())
    std_error = se_of_mean(-2.0 * num_b / den_b)
    return BetaEstimate(value, std_error, "shift", batch * _BATCHES)


def _split(cloud: ParticleCloud, rng, k: int) -> list:
    """The indices of k disjoint random sub-clouds of size M/k, from one
    permutation of the cloud drawn from rng: an int32 arange shuffled in
    place, the values and the stream state of `rng.permutation(M)` (M <
    2^31, as `rde solve` allows), cut into k int32 views."""
    perm = np.arange(cloud.size, dtype=np.int32)
    rng.shuffle(perm)
    return np.array_split(perm, k)


def _antiderivatives(x: np.ndarray) -> tuple:
    """Antiderivatives of (1, x) and of (-log(1-x), -x log(1-x)), these in
    y = 1 - x, with y log y = 0 at x = 1."""
    y = 1.0 - x
    ylogy = y * np.log(np.where(y > 0.0, y, 1.0))
    return (x, 0.5 * x * x), (ylogy + x, ylogy - y - 0.5 * y * ylogy + 0.25 * y * y)


def _table_means(table: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each lo in [0, 1) and U uniform on [0, 1), the means over x = U +
    (1 - U) lo of the table read linearly, A, and of the table times -log(1 -
    U), B.  As x is uniform on [lo, 1] and -log(1 - U) = -log(1 - x) + log(1 -
    lo), A = I0 / (1 - lo) and B = I1 / (1 - lo) + log(1 - lo) A, with I0 and
    I1 the integrals over [lo, 1] of the table and of the table times -log(1
    - x).  On each cell of TABLE_GRID the table is a line c + d x, so both
    are closed forms through `_antiderivatives`: exact for the table that the
    shift's tuples read, with no quadrature."""
    last = table.size - 1
    d = np.diff(table) * last
    c = table[:-1] - d * TABLE_GRID[:-1]
    j = np.minimum((lo * last).astype(np.intp), last - 1)  # the cell that holds lo
    integrals = []
    for (f0, f1), (g0, g1) in zip(_antiderivatives(TABLE_GRID), _antiderivatives(lo)):
        cells = c * np.diff(f0) + d * np.diff(f1)
        from_node = np.cumsum(cells[::-1])[::-1]  # the integral from node j to 1
        integrals.append(from_node[j] - c[j] * (g0 - f0[j]) - d[j] * (g1 - f1[j]))
    a = integrals[0] / (1.0 - lo)
    return a, integrals[1] / (1.0 - lo) + np.log1p(-lo) * a


def _lattice_values(s: np.ndarray) -> tuple[float, float, float]:
    """The moment, the triple and the shift as exact functionals of the
    sorted cloud s's split onto the nodes x_i = 1 + ih (`rde._rebin`, masses
    p), with nothing drawn.  A pair sum sigma = x_i + x_j sits on the node
    sigma_n = 2 + nh, so every expectation over a pair is a sum over n of a
    zero-padded rfft convolution of lattice vectors, at O(K log K) for K
    nodes:
    - moment: a = sum x p and b = sum_n conv(xp, xp)_n / (sigma_n - 1);
    - triple: with g_n = E_R[R / (R + sigma_n - 1)] = sum_k (xp)_k / (2 +
      (k+n)h), one correlation, the numerator 2 sum_n g_n (log sigma_n
      conv(xp, p)_n - conv(xp log x, p)_n) over b;
    - shift: kappa from the masses q = conv(p, p) of S+T, as `kappa_table`
      builds it, and -2 sum_n (A_n / sigma_n) (conv(xp log x, p)_n - log
      sigma_n conv(xp, p)_n) over sum_n q_n B_n, with A and B the table's
      means over 1/G given sigma (`_table_means`).
    Each converges to the cloud's own value as h^2 while `_rebin` keeps
    h = _LATTICE_H: a coarsened lattice bounds memory, not accuracy."""
    p, h = _rebin(s)
    x = 1.0 + h * np.arange(p.size)
    xp = x * p
    xlp = xp * np.log(x)
    sigma = 2.0 + h * np.arange(2 * p.size - 1)
    log_sigma = np.log(sigma)
    a = float(np.sum(xp))
    b = float(np.sum(_convolve(xp, xp) / (sigma - 1.0)))
    x_p, xl_p = _convolve(xp, p), _convolve(xlp, p)
    g = _convolve(xp[::-1], 1.0 / (2.0 + h * np.arange(3 * p.size - 2)))[p.size - 1 : 3 * p.size - 2]
    triple = 2.0 * float(np.sum(g * (log_sigma * x_p - xl_p))) / b
    q = _self_convolution(p)
    mean_a, mean_b = _table_means(_kappa(q, h), 1.0 / sigma)
    shift = -2.0 * float(np.sum(mean_a / sigma * (xl_p - log_sigma * x_p))) / float(np.sum(q * mean_b))
    return 0.5 * (a * a / b - 1.0), triple, shift


def cross_validate(cloud: ParticleCloud, budget: int, rng) -> tuple[list, np.ndarray]:
    """Run the three estimators on derived streams and compare them pairwise:
    the estimates, and the 3x3 matrix of pairwise |z| (|z| > 3 flags the
    report).  The estimator runs each draw from their own stream, one after
    another in the calling thread, each spreading its draws over the thread
    pool; the split's permutation is shuffled there, on a fourth stream,
    while they draw.

    All three estimators are smooth functionals of the empirical cloud (the
    shift through its tuples and its kappa table both), so their values
    carry a finite-cloud error of order M^{-1/2} that tuple resampling
    cannot see.  It is read from one split into 10 disjoint sub-clouds: one
    pool task per sub-cloud gathers and sorts it and takes the three
    estimators' lattice values on it (`_lattice_values`), with no tuple
    drawn, and each estimator's cloud std error is the standard error of
    the mean of its 10 values.  It is folded into the pairwise z
    denominators ("agreement within combined statistical error").  A cloud
    of fewer than 10 values, which would leave a sub-cloud empty, is refused
    with a ValueError before any draw.
    """
    if cloud.size < _SPLIT:
        raise ValueError(f"beta cross-validation splits the cloud into {_SPLIT} sub-clouds: "
                         f"needs M >= {_SPLIT}, got M={cloud.size}")
    streams = rng.spawn(4)
    split = pool().submit(_split, cloud, streams[3], _SPLIT)
    ests = [fn(cloud, budget, stream) for fn, stream in zip((beta_moment, beta_triple, beta_shift), streams)]

    def values(part):
        s = cloud.samples[part]  # indexing by the int32 part holds no intp copy of it, where np.take would
        s.sort()
        return _lattice_values(s)

    for est, column in zip(ests, zip(*pool().map(values, split.result()))):
        est.cloud_std_error = se_of_mean(column)
    z = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                z[i, j] = z_score(abs(ests[i].value - ests[j].value),
                                  np.hypot(ests[i].total_std_error, ests[j].total_std_error))
    return ests, z
