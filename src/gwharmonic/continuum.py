"""Continuum reduced tree: sampler, conductance, ray mass, dimension curve.

The tree is binary with branch heights Y_v = Y_parent + U_v (1 - Y_parent)
and is truncated at height 1-eps.  Each truncation leaf is closed with
conductance C*/eps, C* drawn from the solved cloud: the subtree above height
1-eps is a copy of the whole tree scaled by eps, so its root conductance is
C/eps in law, and closing this way keeps the truncated tree's root
conductance exactly on the limiting law (up to cloud error).  A naive open or
short closure would bias the exponent at every accessible eps.

Unit resistance per unit height throughout; the root conductance satisfies
the same algebra as the discrete recursion: C = G(segment fraction, C1, C2).

Trees are generated level-synchronously in chunks of trials so that all draws
vectorise; each chunk consumes one spawned RNG stream, making runs
reproducible regardless of chunk scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rde import ParticleCloud

NODE_BUDGET = 10_000_000
_TARGET_CHUNK_NODES = 4_000_000


class _ChunkCapExceeded(RuntimeError):
    pass


@dataclass(eq=False)
class DeltaBatch:
    """Flat level-order arena for a chunk of independent truncated trees.

    Roots are nodes [0, n_trees); children of an internal node v are
    (child[v], child[v]+1).  `lo` is the height where v's segment starts
    (= parent's branch height), `y` the drawn branch height Y_v; v is a leaf
    when y >= 1-eps, and its segment then ends at 1-eps with closure
    conductance `closure`/eps attached above.
    """

    eps: float
    n_trees: int
    parent: np.ndarray
    tree: np.ndarray
    lo: np.ndarray
    y: np.ndarray
    leaf: np.ndarray
    closure: np.ndarray
    child: np.ndarray
    levels: list  # (start, count) per level
    _cond: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return self.parent.size


def _build_batch(eps, samples, rng, n_trees, node_budget=NODE_BUDGET) -> DeltaBatch:
    top = 1.0 - eps
    cols = {k: [] for k in ("parent", "tree", "lo", "y", "leaf", "closure", "child")}
    levels = []
    lo = np.zeros(n_trees)
    par = np.full(n_trees, -1, np.int64)
    tree = np.arange(n_trees, dtype=np.int64)
    start = 0
    while lo.size:
        m = lo.size
        u = rng.random(m)
        y = lo + u * (1.0 - lo)
        leaf = y >= top
        closure = np.full(m, np.nan)
        n_leaf = int(leaf.sum())
        if n_leaf:
            closure[leaf] = samples[rng.integers(0, samples.size, size=n_leaf)]
        internal = np.flatnonzero(~leaf)
        child = np.full(m, -1, np.int64)
        child[internal] = start + m + 2 * np.arange(internal.size)
        for k, v in (
            ("parent", par), ("tree", tree), ("lo", lo), ("y", y),
            ("leaf", leaf), ("closure", closure), ("child", child),
        ):
            cols[k].append(v)
        levels.append((start, m))
        start += m
        if start > node_budget:
            raise _ChunkCapExceeded(f"chunk passed {node_budget} nodes")
        lo = np.repeat(y[internal], 2)
        par = np.repeat(start - m + internal, 2)
        tree = np.repeat(tree[internal], 2)
    return DeltaBatch(
        eps=eps,
        n_trees=n_trees,
        parent=np.concatenate(cols["parent"]),
        tree=np.concatenate(cols["tree"]),
        lo=np.concatenate(cols["lo"]),
        y=np.concatenate(cols["y"]),
        leaf=np.concatenate(cols["leaf"]),
        closure=np.concatenate(cols["closure"]),
        child=np.concatenate(cols["child"]),
        levels=levels,
    )


def _conductances(batch: DeltaBatch) -> np.ndarray:
    """Bottom-up: leaf = 1/((1-eps-lo) + eps/C*); internal = series(segment,
    parallel(children)).  Cached on the batch."""
    if batch._cond is not None:
        return batch._cond
    eps, top = batch.eps, 1.0 - batch.eps
    a = np.empty(batch.node_count)
    for start, count in reversed(batch.levels):
        sl = slice(start, start + count)
        lf = batch.leaf[sl]
        out = np.empty(count)
        out[lf] = 1.0 / ((top - batch.lo[sl][lf]) + eps / batch.closure[sl][lf])
        idx = batch.child[sl][~lf]
        s = a[idx] + a[idx + 1]
        out[~lf] = 1.0 / ((batch.y[sl][~lf] - batch.lo[sl][~lf]) + 1.0 / s)
        a[sl] = out
    batch._cond = a
    return a


def _ray_masses(batch: DeltaBatch, rng) -> tuple[np.ndarray, np.ndarray]:
    """Descend each tree choosing child i with probability C_i/(C_1+C_2);
    returns (leaf node index, accumulated log mass) per tree."""
    a = _conductances(batch)
    cur = np.arange(batch.n_trees, dtype=np.int64)
    logm = np.zeros(batch.n_trees)
    active = np.flatnonzero(~batch.leaf[cur])
    while active.size:
        c1 = batch.child[cur[active]]
        a1, a2 = a[c1], a[c1 + 1]
        tot = a1 + a2
        left = rng.random(active.size) * tot < a1
        logm[active] += np.log(np.where(left, a1, a2) / tot)
        cur[active] = np.where(left, c1, c1 + 1)
        active = active[~batch.leaf[cur[active]]]
    return cur, logm


def _chunk_sizes(eps: float, trials: int) -> list[int]:
    per = max(1, min(trials, int(_TARGET_CHUNK_NODES * eps / 2.0)))
    out = [per] * (trials // per)
    if trials % per:
        out.append(trials % per)
    return out


def _batches(eps, cloud, trials, rng):
    """Deterministic chunk plan; a chunk that trips the node budget is
    regenerated from a fresh spawned stream (negligible probability at the
    supported eps range, noted bias)."""
    for size in _chunk_sizes(eps, trials):
        for _ in range(8):
            stream = rng.spawn(1)[0]
            try:
                yield _build_batch(eps, cloud.samples, stream, size)
                break
            except _ChunkCapExceeded:
                continue
        else:
            raise RuntimeError("node budget exceeded in 8 consecutive chunks")


# ---------------------------------------------------------------------------
# single-tree interface
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DeltaTree:
    """One truncated continuum tree (a batch of size 1)."""

    batch: DeltaBatch

    @property
    def eps(self) -> float:
        return self.batch.eps

    @property
    def node_count(self) -> int:
        return self.batch.node_count

    @property
    def leaf_count(self) -> int:
        return int(self.batch.leaf.sum())

    @property
    def branch_heights(self) -> np.ndarray:
        return self.batch.y

    def leftmost_ray_branches(self) -> int:
        """Number of branch points on the all-left ray."""
        v, n = 0, 0
        while not self.batch.leaf[v]:
            v = self.batch.child[v]
            n += 1
        return n


def sample_delta(eps: float, cloud: ParticleCloud, rng) -> DeltaTree:
    """One truncated tree with cloud closures at height 1-eps."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    cloud.validate()
    for _ in range(8):
        try:
            return DeltaTree(_build_batch(eps, cloud.samples, rng, 1))
        except _ChunkCapExceeded:
            continue
    raise RuntimeError("node budget exceeded repeatedly")


def delta_conductance(tree: DeltaTree) -> float:
    """Root-to-boundary conductance of the closed truncated tree; its law is
    the cloud's law up to truncation and cloud error."""
    return float(_conductances(tree.batch)[0])


def harmonic_ray_mass(tree: DeltaTree, rng) -> tuple[int, float]:
    """(leaf index, log mass of its boundary cylinder) for one ray chosen by
    splitting flow proportionally to subtree conductances."""
    leaf, logm = _ray_masses(tree.batch, rng)
    return int(leaf[0]), float(logm[0])


# ---------------------------------------------------------------------------
# experiments over many trees
# ---------------------------------------------------------------------------


def conductance_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """Root conductances of `trials` independent trees (self-consistency of
    the closure: this law should reproduce the cloud)."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    out = np.empty(trials)
    done = 0
    for batch in _batches(eps, cloud, trials, rng):
        out[done : done + batch.n_trees] = _conductances(batch)[: batch.n_trees]
        done += batch.n_trees
    return out


def ray_mass_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """log cylinder masses over independent (tree, ray) pairs."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    out = np.empty(trials)
    done = 0
    for batch in _batches(eps, cloud, trials, rng):
        _, logm = _ray_masses(batch, rng)
        out[done : done + batch.n_trees] = logm
        done += batch.n_trees
    return out


@dataclass
class DimensionPoint:
    eps: float
    exponent: float
    std_error: float
    trials: int


@dataclass
class DimensionCurve:
    points: list
    extrapolated: float | None
    extrapolated_se: float | None

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


def dimension_curve(cloud: ParticleCloud, eps_list, trials: int, rng) -> DimensionCurve:
    """E[-log mass]/log(1/eps) per level, plus a two-point extrapolation in
    x = 1/log(1/eps) from the two smallest eps (the error at scale eps is
    controlled by a quantity vanishing with |log eps|; the linear-in-x model
    is an implementation choice, flagged as such)."""
    points = []
    for eps in eps_list:
        if trials <= 0:
            continue
        logm = ray_mass_samples(cloud, eps, trials, rng)
        ln = np.log(1.0 / eps)
        points.append(
            DimensionPoint(
                eps=float(eps),
                exponent=float(-logm.mean() / ln),
                std_error=float(logm.std(ddof=1) / np.sqrt(trials) / ln),
                trials=trials,
            )
        )
    if len(points) >= 2:
        p1, p2 = sorted(points, key=lambda p: p.eps)[:2]  # two smallest eps
        x1, x2 = 1.0 / np.log(1.0 / p1.eps), 1.0 / np.log(1.0 / p2.eps)
        w1, w2 = x2 / (x2 - x1), -x1 / (x2 - x1)
        extrap = w1 * p1.exponent + w2 * p2.exponent
        se = float(np.hypot(w1 * p1.std_error, w2 * p2.std_error))
        return DimensionCurve(points, float(extrap), se)
    return DimensionCurve(points, None, None)
