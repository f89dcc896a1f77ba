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
    """A chunk of independent truncated trees, stored level by level.

    Level 0 holds one root per tree.  Level g+1 is level g's internal
    vertices repeated twice: the children of the k-th internal vertex of
    level g are vertices 2k and 2k+1 of level g+1.  `lo[g]` is where each
    segment starts (= parent's branch height), `y[g]` the drawn branch height
    Y_v; v is a leaf when y >= 1-eps, and its segment then ends at 1-eps with
    closure conductance closure/eps attached above.  `closure[g]` holds the
    closure draws of level g's leaves only, in order.
    """

    eps: float
    lo: list
    y: list
    leaf: list
    closure: list

    @property
    def n_trees(self) -> int:
        return self.lo[0].size

    @property
    def node_count(self) -> int:
        return sum(lo.size for lo in self.lo)


def _build_batch(eps, samples, rng, n_trees) -> DeltaBatch:
    top = 1.0 - eps
    batch = DeltaBatch(eps, [], [], [], [])
    lo = np.zeros(n_trees)
    nodes = 0
    while lo.size:
        u = rng.random(lo.size)
        y = lo + u * (1.0 - lo)
        leaf = y >= top
        batch.lo.append(lo)
        batch.y.append(y)
        batch.leaf.append(leaf)
        batch.closure.append(samples[rng.integers(0, samples.size, size=int(leaf.sum()))])
        nodes += lo.size
        if nodes > NODE_BUDGET:
            raise _ChunkCapExceeded(f"chunk passed {NODE_BUDGET} nodes")
        lo = np.repeat(y[~leaf], 2)
    return batch


def _conductances(batch: DeltaBatch) -> list[np.ndarray]:
    """Bottom-up, one array per level: leaf = 1/((1-eps-lo) + eps/C*);
    internal = series(segment, parallel(children))."""
    eps, top = batch.eps, 1.0 - batch.eps
    out = [None] * len(batch.lo)
    above = np.empty(0)
    for g in reversed(range(len(batch.lo))):
        lo, y, leaf = batch.lo[g], batch.y[g], batch.leaf[g]
        a = np.empty(lo.size)
        a[leaf] = 1.0 / ((top - lo[leaf]) + eps / batch.closure[g])
        inner = ~leaf
        a[inner] = 1.0 / ((y[inner] - lo[inner]) + 1.0 / (above[0::2] + above[1::2]))
        out[g] = above = a
    return out


def _ray_masses(batch: DeltaBatch, cond: list, rng) -> tuple[tuple, np.ndarray]:
    """Descend each tree choosing child i with probability C_i/(C_1+C_2), one
    level per step, given the batch's `_conductances`; returns each tree's
    leaf as (level, position) arrays and its accumulated log mass."""
    pos = np.arange(batch.n_trees)
    level = np.zeros(batch.n_trees, np.int64)
    logm = np.zeros(batch.n_trees)
    active = np.flatnonzero(~batch.leaf[0])
    g = 0
    while active.size:
        rank = np.cumsum(~batch.leaf[g]) - 1
        c1 = 2 * rank[pos[active]]
        a1, a2 = cond[g + 1][c1], cond[g + 1][c1 + 1]
        tot = a1 + a2
        left = rng.random(active.size) * tot < a1
        logm[active] += np.log(np.where(left, a1, a2) / tot)
        pos[active] = np.where(left, c1, c1 + 1)
        g += 1
        level[active] = g
        active = active[~batch.leaf[g][pos[active]]]
    return (level, pos), logm


def _chunk_sizes(eps: float, trials: int) -> list[int]:
    per = max(1, min(trials, int(_TARGET_CHUNK_NODES * eps / 2.0)))
    out = [per] * (trials // per)
    if trials % per:
        out.append(trials % per)
    return out


def _batches(eps, cloud, trials, rng):
    """Deterministic chunk plan; a chunk that trips the node budget is
    regenerated from a fresh spawned stream (a bias against large trees,
    counted by `dimension_curve` as `regenerated_chunks`)."""
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


def sample_delta(eps: float, cloud: ParticleCloud, rng) -> DeltaBatch:
    """One truncated tree (a batch of size 1) with cloud closures at height
    1-eps.  The cloud is not validated here; clouds are checked where they
    enter the program (`rde.load_cloud`)."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    for _ in range(8):
        try:
            return _build_batch(eps, cloud.samples, rng, 1)
        except _ChunkCapExceeded:
            continue
    raise RuntimeError("node budget exceeded repeatedly")


def delta_conductance(tree: DeltaBatch) -> float:
    """Root-to-boundary conductance of a one-tree batch; its law is the
    cloud's law up to truncation and cloud error."""
    return float(_conductances(tree)[0][0])


def harmonic_ray_mass(tree: DeltaBatch, rng) -> tuple[tuple[int, int], float]:
    """((level, position) of the leaf, log mass of its boundary cylinder) for
    one ray of a one-tree batch, chosen by splitting flow proportionally to
    subtree conductances."""
    (level, pos), logm = _ray_masses(tree, _conductances(tree), rng)
    return (int(level[0]), int(pos[0])), float(logm[0])


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
        out[done : done + batch.n_trees] = _conductances(batch)[0]
        done += batch.n_trees
        del batch  # free this chunk before _batches builds the next one
    return out


def ray_mass_samples(cloud: ParticleCloud, eps: float, trials: int, rng) -> np.ndarray:
    """log cylinder masses over independent (tree, ray) pairs."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    out = np.empty(trials)
    done = 0
    for batch in _batches(eps, cloud, trials, rng):
        _, logm = _ray_masses(batch, _conductances(batch), rng)
        out[done : done + batch.n_trees] = logm
        done += batch.n_trees
        del batch  # free this chunk before _batches builds the next one
    return out


@dataclass
class DimensionPoint:
    eps: float
    exponent: float
    std_error: float
    trials: int
    regenerated_chunks: int


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
                "regenerated_chunks": p.regenerated_chunks,
            }
            for p in self.points
        ]

    def regenerated_check(self) -> dict:
        """Fails when any chunk was regenerated at the node budget, a bias
        against large trees (bound 0, as for the discrete sampler's node-cap
        drops)."""
        return {"criterion": "continuum-regenerated-chunks",
                "passed": all(p.regenerated_chunks == 0 for p in self.points),
                "detail": "regenerated chunks per eps: "
                          + ", ".join(f"{p.eps:g}:{p.regenerated_chunks}" for p in self.points)}


def dimension_curve(cloud: ParticleCloud, eps_list, trials: int, rng) -> DimensionCurve:
    """E[-log mass]/log(1/eps) per level, plus a two-point extrapolation in
    x = 1/log(1/eps) from the two smallest eps (the error at scale eps is
    controlled by a quantity vanishing with |log eps|; the linear-in-x model
    is an implementation choice, flagged as such)."""
    points = []
    seq = rng.bit_generator.seed_seq
    for eps in eps_list:
        if trials <= 0:
            continue
        spawned = seq.n_children_spawned
        logm = ray_mass_samples(cloud, eps, trials, rng)
        # every chunk build, kept or regenerated, draws one spawned stream
        builds = seq.n_children_spawned - spawned
        ln = np.log(1.0 / eps)
        points.append(
            DimensionPoint(
                eps=float(eps),
                exponent=float(-logm.mean() / ln),
                std_error=float(logm.std(ddof=1) / np.sqrt(trials) / ln),
                trials=trials,
                regenerated_chunks=builds - len(_chunk_sizes(eps, trials)),
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
