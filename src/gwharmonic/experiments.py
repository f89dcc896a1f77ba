"""End-to-end experiment drivers for the discrete limit theorems.

The height-conditioned experiments sample the reduced conditioned trees
directly, as level forests of FOREST_VERTICES expected vertices: a tree of
height n has sum_g q_{n-g}/q_n of them, known before any draw (per-tree
statistics are independent, so splitting into forests is exact).  Theorem1
and conductance run the exact network computations over each forest, assert
the per-sample invariants fail-fast, and check the mean mid-level size
against the exact q_{n-h}/q_n; levelset reads each tree's level sizes.  The
fixed-size experiment keeps generations 0..n-1 of each tree of N edges as n
arrays of child counts, joins trees generation by generation into level-major
counts until a batch holds FOREST_VERTICES entries, and reduces and sweeps
the batch as one level forest; theorem1 and fixed-size compute their
per-tree exit statistics in one pass.
Every experiment takes arguments the CLI's usage gate has already checked
and returns an ExperimentReport of its results alone; the CLI stamps in the
config (the flags) and the wall clock, and the flags reproduce the run
bit-for-bit under the same seed.
The theorems are asymptotic, so the experiments report finite-size trends
(Mann-Kendall) and identity z-scores rather than exact limits.  `check`,
`z_check` and `trend_check` build every check row of every report.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .beta import BetaEstimate, beta_triple
from .network import (
    check_conductance_invariants,
    forest_boundary_log_mass,
    forest_conductance_to_level,
)
from .offspring import survival_probs
from .rde import ParticleCloud, se_of_mean, wasserstein1, z_score
from .trees import (
    level_set,
    reduce as reduce_tree,
    reduced_child_cdf,
    sample_fixed_size_conditioned,
    sample_reduced_forest,
)

# Vertices per level forest: the expected reduced vertices of the forests
# of theorem1, conductance and levelset, and the kept entries of a
# fixed-size batch.  Bounds peak memory at every n and trial count.
FOREST_VERTICES = 2**20
# Stratified tuples behind beta_reference: on a solved cloud of 1e6 its tuple
# SE reads about 1.5e-4, where 1e6 iid tuples gave about 2e-4.
BETA_REF_TUPLES = 10**5


@dataclass
class ExperimentReport:
    """The one report schema every CLI command writes.

    `cells` are the rows, written under `rows_key` in JSON and one per line
    in CSV; `summary` holds scalar results written at the top level.
    `wall_clock_s` is the whole command's and `config` its flags, both set
    by the CLI.
    """

    experiment: str
    cells: list
    checks: list
    wall_clock_s: float = 0.0
    rows_key: str = "cells"
    summary: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": __version__,
            "config": self.config,
            **self.summary,
            self.rows_key: self.cells,
            "checks": self.checks,
            "wall_clock_s": self.wall_clock_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """One line per row; columns in first-seen row key order."""
        out = io.StringIO()
        cols = list(dict.fromkeys(k for cell in self.cells for k in cell))
        out.write(",".join(cols) + "\n")
        for cell in self.cells:
            out.write(",".join(str(cell.get(k, "")) for k in cols) + "\n")
        return out.getvalue()

    def file_stem(self) -> str:
        seed = self.config.get("seed", "na")
        if "offspring" in self.config:
            return f"{self.experiment}_{self.config['offspring']}_{seed}"
        return f"{self.experiment}_seed{seed}"


def mann_kendall(values, direction: int = 1) -> tuple[int, float]:
    """One-sided Mann-Kendall trend test: (S, p) for the alternative
    `increasing` (direction=+1) or `decreasing` (-1), p from the exact
    permutation null at every n.  A permutation with `inv` inversions has
    S = C(n,2) - 2 inv, and the inversion counts of the n! permutations are
    the coefficients of prod_k (1 + x + ... + x^(k-1)), in Python ints."""
    v = direction * np.asarray(values, dtype=float)
    n = v.size
    s = int(sum(np.sign(v[j] - v[i]) for i in range(n) for j in range(i + 1, n)))
    inv = np.ones(1, object)
    for k in range(2, n + 1):
        inv = np.convolve(inv, np.ones(k, object))
    return s, int(inv[: (n * (n - 1) // 2 - s) // 2 + 1].sum()) / math.factorial(n)


def check(criterion: str, passed, detail: str, **numbers) -> dict:
    """One check row: name, verdict, printed line, and the numbers it tests:
    `statistic`, with `std_error`, `z` and `bound` for a z rule, `p` and
    `bound` for a trend, or `bound` alone for the rule statistic <= bound."""
    return {"criterion": criterion, "passed": bool(passed), "detail": detail, **numbers}


def z_check(criterion: str, diff, se, bound, lead: str = "", tail: str = "") -> dict:
    """A row that passes when |z| <= bound, z = rde.z_score(diff, se); its
    line is `lead`, then z=+x.xx, then `tail`."""
    z = z_score(diff, se)
    return check(criterion, abs(z) <= bound, f"{lead}z={z:+.2f}{tail}",
                 statistic=diff, std_error=se, z=z, bound=bound)


def trend_check(criterion: str, values, direction: int, tail: str = "") -> dict:
    """A row that passes when `mann_kendall(values, direction)` reads p < 0.05;
    its line ends in a note when no series of this length can pass (a
    strictly monotone one attains the smallest p)."""
    s, p = mann_kendall(values, direction)
    floor = mann_kendall(range(len(values)), 1)[1]
    note = f"; underpowered: smallest attainable p = {floor:.4f}" if floor >= 0.05 else ""
    return check(criterion, p < 0.05, f"MK S={s} p={p:.4f}{tail}{note}",
                 statistic=s, p=p, bound=0.05)


def beta_reference(cloud: ParticleCloud, rng) -> BetaEstimate:
    """Pipeline-consistent exponent readout: the triple estimator on the
    supplied cloud (never a hard-coded constant) at BETA_REF_TUPLES tuples.
    Its `std_error` is the tuple component only; the cloud component (about
    4e-5 at M=1e6) is not estimated here."""
    return beta_triple(cloud, BETA_REF_TUPLES, rng)


def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """`np.quantile(values, qs)` bit for bit (its default linear rule, on a
    sorted copy), without the `numpy.ma` import its first call costs."""
    s = np.sort(values)
    v = (s.size - 1) * np.asarray(qs, dtype=np.float64)
    lo = np.floor(v).astype(np.intp)
    a, b, g = s[lo], s[np.minimum(lo + 1, s.size - 1)], v - lo
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def _summary(values: np.ndarray) -> dict:
    q = _quantiles(values, [0.1, 0.5, 0.9])
    return {
        "mean": float(values.mean()),
        "std_error": se_of_mean(values),
        "q10": float(q[0]),
        "median": float(q[1]),
        "q90": float(q[2]),
    }


def midlevel_check(dist, n, sizes) -> dict:
    """The mean generation-h size of the reduced trees, h = n // 2, against
    the exact E = q_{n-h}/q_n, as a z check with SE sd/sqrt(trials)."""
    h = n // 2
    q = survival_probs(dist, n)
    exact = q[n - h] / q[n]
    mean = sizes.mean()
    return z_check(f"reduced-midlevel-n{n}", mean - exact, se_of_mean(sizes), 4,
                   lead=f"h={h} mean={mean:.4f} exact={exact:.4f} ")


def _forest_statistics(dist, cdf, trials, rng, per_forest):
    """Per-tree statistics of `trials` reduced trees of height n = len(cdf),
    drawn from the child-count table `cdf` in level forests of `per` trees,
    FOREST_VERTICES expected vertices: per_forest(forest) returns a tuple of
    per-tree arrays, each concatenated over the forests.  Returns them with
    n's reduced-midlevel check.  Row g of reduced_child_cdf depends on
    q_{n-g-1} alone, so the last n rows of one table of height max(n) serve
    every n of a ladder."""
    n = len(cdf)
    q = survival_probs(dist, n)
    per = max(1, int(FOREST_VERTICES * q[n] / q.sum()))
    stats, sizes = [], []
    for start in range(0, trials, per):
        forest = sample_reduced_forest(cdf, min(per, trials - start), rng)
        stats.append(per_forest(forest))
        sizes.append(forest.level_sizes(n // 2))
        del forest  # free this forest before the next one is drawn
    return [np.concatenate(s) for s in zip(*stats)], midlevel_check(dist, n, np.concatenate(sizes))


def _check_mass(log_mass, starts):
    """Per-tree max-shifted masses (each tree's largest is 1) and their sums;
    raises unless every tree's harmonic measure sums to 1.  Tree i owns
    log_mass[starts[i]:starts[i+1]]."""
    top = np.maximum.reduceat(log_mass, starts)
    p = np.exp(log_mass - np.repeat(top, np.diff(np.append(starts, log_mass.size))))
    total = np.add.reduceat(p, starts)
    off_by = np.max(np.abs(top + np.log(total)))
    if not off_by <= 1e-12:  # NaN fails too
        raise AssertionError(f"harmonic measure mass off by {off_by}")
    return p, total


def _tree_statistics(log_mass, off, u, n, beta, delta):
    """The per-tree statistics of theorem1 and fixed-size in one pass over
    the boundary log-masses of many trees (tree i owns
    log_mass[off[i]:off[i+1]]): the concentration statistic and the exit
    exponent -log mu_n(b)/log n of the boundary vertex b drawn by uniform
    u[i] through the tree's inverse CDF.  The test oracles
    concentration_statistic and sample_boundary do the same for one tree."""
    starts, sizes = off[:-1], np.diff(off)
    tree = np.repeat(np.arange(sizes.size), sizes)
    p, total = _check_mass(log_mass, starts)
    ln = np.log(n)
    inside = (log_mass >= -(beta + delta) * ln) & (log_mass <= -(beta - delta) * ln)
    conc = np.minimum(np.bincount(tree, weights=np.where(inside, np.exp(log_mass), 0.0),
                                  minlength=sizes.size), 1.0)
    cdf = np.cumsum(p / total[tree])  # tree i covers (i, i+1]
    b = np.clip(np.searchsorted(cdf, np.arange(sizes.size) + u, side="right"),
                starts, off[1:] - 1)
    return conc, -log_mass[b] / ln


def run_theorem1(dist, n_list, delta, trials, rng, beta_ref):
    """Mass-concentration experiment: per n, the exact exit-exponent sample
    -log mu_n(Sigma_n)/log n and the concentration statistic around the
    cloud-derived exponent beta_ref; trend across n is the theorem's content.
    Each forest's boundary uniforms are drawn after the forest."""

    def exit_statistics(forest):
        return _tree_statistics(forest_boundary_log_mass(forest), forest.offsets[forest.n],
                                rng.random(forest.size), forest.n, beta_ref, delta)

    table = reduced_child_cdf(dist, max(n_list))
    cells, mids = [], []
    for n in n_list:
        (concs, expos), mid = _forest_statistics(dist, table[-n:], trials, rng, exit_statistics)
        mids.append(mid)
        cell = {"n": n, "trials": trials, "concentration_mean": float(concs.mean()),
                "concentration_se": se_of_mean(concs)}
        cell.update({f"exponent_{k}": v for k, v in _summary(expos).items()})
        cells.append(cell)
    # the gap |mean - beta_ref| must shrink along the ladder; the direction is
    # fixed before the data are seen, so the approach may come from either side
    gaps = np.abs(np.array([c["exponent_mean"] for c in cells]) - beta_ref)
    checks = [
        trend_check("theorem1-exponent-trend", gaps, -1,
                    tail=f" on |mean - beta| decreasing, beta={beta_ref:.4f}"),
        trend_check("theorem1-concentration-trend", [c["concentration_mean"] for c in cells], 1),
    ]
    if max(n_list) >= 400:
        gap = gaps[int(np.argmax(n_list))]
        checks.append(check("theorem1-exponent-at-nmax", gap <= 0.1,
                            f"|mean - beta| = {gap:.4f} at n={max(n_list)}",
                            statistic=gap, bound=0.1))
    checks += mids
    return ExperimentReport("theorem1", cells, checks)


def run_conductance_convergence(dist, n_list, trials, cloud, rng):
    """Law of n C_n against the cloud: d1 must fall as n grows."""

    def scaled_conductance(forest):
        c = forest_conductance_to_level(forest)
        check_conductance_invariants(forest, c)
        return (forest.n * c,)

    table = reduced_child_cdf(dist, max(n_list))
    cells, mids = [], []
    for n in n_list:
        (vals,), mid = _forest_statistics(dist, table[-n:], trials, rng, scaled_conductance)
        mids.append(mid)
        d1 = wasserstein1(ParticleCloud(np.sort(vals)), cloud)
        cells.append({"n": n, "trials": trials, "d1_to_cloud": float(d1),
                      "mean": float(vals.mean()),
                      "second_moment": float(np.mean(vals**2))})
    d1s = [c["d1_to_cloud"] for c in cells]
    rises = sum(not b < a for a, b in zip(d1s, d1s[1:]))  # steps where d1 did not fall
    checks = [
        check("conductance-d1-decreasing", rises == 0,
              f"d1 ladder {['%.4f' % d for d in d1s]}", statistic=rises),
        *mids,
    ]
    return ExperimentReport("conductance", cells, checks)


def run_levelset(dist, n, p_list, trials, rng):
    """Reduced-tree level sizes against the exact identity
    E[#level(n-p)] = q_p/q_n; the same sampled trees serve every p.  They
    come in level forests from _forest_statistics, as in theorem1 and
    conductance; its mid-level check is dropped, as the p = n/2 cell tests
    the same identity.  Each tree's sizes are read through level_set on its
    generation offsets, the running sum of its level sizes."""

    def level_set_sizes(forest):
        sizes = np.stack([forest.level_sizes(g) for g in range(n + 1)], axis=1)
        offsets = np.pad(np.cumsum(sizes, axis=1), ((0, 0), (1, 0)))
        return tuple(np.array([level_set(row, n - p).size for row in offsets], float)
                     for p in p_list)

    per_p, _ = _forest_statistics(dist, reduced_child_cdf(dist, n), trials, rng, level_set_sizes)
    qs = survival_probs(dist, n)
    cells, checks = [], []
    for p, sizes in zip(p_list, per_p):
        exact = qs[p] / qs[n]
        chk = z_check(f"levelset-z-n{n}-p{p}", sizes.mean() - exact, se_of_mean(sizes), 3)
        cells.append({"n": n, "p": p, "trials": trials, "mean": float(sizes.mean()),
                      "std_error": chk["std_error"], "exact": float(exact), "z": chk["z"]})
        checks.append(chk)
    return ExperimentReport("levelset", cells, checks)


def run_corollary_fixed_size(dist, N, n, trials, rng, beta_ref, delta):
    """Fixed-size variant: trees with N edges resampled until height >= n,
    then the same exit statistics as the height-conditioned run."""
    masses, sizes, batch, u = [], [], [], np.empty(trials)
    attempts = entries = 0
    for i in range(trials):
        gens, tcount = sample_fixed_size_conditioned(dist, N, n, rng)
        attempts += tcount
        u[i] = rng.random()  # each tree's boundary uniform, drawn before the next tree
        batch.append(gens)
        entries += sum(map(len, gens))
        if entries >= FOREST_VERTICES or i == trials - 1:
            forest = reduce_tree([np.concatenate(g) for g in zip(*batch)], n)
            masses.append(forest_boundary_log_mass(forest))
            sizes.append(forest.level_sizes(n))
            batch, entries = [], 0
    off = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    concs, expos = _tree_statistics(np.concatenate(masses), off, u, n, beta_ref, delta)
    cell = {"N": N, "n": n, "trials": trials,
            "acceptance_rate": trials / attempts,
            "concentration_mean": float(concs.mean()),
            "concentration_se": se_of_mean(concs)}
    cell.update({f"exponent_{k}": v for k, v in _summary(expos).items()})
    rate = cell["acceptance_rate"]
    checks = [check("fixed-size-height-acceptance", rate > 0.05,
                    f"acceptance rate {rate:.3f}", statistic=rate)]
    return ExperimentReport("fixed_size", [cell], checks)
