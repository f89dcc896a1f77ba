"""Workload definitions and output gates.

A workload is a fixed list of `gwharmonic` CLI stage calls with explicit
flags.  `--preset` is never passed (its values are program configuration a
later change may retune), nor `--threads` or `--inner` (slated for deletion).
Every stage writes into `out/`; workloads that need a conductance cloud read
the fixture cloud that set-up produced in `fixture/`.

Each stage names the report it must write, the rows that report must hold,
the row fields that must be finite, and optionally one more gate on the
values.  A gate returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CLOUD_M = 1_000_000
EPS_EXPONENTS = (6, 8, 10, 12, 14)

# Reference values the paper reproduces.
REF_MEAN_C = 1.7227
REF_K0 = 1.4714
REF_BETA = 0.7845
# A value passes when it lies within this many of its standard errors.
Z_REF = 5.0
# Levelset sizes against the exact q_p/q_n.
Z_LEVELSET = 5.0
# Each continuum exponent must lie within this window of REF_BETA.
CONTINUUM_WINDOW = 0.1

VALIDATE_CHECKS = ["moment-identity-x", "moment-identity-x2", "integrated-laplace", "K0-range",
                   "tail-law-on-[1,2]", "laplace-ode-l0.5", "laplace-ode-l1", "laplace-ode-l2",
                   "laplace-ode-l4"]


def cloud_argv(seed: int, out: str) -> list[str]:
    """The `rde solve` call that produces a cloud of CLOUD_M particles."""
    return ["rde", "solve", "--particles", str(CLOUD_M), "--tol", "2e-3", "--polish", "4",
            "--max-iters", "60", "--seed", str(seed), "--out", out, "--format", "both"]


def cloud_path(seed: int, out: str) -> str:
    return f"{out}/cloud_M{CLOUD_M}_seed{seed}.txt"


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


# --- extra gates -----------------------------------------------------------

def survival_probs(law: str, n: int) -> list[float]:
    """q_k for k <= n by q_{k+1} = 1 - G(1 - q_k), with the benchmark's own
    generating functions (independent of the program's tables)."""
    g = {"poisson": lambda s: math.exp(s - 1.0), "geometric": lambda s: 1.0 / (2.0 - s)}[law]
    q = [1.0]
    for _ in range(n):
        q.append(1.0 - g(1.0 - q[-1]))
    return q


def gate_levelset(law: str):
    def gate(report: dict, out: Path) -> list[str]:
        problems = []
        for cell in report["cells"]:
            n, p = cell["n"], cell["p"]
            q = survival_probs(law, n)
            z = (cell["mean"] - q[p] / q[n]) / cell["std_error"]
            if not abs(z) <= Z_LEVELSET:
                problems.append(f"levelset p={p}: z={z:+.2f} against exact q_p/q_n")
        return problems
    return gate


def gate_cloud_refs(seed: int):
    """E[C] and K0 of the solved cloud against the paper's values; standard
    errors from the validate report's moments and the binomial K0 = 2P(C<2)."""
    def gate(report: dict, out: Path) -> list[str]:
        solve = _load(out, f"rde_solve_seed{seed}.json")
        m = solve["config"]["extras"]["particles"]
        moments = report["config"]["extras"]["moments"]
        mean, var = moments["m1"], moments["m2"] - moments["m1"] ** 2
        p_below = solve["K0"] / 2.0
        pairs = [("E[C]", mean, math.sqrt(var / m), REF_MEAN_C),
                 ("K0", solve["K0"], 2.0 * math.sqrt(p_below * (1.0 - p_below) / m), REF_K0)]
        return [f"{label}={value:.5f} is {abs(value - ref) / se:.1f} se from {ref}"
                for label, value, se, ref in pairs if not abs(value - ref) <= Z_REF * se]
    return gate


def gate_beta_ref(report: dict, out: Path) -> list[str]:
    """Inverse-variance consensus of the three estimators against REF_BETA."""
    w = [1.0 / e["total_std_error"] ** 2 for e in report["estimates"]]
    consensus = sum(wi * e["value"] for wi, e in zip(w, report["estimates"])) / sum(w)
    se = 1.0 / math.sqrt(sum(w))
    if abs(consensus - REF_BETA) <= Z_REF * se:
        return []
    return [f"beta consensus {consensus:.5f} is {abs(consensus - REF_BETA) / se:.1f} se "
            f"from {REF_BETA}"]


def gate_continuum(report: dict, out: Path) -> list[str]:
    return [f"continuum exponent {p['exponent']:.4f} at eps={p['eps']:g} outside "
            f"{REF_BETA} +- {CONTINUUM_WINDOW}"
            for p in report["points"] if not abs(p["exponent"] - REF_BETA) <= CONTINUUM_WINDOW]


# --- stages ----------------------------------------------------------------

@dataclass
class Stage:
    name: str                # span name under `cli.`, e.g. discrete_conductance
    argv: list
    report: str              # JSON report in out/
    rows: str | None         # report key holding the rows; None: the report is one row
    key: str | None          # row field identifying a row
    expect: list | None      # the key values the rows must cover, in order
    fields: tuple            # row fields that must be finite
    gate: object = None      # extra gate on the values: (report, out) -> problems

    def check(self, out: Path) -> list[str]:
        """Report present, expected rows, finite fields, then the extra gate."""
        path = out / self.report
        if not path.exists():
            return [f"{self.report} missing"]
        report = json.loads(path.read_text())
        rows = [report] if self.rows is None else report.get(self.rows)
        if self.rows is not None and (
                not isinstance(rows, list) or [r.get(self.key) for r in rows] != self.expect):
            return [f"{self.report}: {self.rows} do not cover {self.key}={self.expect}"]
        bad = [f"{self.report}: {f}={r.get(f)!r}"
               for r in rows for f in self.fields if not _finite(r.get(f))]
        if bad:
            return bad
        return self.gate(report, out) if self.gate else []


@dataclass
class Workload:
    name: str
    needs_cloud: bool
    stages: list = field(default_factory=list)


def _common(seed: int) -> list[str]:
    return ["--seed", str(seed), "--out", "out", "--format", "both"]


def build(name: str, seed: int) -> Workload:
    """The stage list of workload `name` at workload seed `seed`."""
    common = _common(seed)
    fixture = cloud_path(seed, "fixture")
    if name == "conditioned":
        ladder = [25, 50, 100, 200]
        n_arg = ",".join(map(str, ladder))
        return Workload(name, True, [
            Stage("discrete_conductance",
                  ["discrete", "conductance", "--offspring", "geometric", "--n", n_arg,
                   "--trials", "200", "--cloud", fixture, *common],
                  f"conductance_geometric_{seed}.json", "cells", "n", ladder,
                  ("d1_to_cloud", "mean", "second_moment")),
            Stage("discrete_theorem1",
                  ["discrete", "theorem1", "--offspring", "geometric", "--n", n_arg,
                   "--trials", "200", "--delta", "0.25", "--cloud", fixture, *common],
                  f"theorem1_geometric_{seed}.json", "cells", "n", ladder,
                  ("exponent_mean", "exponent_std_error", "concentration_mean")),
        ])
    if name == "cloud-beta":
        cloud = cloud_path(seed, "out")
        return Workload(name, False, [
            Stage("rde_solve", cloud_argv(seed, "out"), f"rde_solve_seed{seed}.json",
                  None, None, None, ("final_d1", "bootstrap_floor", "mean", "K0")),
            Stage("rde_validate", ["rde", "validate", "--cloud", cloud, *common],
                  f"rde_validate_seed{seed}.json", "checks", "criterion", VALIDATE_CHECKS, (),
                  gate_cloud_refs(seed)),
            Stage("beta", ["beta", "--cloud", cloud, "--trials", "2000000", "--method", "all",
                           *common],
                  f"beta_cross_validate_seed{seed}.json", "estimates", "method",
                  ["moment", "triple", "shift"], ("value", "std_error", "total_std_error"),
                  gate_beta_ref),
        ])
    if name == "continuum":
        eps = [2.0 ** -k for k in EPS_EXPONENTS]
        return Workload(name, True, [
            Stage("continuum_dimension",
                  ["continuum", "dimension", "--cloud", fixture,
                   "--eps", ",".join(f"2^-{k}" for k in EPS_EXPONENTS), "--trials", "1000",
                   *common],
                  f"continuum_dimension_seed{seed}.json", "points", "eps", eps,
                  ("exponent", "std_error"), gate_continuum),
        ])
    if name == "fixed-size":
        stages = [
            Stage("discrete_fixed_size",
                  ["discrete", "fixed-size", "--offspring", law, "--edges", "10000", "--n", "40",
                   "--trials", "80", "--delta", "0.25", "--cloud", fixture, *common],
                  f"fixed_size_{law}_{seed}.json", "cells", "N", [10000],
                  ("exponent_mean", "exponent_std_error", "concentration_mean",
                   "acceptance_rate"))
            for law in ("geometric", "poisson")
        ]
        stages.append(Stage(
            "discrete_levelset",
            ["discrete", "levelset", "--offspring", "poisson", "--n", "100", "--p", "20,50",
             "--trials", "600", *common],
            f"levelset_poisson_{seed}.json", "cells", "p", [20, 50],
            ("mean", "std_error", "exact", "z"), gate_levelset("poisson")))
        return Workload(name, True, stages)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("conditioned", "cloud-beta", "continuum", "fixed-size")
