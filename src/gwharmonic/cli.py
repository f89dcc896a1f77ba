"""Command-line front end: configuration, seeding, orchestration, persistence.

Subcommands: `rde solve|validate`, `beta`, `discrete theorem1|conductance|
levelset|fixed-size`, `continuum dimension`.  A master --seed expands into
per-task Philox streams keyed on (seed, module, task), so every artifact is
byte-reproducible from the flags alone.  Exit codes: 0 all checks pass,
1 a statistical check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, beta as beta_mod, continuum, experiments, offspring, rde
from .rngs import task_stream

EPS_LADDER_DEFAULT = [2.0**-k for k in range(6, 41)]

PRESETS = {
    "smoke": {
        "particles": 10**5, "tol": 3e-3, "polish": 0, "budget": 10**6,
        "theorem1_n": [16, 32, 64], "theorem1_trials": 200,
        "conductance_n": [10, 25, 50], "conductance_trials": 500,
        "levelset_n": 50, "levelset_p": [10, 25], "levelset_trials": 1000,
        "edges": 1600, "fixed_n": 20, "fixed_trials": 100,
        "eps": [2.0**-k for k in range(4, 9)], "continuum_trials": 500,
    },
    "full": {
        "particles": 10**6, "tol": 2e-3, "polish": 4, "budget": 10**8,
        "theorem1_n": [50, 100, 200, 400], "theorem1_trials": 2000,
        "conductance_n": [50, 100, 200, 400], "conductance_trials": 10**4,
        "levelset_n": 100, "levelset_p": [20, 50], "levelset_trials": 10**4,
        "edges": 40000, "fixed_n": 80, "fixed_trials": 2000,
        "eps": EPS_LADDER_DEFAULT, "continuum_trials": 10**4,
    },
}


class CliError(Exception):
    """Usage or I/O problem; exits with code 2."""


def _preset(args, key, fallback=None):
    if args.preset and key in PRESETS[args.preset]:
        return PRESETS[args.preset][key]
    return fallback


def _parse_list(text, parse=int):
    """Comma-separated values; an empty list is a usage error."""
    out = [parse(t.strip()) for t in str(text).split(",") if t.strip()]
    if not out:
        raise CliError(f"empty list {text!r}")
    return out


def _parse_eps(tok):
    eps = 2.0 ** float(tok[2:]) if tok.startswith("2^") else float(tok)
    if not 0.0 < eps < 0.5:
        raise CliError(f"eps {eps} outside (0, 1/2)")
    return eps


def _trials(args, key, fallback):
    """--trials, else the preset's, else the fallback; an error bar needs two."""
    trials = args.trials if args.trials is not None else _preset(args, key, fallback)
    if trials < 2:
        raise CliError(f"--trials must be >= 2, got {trials}")
    return trials


def _load_cloud(path) -> rde.ParticleCloud:
    if path is None:
        raise CliError("this command needs --cloud; produce one with `gwharmonic rde solve`")
    p = Path(path)
    if not p.exists():
        raise CliError(f"cloud file {p} not found; run `gwharmonic rde solve` first")
    return rde.load_cloud(p)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(report: experiments.ExperimentReport, outdir: Path, fmt: str) -> list[Path]:
    paths = []
    if fmt in ("json", "both"):
        p = outdir / f"{report.file_stem()}.json"
        p.write_text(report.to_json())
        paths.append(p)
    if fmt in ("csv", "both") and report.cells:
        p = outdir / f"{report.file_stem()}.csv"
        p.write_text(report.to_csv())
        paths.append(p)
    return paths


def _config(args, subcommand, **extras) -> dict:
    """The flags that shaped the run; echoed into its report."""
    cfg = {"subcommand": subcommand, "seed": args.seed, "out": args.out, "format": args.format,
           "offspring": getattr(args, "offspring", None), "cloud": getattr(args, "cloud", None),
           "preset": args.preset}
    return {k: v for k, v in cfg.items() if v is not None} | {"extras": extras}


def _emit(args, report: experiments.ExperimentReport) -> int:
    """Write the report, print its checks, and return the exit code: 0 when
    every check passes, 1 otherwise, inverted under --expect-fail."""
    paths = _write_report(report, _outdir(args), args.format)
    tally = f"{sum(c['passed'] for c in report.checks)}/{len(report.checks)} checks passed; "
    print(f"{report.experiment}: {tally if report.checks else ''}"
          f"wrote {', '.join(map(str, paths))}")
    for c in report.checks:
        print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['criterion']}: {c['detail']}")
    return 0 if report.passed != getattr(args, "expect_fail", False) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rde_solve(args) -> int:
    m = args.particles or _preset(args, "particles", 10**6)
    tol = args.tol if args.tol is not None else _preset(args, "tol", 2e-3)
    polish = args.polish if args.polish is not None else _preset(args, "polish", 0)
    if m < 1000:
        raise CliError("--particles must be >= 1e3")
    rng = task_stream(args.seed, "rde", 0)
    t0 = time.time()
    result = rde.solve_fixpoint(m, tol, args.max_iters, rng, seed=args.seed, polish=polish)
    wall = time.time() - t0
    cloud_path = _outdir(args) / f"cloud_M{m}_seed{args.seed}.txt"
    rde.save_cloud(result.cloud, cloud_path)
    floor = rde.estimate_floor(result.cloud, task_stream(args.seed, "rde", 1))
    final_d1 = result.trace[-1][1]
    rho = rde.CONTRACTION_RATE
    summary = {
        "converged": result.converged,
        "iterations": result.cloud.iteration_count,
        "final_d1": final_d1,
        # d1 from the cloud to the fixed point, for a map contracting by rho
        "residual_bias_bound": final_d1 * rho / (1.0 - rho),
        "bootstrap_floor": floor,
        "mean": rde.moment(result.cloud, 1),
        "K0": rde.estimate_K0(result.cloud),
        "cloud_file": str(cloud_path),
    }
    if tol < floor:
        print(f"warning: tol {tol:g} is below the measured Monte Carlo floor {floor:.2e} "
              f"at M={m}", file=sys.stderr)
    print(f"cloud written to {cloud_path} (converged={result.converged}, "
          f"iters={summary['iterations']}, E[C]={summary['mean']:.4f})")
    cfg = _config(args, "rde solve", particles=m, tol=tol, polish=polish,
                  max_iters=args.max_iters)
    trace = [{"iteration": i, "d1": d} for i, d in result.trace]
    return _emit(args, experiments.ExperimentReport(
        "rde_solve", cfg, trace, [], wall, rows_key="trace", summary=summary))


def cmd_rde_validate(args) -> int:
    cloud = _load_cloud(args.cloud)
    t0 = time.time()
    rng = task_stream(args.seed, "rde", 2)
    checks = []
    m1, m2, m3 = (rde.moment(cloud, k) for k in (1, 2, 3))
    for spec, label in [(("monomial", 1), "moment-identity-x"),
                        (("monomial", 2), "moment-identity-x2"),
                        (("exp", 1.0), "integrated-laplace")]:
        chk = rde.check_identity(cloud, spec, rng)
        checks.append({"criterion": label, "passed": bool(abs(chk.z) <= 3),
                       "detail": f"residual={chk.residual:.3e} se={chk.std_error:.3e} z={chk.z:+.2f}"})
    k0 = rde.estimate_K0(cloud)
    checks.append({"criterion": "K0-range", "passed": bool(1.0 <= k0 <= 2.0),
                   "detail": f"K0={k0:.4f}"})
    ts = np.linspace(1.0, 2.0, 101)
    sup_gap = max(abs(rde.tail_cdf(cloud, t) - (k0 / t + 1 - k0)) for t in ts)
    fit_tol = 5e-3 if cloud.size >= 10**7 else 5e-3 * np.sqrt(10**7 / cloud.size)
    checks.append({"criterion": "tail-law-on-[1,2]", "passed": bool(sup_gap <= fit_tol),
                   "detail": f"sup gap {sup_gap:.2e} (tol {fit_tol:.2e})"})
    for chk in rde.laplace_ode_residual(cloud, [0.5, 1.0, 2.0, 4.0]):
        checks.append({"criterion": f"laplace-ode-l{chk.ell:g}",
                       "passed": bool(abs(chk.z) <= 3),
                       "detail": f"residual={chk.residual:.3e} z={chk.z:+.2f}"})
    cfg = _config(args, "rde validate", moments={"m1": m1, "m2": m2, "m3": m3})
    return _emit(args, experiments.ExperimentReport(
        "rde_validate", cfg, [], checks, time.time() - t0))


def cmd_beta(args) -> int:
    cloud = _load_cloud(args.cloud)
    t0 = time.time()
    budget = args.trials or _preset(args, "budget", 10**7)
    rng = task_stream(args.seed, "beta", 0)
    cfg = _config(args, "beta", budget=budget, method=args.method)
    if args.method != "all":
        fn = {"moment": beta_mod.beta_moment, "triple": beta_mod.beta_triple,
              "shift": beta_mod.beta_shift}[args.method]
        est = fn(cloud, budget, rng)
        print(f"beta[{est.method}] = {est.value:.5f} +- {est.total_std_error:.5f}")
        return _emit(args, experiments.ExperimentReport(
            f"beta_{args.method}", cfg, [est.to_dict()], [], time.time() - t0,
            rows_key="estimates"))
    cv = beta_mod.cross_validate(cloud, budget, rng)
    for e in cv.estimates:
        print(f"beta[{e.method}] = {e.value:.5f} +- {e.total_std_error:.5f}")
    summary = cv.to_dict()
    rows = summary.pop("estimates")
    checks = [{"criterion": "beta-cross-validate", "passed": not cv.flagged,
               "detail": f"max pairwise |z| = {np.max(cv.z_matrix):.2f} (flag above 3)"}]
    return _emit(args, experiments.ExperimentReport(
        "beta_cross_validate", cfg, rows, checks, time.time() - t0,
        rows_key="estimates", summary=summary))


def _dist(args):
    if args.offspring is None:
        raise CliError("--offspring is required (geometric|poisson|binary|pary:<p>|custom:<path>)")
    return offspring.from_spec(args.offspring)


# One task stream per discrete experiment, so that no two reports at one
# seed share random numbers.
DISCRETE_TASKS = {"theorem1": 0, "conductance": 1, "levelset": 2, "fixed-size": 3}


def cmd_discrete(args) -> int:
    dist = _dist(args)
    rng = task_stream(args.seed, "experiments", DISCRETE_TASKS[args.experiment])
    if args.experiment == "levelset":
        n = _parse_list(args.n)[0] if args.n else _preset(args, "levelset_n", 100)
        p_list = _parse_list(args.p) if args.p else _preset(args, "levelset_p", [20, 50])
        trials = _trials(args, "levelset_trials", 2000)
        cfg = _config(args, "discrete levelset")
        report = experiments.run_levelset(dist, n, p_list, trials, rng, config=cfg)
    elif args.experiment == "conductance":
        cloud = _load_cloud(args.cloud)
        n_list = _parse_list(args.n) if args.n else _preset(args, "conductance_n", [50, 100, 200, 400])
        trials = _trials(args, "conductance_trials", 10**4)
        cfg = _config(args, "discrete conductance")
        report = experiments.run_conductance_convergence(
            dist, n_list, trials, cloud, rng, config=cfg)
    elif args.experiment == "theorem1":
        cloud = _load_cloud(args.cloud)
        n_list = _parse_list(args.n) if args.n else _preset(args, "theorem1_n", [50, 100, 200, 400])
        trials = _trials(args, "theorem1_trials", 2000)
        ref = experiments.beta_reference(cloud, task_stream(args.seed, "beta", 1))
        cfg = _config(args, "discrete theorem1") | {"beta_ref_se": ref.std_error}
        report = experiments.run_theorem1(
            dist, n_list, args.delta, trials, rng, ref.value, config=cfg)
    elif args.experiment == "fixed-size":
        cloud = _load_cloud(args.cloud)
        edges = args.edges or _preset(args, "edges", 40000)
        n = _parse_list(args.n)[0] if args.n else _preset(args, "fixed_n", 80)
        trials = _trials(args, "fixed_trials", 2000)
        ref = experiments.beta_reference(cloud, task_stream(args.seed, "beta", 1))
        cfg = _config(args, "discrete fixed-size") | {"beta_ref_se": ref.std_error}
        report = experiments.run_corollary_fixed_size(
            dist, edges, n, trials, rng, ref.value, delta=args.delta, config=cfg)
    else:  # pragma: no cover
        raise CliError(f"unknown discrete experiment {args.experiment}")
    return _emit(args, report)


def cmd_continuum(args) -> int:
    cloud = _load_cloud(args.cloud)
    eps_list = _parse_list(args.eps, _parse_eps) if args.eps else _preset(args, "eps", EPS_LADDER_DEFAULT)
    trials = _trials(args, "continuum_trials", 10**4)
    rng = task_stream(args.seed, "continuum", 0)
    t0 = time.time()
    curve = continuum.dimension_curve(cloud, eps_list, trials, rng)
    ref = experiments.beta_reference(cloud, task_stream(args.seed, "beta", 1))
    wall = time.time() - t0
    if curve.extrapolated is not None:
        print(f"extrapolated exponent = {curve.extrapolated:.4f} +- {curve.extrapolated_se:.4f}")
    for p in curve.points:
        print(f"  eps=2^{np.log2(p.eps):.0f}: exponent {p.exponent:.4f} +- {p.std_error:.4f}")
    cfg = _config(args, "continuum dimension", eps_list=eps_list, trials=trials)
    summary = curve.summary() | {"beta_ref": ref.value, "beta_ref_se": ref.std_error}
    return _emit(args, experiments.ExperimentReport(
        "continuum_dimension", cfg, curve.to_rows(), [curve.exponent_check(ref.value)], wall,
        rows_key="points", summary=summary))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    p.add_argument("--preset", choices=["smoke", "full"], default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwharmonic",
        description="Harmonic-measure experiments on critical Galton-Watson trees",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    rde_p = sub.add_parser("rde", help="conductance-law fixed point")
    rde_sub = rde_p.add_subparsers(dest="rde_command", required=True)
    solve = rde_sub.add_parser("solve", help="solve the distributional fixed point")
    solve.add_argument("--particles", type=int, default=None)
    solve.add_argument("--tol", type=float, default=None)
    solve.add_argument("--max-iters", type=int, default=60)
    solve.add_argument("--polish", type=int, default=None,
                       help="extra steps after the stopping rule fires")
    _add_common(solve)
    validate = rde_sub.add_parser("validate", help="fixed-point identity checks")
    validate.add_argument("--cloud", default=None)
    validate.add_argument("--expect-fail", action="store_true",
                          help="negative-control mode: exit 0 if checks fail")
    _add_common(validate)

    beta_p = sub.add_parser("beta", help="triangulate the exponent from a cloud")
    beta_p.add_argument("--cloud", default=None)
    beta_p.add_argument("--trials", type=int, default=None, help="resampled tuples per estimator")
    beta_p.add_argument("--method", choices=["all", "moment", "triple", "shift"], default="all")
    _add_common(beta_p)

    disc = sub.add_parser("discrete", help="discrete-tree experiments")
    disc.add_argument("experiment", choices=["theorem1", "conductance", "levelset", "fixed-size"])
    disc.add_argument("--offspring", default=None)
    disc.add_argument("--n", default=None, help="level (comma list for ladders)")
    disc.add_argument("--p", default=None, help="comma list of p for levelset")
    disc.add_argument("--edges", type=int, default=None, help="edge count N for fixed-size")
    disc.add_argument("--trials", type=int, default=None)
    disc.add_argument("--delta", type=float, default=0.25)
    disc.add_argument("--cloud", default=None)
    _add_common(disc)

    cont = sub.add_parser("continuum", help="continuum-tree experiments")
    cont.add_argument("experiment", choices=["dimension"])
    cont.add_argument("--cloud", default=None)
    cont.add_argument("--eps", default=None, help="comma list, accepts 2^-k tokens")
    cont.add_argument("--trials", type=int, default=None)
    _add_common(cont)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "rde":
            if args.rde_command == "solve":
                return cmd_rde_solve(args)
            return cmd_rde_validate(args)
        if args.command == "beta":
            return cmd_beta(args)
        if args.command == "discrete":
            return cmd_discrete(args)
        if args.command == "continuum":
            return cmd_continuum(args)
        raise CliError(f"unknown command {args.command}")  # pragma: no cover
    except (CliError, FileNotFoundError, ValueError) as exc:  # CloudFormatError, OffspringError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
