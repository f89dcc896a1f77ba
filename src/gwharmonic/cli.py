"""Command-line front end: configuration, seeding, orchestration, persistence.

Subcommands: `rde solve|validate`, `beta`, `discrete theorem1|conductance|
levelset|fixed-size`, `continuum dimension`.  Each command accepts only the
flags it reads, and every flag left unset takes its value from DEFAULTS,
under --preset's overrides.  A master --seed expands into per-task Philox
streams keyed on (seed, module, task), so every artifact is
byte-reproducible from the flags alone.  Every command returns its
ExperimentReport, and one runner reports them all: it times the command,
stamps the flag echo into the report's config, writes the report and prints
its checks.  Exit codes: 0 all checks pass, 1 a statistical check failed,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, beta as beta_mod, continuum, experiments, offspring, rde
from .experiments import ExperimentReport
from .rngs import task_stream

# The value of every unset flag, per command (keys are argparse dests).
DEFAULTS = {
    "rde solve": {"particles": 10**6, "tol": 2e-3, "max_iters": 60, "polish": 0},
    "beta": {"trials": 5_000_000},
    "discrete theorem1": {"n": [50, 100, 200, 400], "trials": 2000, "delta": 0.25},
    "discrete conductance": {"n": [50, 100, 200, 400], "trials": 10**4},
    "discrete levelset": {"n": 100, "p": [20, 50], "trials": 2000},
    "discrete fixed-size": {"edges": 40000, "n": 80, "trials": 2000, "delta": 0.25},
    "continuum dimension": {"eps": [2.0**-k for k in range(6, 41)], "trials": 6 * 10**4},
}

# What each --preset changes in DEFAULTS; a command takes --preset only when
# some preset changes one of its values.
PRESETS = {
    "smoke": {
        "rde solve": {"particles": 10**5, "tol": 3e-3},
        "beta": {"trials": 250_000},
        "discrete theorem1": {"n": [16, 32, 64], "trials": 200},
        "discrete conductance": {"n": [10, 25, 50], "trials": 500},
        "discrete levelset": {"n": 50, "p": [10, 25], "trials": 1000},
        "discrete fixed-size": {"edges": 1600, "n": 20, "trials": 100},
        "continuum dimension": {"eps": [2.0**-k for k in range(4, 9)], "trials": 500},
    },
    "full": {"rde solve": {"polish": 4}, "beta": {"trials": 25_000_000},
             "discrete levelset": {"trials": 10**4}},
}


def settings(command: str, preset: str | None = None) -> dict:
    """The values a command's unset flags take under `preset`."""
    return DEFAULTS.get(command, {}) | PRESETS.get(preset, {}).get(command, {})


class CliError(Exception):
    """Usage or I/O problem; exits with code 2."""


def _fill(args) -> None:
    """Set every flag the command line left unset; an error bar needs two trials."""
    for key, value in settings(args.stage, getattr(args, "preset", None)).items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if getattr(args, "trials", 2) < 2:
        raise CliError(f"--trials must be >= 2, got {args.trials}")


def _parse_list(text, parse=int):
    """Comma-separated values, as an argparse type: argparse reports a ValueError
    itself, and a CliError (an empty list, an eps out of range) reaches main."""
    out = [parse(t.strip()) for t in text.split(",") if t.strip()]
    if not out:
        raise CliError(f"empty list {text!r}")
    return out


def _eps_list(text):
    """Comma-separated distinct eps in (0, 1/2); a token 2^x reads as 2**x."""
    eps = [2.0 ** float(t[2:]) if t.startswith("2^") else float(t) for t in _parse_list(text, str)]
    for e in eps:
        if not 0.0 < e < 0.5:
            raise CliError(f"eps {e} outside (0, 1/2)")
    if len(set(eps)) < len(eps):
        raise CliError(f"repeated eps in {text!r}: one ray pass serves every eps")
    return eps


def _one_level(text):
    """The --n of levelset and fixed-size: one level, not a ladder."""
    levels = _parse_list(text)
    if len(levels) > 1:
        raise argparse.ArgumentTypeError(f"takes one level, got {text!r}")
    return levels[0]


def _with_default(action, value) -> str:
    """The flag's help, ending in its default as the flag is written: lists
    comma-joined (a long one as its first two and last values), eps as 2^-k."""
    if isinstance(value, list):
        if action.type is _eps_list:
            value = [f"2^{np.log2(e):g}" for e in value]
        value = ",".join(map(str, value if len(value) <= 4 else [*value[:2], "...", value[-1]]))
    return f"{action.help or ''} (default: {value})".lstrip()


def _load_cloud(path) -> rde.ParticleCloud:
    p = Path(path)
    if not p.exists():
        raise CliError(f"cloud file {p} not found; run `gwharmonic rde solve` first")
    return rde.load_cloud(p)


def _write_report(report: ExperimentReport, outdir: Path, fmt: str) -> list[Path]:
    paths = []
    if fmt != "csv" or not report.cells:  # with no rows, only the JSON holds the checks
        p = outdir / f"{report.file_stem()}.json"
        p.write_text(report.to_json())
        paths.append(p)
    if fmt != "json" and report.cells:
        p = outdir / f"{report.file_stem()}.csv"
        p.write_text(report.to_csv())
        paths.append(p)
    return paths


def _config(args) -> dict:
    """The flags that shaped the run; a command's own values go under `extras`."""
    cfg = {"subcommand": args.stage, "seed": args.seed, "out": args.out, "format": args.format,
           "offspring": getattr(args, "offspring", None), "cloud": getattr(args, "cloud", None),
           "preset": getattr(args, "preset", None)}
    return {k: v for k, v in cfg.items() if v is not None} | {"extras": {}}


def _run(args) -> int:
    """Run the command and report it: its wall clock runs from the parsed
    flags to the finished report, and the flag echo goes under the report's
    own config entries.  Makes --out first, so a bad one fails before any
    work; writes the report, prints its checks, and returns the exit code:
    0 when every check passes, 1 otherwise."""
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = args.run(args)
    report.wall_clock_s = time.perf_counter() - t0
    report.config = _config(args) | report.config
    paths = _write_report(report, out, args.format)
    tally = f"{sum(c['passed'] for c in report.checks)}/{len(report.checks)} checks passed; "
    print(f"{report.experiment}: {tally if report.checks else ''}"
          f"wrote {', '.join(map(str, paths))}")
    for c in report.checks:
        print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['criterion']}: {c['detail']}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rde_solve(args) -> ExperimentReport:
    for flag, ok, bound in (("particles", args.particles >= 1000, ">= 1e3"), ("tol", args.tol > 0, "> 0"),
                            ("max-iters", args.max_iters >= 1, ">= 1"), ("polish", args.polish >= 0, ">= 0")):
        if not ok:
            raise CliError(f"--{flag} must be {bound}")
    m, tol = args.particles, args.tol
    rng = task_stream(args.seed, "rde", 0)
    result = rde.solve_fixpoint(m, tol, args.max_iters, rng, seed=args.seed, polish=args.polish)
    cloud_path = Path(args.out) / f"cloud_M{m}_seed{args.seed}.txt"
    rde.save_cloud(result.cloud, cloud_path)
    floor = rde.estimate_floor(result.cloud, task_stream(args.seed, "rde", 1))
    summary = {
        "converged": result.converged,
        "iterations": result.cloud.iteration_count,
        "final_d1": result.trace[-1][1],
        "bootstrap_floor": floor,
        # d1 between successive clouds cannot shrink below the floor: the stopping rule tests noise
        "tol_below_floor": tol < floor,
        "mean": rde.moment(result.cloud, 1),
        "K0": rde.estimate_K0(result.cloud),
        "cloud_file": str(cloud_path),
        "start_law": result.start_law.summary(),  # the grid law whose quantiles it started from
    }
    if summary["tol_below_floor"]:
        print(f"warning: tol {tol:g} is below the measured Monte Carlo floor {floor:.2e} "
              f"at M={m}", file=sys.stderr)
    print(f"cloud written to {cloud_path} (converged={result.converged}, "
          f"iters={summary['iterations']}, E[C]={summary['mean']:.4f})")
    extras = {"particles": m, "tol": tol, "polish": args.polish, "max_iters": args.max_iters}
    trace = [{"iteration": i, "d1": d} for i, d in result.trace]
    return ExperimentReport("rde_solve", {"extras": extras}, trace, [], rows_key="trace",
                            summary=summary)


def cmd_rde_validate(args) -> ExperimentReport:
    cloud = _load_cloud(args.cloud)
    rng = task_stream(args.seed, "rde", 2)
    checks = []
    m1, m2, m3 = (rde.moment(cloud, k) for k in (1, 2, 3))
    # the Laplace pass first: the identities' chunked draws then reuse the
    # memory its cloud-size buffers freed, and the stage peaks at that pass
    ells = [0.5, 1.0, 2.0, 4.0]
    odes = rde.laplace_ode_residual(cloud, ells)
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
    for ell, chk in zip(ells, odes):
        checks.append({"criterion": f"laplace-ode-l{ell:g}",
                       "passed": bool(abs(chk.z) <= 3),
                       "detail": f"residual={chk.residual:.3e} z={chk.z:+.2f}"})
    cfg = {"extras": {"moments": {"m1": m1, "m2": m2, "m3": m3}}}
    return ExperimentReport("rde_validate", cfg, [], checks)


def cmd_beta(args) -> ExperimentReport:
    cloud = _load_cloud(args.cloud)
    rng = task_stream(args.seed, "beta", 0)
    cfg = {"extras": {"budget": args.trials, "method": args.method}}
    if args.method != "all":
        fn = {"moment": beta_mod.beta_moment, "triple": beta_mod.beta_triple,
              "shift": beta_mod.beta_shift}[args.method]
        est = fn(cloud, args.trials, rng)
        print(f"beta[{est.method}] = {est.value:.5f} +- {est.total_std_error:.5f}")
        return ExperimentReport(f"beta_{args.method}", cfg, [est.to_dict()], [],
                                rows_key="estimates")
    cv = beta_mod.cross_validate(cloud, args.trials, rng)
    for e in cv.estimates:
        print(f"beta[{e.method}] = {e.value:.5f} +- {e.total_std_error:.5f}")
    summary = cv.to_dict()
    rows = summary.pop("estimates")
    checks = [{"criterion": "beta-cross-validate", "passed": not cv.flagged,
               "detail": f"max pairwise |z| = {np.max(cv.z_matrix):.2f} (flag above 3)"}]
    return ExperimentReport("beta_cross_validate", cfg, rows, checks, rows_key="estimates",
                            summary=summary)


# One task stream per discrete experiment: no two reports at one seed share draws.
DISCRETE_TASKS = {"theorem1": 0, "conductance": 1, "levelset": 2, "fixed-size": 3}


def _discrete(args):
    """The offspring law and the experiment's own task stream."""
    rng = task_stream(args.seed, "experiments", DISCRETE_TASKS[args.experiment])
    return offspring.from_spec(args.offspring), rng


def _beta_ref(args, cloud: rde.ParticleCloud) -> beta_mod.BetaEstimate:
    """The exponent that theorem1, fixed-size and continuum test against:
    the triple readout of the cloud on the seed's own "beta" task stream."""
    return experiments.beta_reference(cloud, task_stream(args.seed, "beta", 1))


def cmd_theorem1(args) -> ExperimentReport:
    experiments.check_theorem1_args(args.n, args.delta)  # before the cloud is read
    dist, rng = _discrete(args)
    ref = _beta_ref(args, _load_cloud(args.cloud))
    report = experiments.run_theorem1(dist, args.n, args.delta, args.trials, rng, ref.value)
    report.config["beta_ref_se"] = ref.std_error
    return report


def cmd_conductance(args) -> ExperimentReport:
    experiments.check_conductance_args(args.n)  # before the cloud is read
    dist, rng = _discrete(args)
    return experiments.run_conductance_convergence(dist, args.n, args.trials,
                                                   _load_cloud(args.cloud), rng)


def cmd_levelset(args) -> ExperimentReport:
    dist, rng = _discrete(args)
    return experiments.run_levelset(dist, args.n, args.p, args.trials, rng)


def cmd_fixed_size(args) -> ExperimentReport:
    experiments.check_fixed_size_args(args.edges, args.n, args.delta)  # before the cloud is read
    dist, rng = _discrete(args)
    ref = _beta_ref(args, _load_cloud(args.cloud))
    report = experiments.run_corollary_fixed_size(dist, args.edges, args.n, args.trials, rng,
                                                  ref.value, args.delta)
    report.config["beta_ref_se"] = ref.std_error
    return report


def cmd_continuum(args) -> ExperimentReport:
    cloud = _load_cloud(args.cloud)
    ref = _beta_ref(args, cloud)
    curve = continuum.dimension_curve(cloud, args.eps, args.trials,
                                      task_stream(args.seed, "continuum", 0))
    if curve.extrapolated is not None:
        print(f"extrapolated exponent = {curve.extrapolated:.4f} +- {curve.extrapolated_se:.4f}")
    for p in curve.points:
        print(f"  eps=2^{np.log2(p.eps):.0f}: exponent {p.exponent:.4f} +- {p.std_error:.4f}")
    cfg = {"extras": {"eps_list": args.eps, "trials": args.trials}}
    summary = curve.summary() | {"beta_ref": ref.value, "beta_ref_se": ref.std_error}
    return ExperimentReport("continuum_dimension", cfg, curve.to_rows(),
                            [curve.exponent_check(ref.value)], rows_key="points", summary=summary)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _command(parent, stage, run, help=None, cloud=True):
    """One command's parser, with the flags every (discrete) command reads."""
    p = parent.add_parser(stage.split()[-1], help=help)
    p.set_defaults(stage=stage, run=run)
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    if any(stage in overrides for overrides in PRESETS.values()):
        p.add_argument("--preset", choices=list(PRESETS), help="run sizes: smoke is quick")
    if cloud:
        p.add_argument("--cloud", required=True, help="cloud file from `gwharmonic rde solve`")
    if stage.startswith("discrete "):
        p.add_argument("--offspring", required=True, help="offspring law: geometric, poisson, "
                       "binary, pary:<p>, strict-pary:<p> or custom:<path>")
        p.add_argument("--trials", type=int, help="trees per level")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gwharmonic", description="Harmonic-measure experiments "
                                 "on critical Galton-Watson trees")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    rde_sub = sub.add_parser("rde", help="conductance-law fixed point").add_subparsers(
        dest="rde_command", required=True)
    solve = _command(rde_sub, "rde solve", cmd_rde_solve,
                     "solve the distributional fixed point", cloud=False)
    solve.add_argument("--particles", type=int)
    solve.add_argument("--tol", type=float)
    solve.add_argument("--max-iters", type=int)
    solve.add_argument("--polish", type=int, help="extra steps after the stopping rule fires")
    validate = _command(rde_sub, "rde validate", cmd_rde_validate, "fixed-point identity checks")

    beta_p = _command(sub, "beta", cmd_beta, "triangulate the exponent from a cloud")
    beta_p.add_argument("--trials", type=int, help="stratified tuples per estimator")
    beta_p.add_argument("--method", choices=["all", "moment", "triple", "shift"], default="all")

    disc = sub.add_parser("discrete", help="discrete-tree experiments").add_subparsers(
        dest="experiment", required=True)
    theorem1 = _command(disc, "discrete theorem1", cmd_theorem1)
    theorem1.add_argument("--n", type=_parse_list, help="comma list of levels")
    theorem1.add_argument("--delta", type=float)
    conductance = _command(disc, "discrete conductance", cmd_conductance)
    conductance.add_argument("--n", type=_parse_list, help="comma list of levels")
    levelset = _command(disc, "discrete levelset", cmd_levelset, cloud=False)
    levelset.add_argument("--n", type=_one_level, help="one level")
    levelset.add_argument("--p", type=_parse_list, help="comma list of p; level n-p is measured")
    fixed = _command(disc, "discrete fixed-size", cmd_fixed_size)
    fixed.add_argument("--edges", type=int, help="edge count N")
    fixed.add_argument("--n", type=_one_level, help="one level")
    fixed.add_argument("--delta", type=float)

    cont = sub.add_parser("continuum", help="continuum-tree experiments").add_subparsers(
        dest="experiment", required=True)
    dimension = _command(cont, "continuum dimension", cmd_continuum)
    dimension.add_argument("--eps", type=_eps_list, help="comma list, accepts 2^-k tokens")
    dimension.add_argument("--trials", type=int, help="rays; each ray serves every eps")

    for p in (solve, validate, beta_p, theorem1, conductance, levelset, fixed, dimension):
        defaults = settings(p.get_default("stage"))
        for action in p._actions:
            value = defaults.get(action.dest, action.default)
            if value is not None and action.nargs != 0:  # a flag that takes a value
                action.help = _with_default(action, value)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _fill(args)
        return _run(args)
    except (CliError, OSError, ValueError) as exc:  # CloudFormatError, OffspringError, IsADirectoryError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
