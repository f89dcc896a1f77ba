"""Command-line front end: configuration, seeding, orchestration, persistence.

Subcommands: `rde solve|validate`, `beta`, `discrete theorem1|conductance|
levelset|fixed-size`, `continuum dimension`.  Each command accepts only the
flags it reads, and every flag left unset takes its value from DEFAULTS,
under --preset's overrides.  One usage gate, the RULES table, then checks
every flag's value before --out is made or any work starts.  A master
--seed expands into per-task SFC64 streams keyed on (seed, module, task),
so every artifact is byte-reproducible from the flags alone.  Every command
returns its ExperimentReport, and one runner reports them all: it times the
command, writes every flag's filled value into the report's config, writes
the report and prints its checks.  Exit codes: 0 all checks pass, 1 a statistical
check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, beta as beta_mod, continuum, experiments, offspring, rde, trees
from .experiments import ExperimentReport, check, z_check
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


# The value rules on each command's flags, as (test, message): the usage
# gate tests them on the filled flags and formats the message with them.
# Argparse checks only the syntax: comma lists, 2^k tokens, one level.
TRIALS = (lambda a: a.trials >= 2, "--trials must be >= 2, got {trials}")  # one has no error bar
DELTA = (lambda a: a.delta > 0, "--delta must be > 0, got {delta}")  # NaN fails too


def _ladder(least):
    """A theorem1 or conductance --n: the trend checks read its cells in order."""
    return [(lambda a: min(a.n) >= least, f"--n must be >= {least}, got {{n}}"),
            (lambda a: all(x < y for x, y in zip(a.n, a.n[1:])),
             "the --n ladder must strictly increase, got {n}")]


RULES = {
    "rde solve": [(lambda a: a.particles >= 1000, "--particles must be >= 1e3, got {particles}"),
                  # beta's sub-cloud split shuffles an int32 permutation of the cloud
                  (lambda a: a.particles < 2**31, "--particles must be < 2^31, got {particles}"),
                  (lambda a: a.tol > 0, "--tol must be > 0, got {tol}"),
                  (lambda a: a.max_iters >= 1, "--max-iters must be >= 1, got {max_iters}"),
                  (lambda a: a.polish >= 0, "--polish must be >= 0, got {polish}")],
    "rde validate": [],
    "beta": [TRIALS],
    "discrete theorem1": [*_ladder(4), DELTA, TRIALS],
    "discrete conductance": [*_ladder(2), TRIALS],  # below 2 the mid-level is the root
    "discrete levelset": [
        (lambda a: all(1 <= p <= a.n / 2 for p in a.p), "--p must lie in [1, n/2], got {p} at n={n}"),
        (lambda a: len(set(a.p)) == len(a.p), "repeated p in --p {p}: each p is one row and one check"),
        TRIALS],
    "discrete fixed-size": [
        (lambda a: a.law.kind in trees.FIXED_SIZE_LAWS,
         f"fixed-size --offspring must be one of {', '.join(trees.FIXED_SIZE_LAWS)}, got {{offspring}}"),
        (lambda a: a.edges >= 1 and 1 <= a.n <= math.sqrt(a.edges) / 2,
         "need N >= 1 and 1 <= n <= sqrt(N)/2, got n={n}, N={edges}"),
        DELTA, TRIALS],
    "continuum dimension": [
        (lambda a: all(0 < e < 0.5 for e in a.eps), "every eps must lie in (0, 1/2), got {eps}"),
        (lambda a: len(set(a.eps)) == len(a.eps), "repeated eps in --eps: one ray pass serves every eps"),
        TRIALS],
}
# The rules every command shares.
COMMON_RULES = [(lambda a: a.seed >= 0, "--seed must be >= 0, got {seed}"),
                (lambda a: not hasattr(a, "cloud") or Path(a.cloud).is_file(),
                 "--cloud {cloud} is not a file; run `gwharmonic rde solve` first")]


class CliError(Exception):
    """Usage or I/O problem; exits with code 2."""


def _fill(args) -> None:
    """The usage gate: set every flag the command line left unset, read the
    offspring law, then refuse the first flag that breaks a rule."""
    for key, value in settings(args.stage, getattr(args, "preset", None)).items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if hasattr(args, "offspring"):
        args.law = offspring.from_spec(args.offspring)
    for test, message in COMMON_RULES + RULES[args.stage]:
        if not test(args):
            raise CliError(message.format(**vars(args)))


def _parse_list(text, parse=int):
    """Comma-separated values, as an argparse type: argparse reports a ValueError
    itself, and a CliError (an empty list) reaches main."""
    out = [parse(t.strip()) for t in text.split(",") if t.strip()]
    if not out:
        raise CliError(f"empty list {text!r}")
    return out


def _eps_list(text):
    """Comma-separated eps; a token 2^x reads as 2**x (argparse would not catch its OverflowError)."""
    try:
        return [2.0 ** float(t[2:]) if t.startswith("2^") else float(t) for t in _parse_list(text, str)]
    except OverflowError:
        raise CliError(f"--eps {text!r}: a 2^x token overflows") from None


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


# The flags a report's config holds at its top level; a command's other
# flags go under config.extras.
SHARED_FLAGS = ("seed", "out", "format", "offspring", "cloud", "preset")


def _config(args, computed: dict) -> dict:
    """What ran: the subcommand and every value flag under its dest, as the usage gate
    filled it (an unset --preset left out), with `computed` beside the command's own."""
    flags = {dest: getattr(args, dest) for dest in args.flags}
    return {"subcommand": args.stage,
            **{k: v for k, v in flags.items() if k in SHARED_FLAGS and v is not None},
            "extras": {k: v for k, v in flags.items() if k not in SHARED_FLAGS} | computed}


def _run(args) -> int:
    """Run the command and report it: its wall clock runs from the parsed
    flags to the finished report, and its config is the flag echo, plus
    what the command put in config.extras.  Makes --out first, so a bad one
    fails before any work; writes the report, prints its checks, and returns
    the exit code: 0 when every check passes, 1 otherwise."""
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = args.run(args)
    report.wall_clock_s = time.perf_counter() - t0
    report.config = _config(args, report.config.get("extras", {}))
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


def cloud_file(out, particles: int, seed: int) -> Path:
    """Where `rde solve` writes the cloud of `particles` values solved at `seed`."""
    return Path(out) / f"cloud_M{particles}_seed{seed}.txt"


def cmd_rde_solve(args) -> ExperimentReport:
    m, tol = args.particles, args.tol
    rng = task_stream(args.seed, "rde", 0)
    result = rde.solve_fixpoint(m, tol, args.max_iters, rng, seed=args.seed, polish=args.polish)
    cloud_path = cloud_file(args.out, m, args.seed)
    rde.save_cloud(result.cloud, cloud_path)
    floor = rde.estimate_floor(result.cloud)
    summary = {
        "converged": result.converged,
        "iterations": result.cloud.iteration_count,
        "final_d1": result.trace[-1][1],
        "bootstrap_floor": floor,
        # d1 between successive clouds cannot shrink below the floor: the stopping rule tests noise
        "tol_below_floor": tol < floor,
        "mean": float(np.mean(result.cloud.samples)),
        "K0": rde.estimate_K0(result.cloud),
        "cloud_file": str(cloud_path),
        "start_law": result.start_law.summary(),  # the grid law whose quantiles it started from
    }
    if summary["tol_below_floor"]:
        print(f"warning: tol {tol:g} is below the expected Monte Carlo floor {floor:.2e} "
              f"at M={m}", file=sys.stderr)
    print(f"cloud written to {cloud_path} (converged={result.converged}, "
          f"iters={summary['iterations']}, E[C]={summary['mean']:.4f})")
    trace = [{"iteration": i, "d1": d} for i, d in result.trace]
    return ExperimentReport("rde_solve", trace, [], rows_key="trace", summary=summary)


def cmd_rde_validate(args) -> ExperimentReport:
    cloud = rde.load_cloud(args.cloud)
    if cloud.size < 2:  # one value has no spread, so no error bar
        raise CliError(f"rde validate needs a cloud of >= 2 values, got {cloud.size}")
    ells = [0.5, 1.0, 2.0, 4.0]
    rows, moments = rde.fixed_point_residuals(cloud, ells)
    checks = []
    for label, note in [("moment-identity-x", ""), ("moment-identity-x2", ""),
                        ("integrated-laplace", " (= -laplace-ode-l1: the identity at g = exp(-x/2))")]:
        res = rows[label]
        checks.append(z_check(label, res.residual, res.std_error, 3, tail=note,
                              lead=f"residual={res.residual:.3e} se={res.std_error:.3e} "))
    k0 = rde.estimate_K0(cloud)
    checks.append(check("K0-range", 1.0 <= k0 <= 2.0, f"K0={k0:.4f}", statistic=k0))
    ts = np.linspace(1.0, 2.0, 101)
    sup_gap = max(abs(rde.tail_cdf(cloud, t) - (k0 / t + 1 - k0)) for t in ts)
    fit_tol = 5e-3 if cloud.size >= 10**7 else 5e-3 * np.sqrt(10**7 / cloud.size)
    checks.append(check("tail-law-on-[1,2]", sup_gap <= fit_tol,
                        f"sup gap {sup_gap:.2e} (tol {fit_tol:.2e})", statistic=sup_gap, bound=fit_tol))
    for label in [f"laplace-ode-l{ell:g}" for ell in ells]:
        res = rows[label]
        checks.append(z_check(label, res.residual, res.std_error, 3,
                              lead=f"residual={res.residual:.3e} "))
    # the one computed config entry: perfbench reads the moments there
    return ExperimentReport("rde_validate", [], checks, config={"extras": {"moments": moments}})


def cmd_beta(args) -> ExperimentReport:
    cloud = rde.load_cloud(args.cloud)
    rng = task_stream(args.seed, "beta", 0)
    if args.method != "all":
        fn = {"moment": beta_mod.beta_moment, "triple": beta_mod.beta_triple,
              "shift": beta_mod.beta_shift}[args.method]
        est = fn(cloud, args.trials, rng)
        print(f"beta[{est.method}] = {est.value:.5f} +- {est.total_std_error:.5f}")
        return ExperimentReport(f"beta_{args.method}", [est.to_dict()], [], rows_key="estimates")
    ests, z = beta_mod.cross_validate(cloud, args.trials, rng)
    for e in ests:
        print(f"beta[{e.method}] = {e.value:.5f} +- {e.total_std_error:.5f}")
    z_max, flagged = np.max(z), bool(np.any(z > 3.0))
    checks = [check("beta-cross-validate", not flagged,
                    f"max pairwise |z| = {z_max:.2f} (flag above 3)", statistic=z_max, bound=3.0)]
    return ExperimentReport("beta_cross_validate", [e.to_dict() for e in ests], checks, rows_key="estimates",
                            summary={"z_matrix": z.tolist(), "flagged": flagged})


# One task stream per discrete experiment: no two reports at one seed share draws.
DISCRETE_TASKS = {"theorem1": 0, "conductance": 1, "levelset": 2, "fixed-size": 3}


def _discrete(args):
    """The offspring law and the experiment's own task stream."""
    return args.law, task_stream(args.seed, "experiments", DISCRETE_TASKS[args.experiment])


def _beta_ref(args, cloud: rde.ParticleCloud) -> beta_mod.BetaEstimate:
    """The exponent that theorem1, fixed-size and continuum test against:
    the triple readout of the cloud on the seed's own "beta" task stream."""
    return experiments.beta_reference(cloud, task_stream(args.seed, "beta", 1))


def _with_beta_ref(report: ExperimentReport, ref: beta_mod.BetaEstimate) -> ExperimentReport:
    """The report with the exponent it tested against, and its SE, at its top level."""
    report.summary |= {"beta_ref": ref.value, "beta_ref_se": ref.std_error}
    return report


def cmd_theorem1(args) -> ExperimentReport:
    dist, rng = _discrete(args)
    ref = _beta_ref(args, rde.load_cloud(args.cloud))
    return _with_beta_ref(
        experiments.run_theorem1(dist, args.n, args.delta, args.trials, rng, ref.value), ref)


def cmd_conductance(args) -> ExperimentReport:
    dist, rng = _discrete(args)
    return experiments.run_conductance_convergence(dist, args.n, args.trials,
                                                   rde.load_cloud(args.cloud), rng)


def cmd_levelset(args) -> ExperimentReport:
    dist, rng = _discrete(args)
    return experiments.run_levelset(dist, args.n, args.p, args.trials, rng)


def cmd_fixed_size(args) -> ExperimentReport:
    dist, rng = _discrete(args)
    ref = _beta_ref(args, rde.load_cloud(args.cloud))
    return _with_beta_ref(experiments.run_corollary_fixed_size(
        dist, args.edges, args.n, args.trials, rng, ref.value, args.delta), ref)


def cmd_continuum(args) -> ExperimentReport:
    cloud = rde.load_cloud(args.cloud)
    ref = _beta_ref(args, cloud)
    curve = continuum.dimension_curve(cloud, args.eps, args.trials,
                                      task_stream(args.seed, "continuum", 0))
    if curve.extrapolated is None:
        need = "points at two or more eps" if len(curve.points) < 2 else "more rays than eps"
        chk = check("continuum-exponent", False, f"no fit: needs {need}")
    else:
        print(f"extrapolated exponent = {curve.extrapolated:.4f} +- {curve.extrapolated_se:.4f}")
        chi2 = "n/a" if curve.chi2_dof is None else f"{curve.chi2_dof:.2f}"
        chk = z_check("continuum-exponent", curve.extrapolated - ref.value, curve.extrapolated_se, 3.0,
                      lead=f"intercept {curve.extrapolated:.4f} +- {curve.extrapolated_se:.4f} "
                           f"against beta_ref {ref.value:.4f}: ",
                      tail=f" (bound 3); slope {curve.slope:.4f} +- {curve.slope_se:.4f}, chi2/dof {chi2}")
    for p in curve.points:
        print(f"  eps=2^{np.log2(p.eps):g}: exponent {p.exponent:.4f} +- {p.std_error:.4f}")
    return _with_beta_ref(ExperimentReport("continuum_dimension", curve.to_rows(), [chk],
                                           rows_key="points", summary=curve.summary()), ref)


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
        flags = [action for action in p._actions if action.nargs != 0]  # those that take a value
        for action in flags:
            value = defaults.get(action.dest, action.default)
            if value is not None:
                action.help = _with_default(action, value)
        p.set_defaults(flags=[action.dest for action in flags])  # what the report's config echoes
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
