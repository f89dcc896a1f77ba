import argparse
import json
import warnings

import numpy as np
import oracles as orc
import pytest

from gwharmonic import cli, continuum, experiments, rde, trees
from gwharmonic.cli import main
from gwharmonic.rngs import task_stream


def run(argv):
    return main(argv)


def _cloud_is_not_read(*a, **k):
    raise AssertionError("the cloud was read before the flags were checked")


@pytest.fixture(scope="module")
def cloud_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cloudrun")
    code = run(["rde", "solve", "--particles", "100000", "--tol", "3e-3",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    return out / "cloud_M100000_seed7.txt"


def test_solve_writes_cloud_and_trace(cloud_file):
    assert cloud_file.exists()
    cloud = rde.load_cloud(cloud_file)
    assert cloud.size == 100000
    trace = (cloud_file.parent / "rde_solve_seed7.csv").read_text().splitlines()
    assert trace[0] == "iteration,d1"
    info = json.loads((cloud_file.parent / "rde_solve_seed7.json").read_text())
    assert info["converged"] is True
    # one row per step, numbered from 1, the last one below tol
    rows = [line.split(",") for line in trace[1:]]
    assert [int(i) for i, _ in rows] == list(range(1, info["iterations"] + 1))
    d1 = np.array([float(d) for _, d in rows])
    assert np.all(np.isfinite(d1) & (d1 > 0)) and d1[-1] < info["config"]["extras"]["tol"]
    law = info["start_law"]
    assert (law["h"], law["top"]) == (0.02, 30.0)
    assert law["mean"] == pytest.approx(1.72276, abs=1e-4) and law["K0"] == pytest.approx(1.4713, abs=2e-4)
    assert info["config"]["seed"] == 7
    assert "residual_bias_bound" not in info  # a step's d1 from the grid start bounds nothing


def test_solve_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["rde", "solve", "--particles", "50000", "--tol", "4e-3",
                    "--seed", "99", "--out", str(out)]) == 0
    fa = (a / "cloud_M50000_seed99.txt").read_bytes()
    fb = (b / "cloud_M50000_seed99.txt").read_bytes()
    assert fa == fb


def test_solve_warns_below_floor(tmp_path, capsys):
    for tol, below in ((1e-9, True), (0.5, False)):
        out = tmp_path / str(tol)
        assert run(["rde", "solve", "--particles", "20000", "--tol", str(tol),
                    "--max-iters", "3", "--seed", "1", "--out", str(out)]) == 0
        info = json.loads((out / "rde_solve_seed1.json").read_text())
        assert info["tol_below_floor"] is below
        assert (tol < info["bootstrap_floor"]) is below
        assert ("Monte Carlo floor" in capsys.readouterr().err) is below


def test_validate_passes_on_solved(cloud_file, tmp_path):
    code = run(["rde", "validate", "--cloud", str(cloud_file),
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "rde_validate_seed3.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_csv_of_a_report_with_no_rows_writes_the_json(cloud_file, tmp_path, capsys):
    # it printed "wrote " and left --out empty: only the JSON holds the checks
    code = run(["rde", "validate", "--cloud", str(cloud_file), "--format", "csv",
                "--seed", "3", "--out", str(tmp_path)])
    path = tmp_path / "rde_validate_seed3.json"
    assert code == 0 and list(tmp_path.iterdir()) == [path]
    assert capsys.readouterr().out.splitlines()[0].endswith(f"; wrote {path}")
    assert json.loads(path.read_text())["checks"]


def test_validate_negative_control(tmp_path):
    ones = orc.constant_cloud(5000, 1.0)
    path = tmp_path / "ones.txt"
    rde.save_cloud(ones, path)
    # a failed check exits 1
    assert run(["rde", "validate", "--cloud", str(path), "--out", str(tmp_path)]) == 1


def test_validate_corrupt_cloud(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("GAMMA-CLOUD v2 10 0 0\n3ff0000000000000\n")
    assert run(["rde", "validate", "--cloud", str(bad), "--out", str(tmp_path)]) == 2
    assert "count" in capsys.readouterr().err


def test_missing_cloud_directs_to_solve(tmp_path, capsys):
    code = run(["continuum", "dimension", "--cloud", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path)])
    assert code == 2
    assert "rde solve" in capsys.readouterr().err


def test_beta_report(cloud_file, tmp_path):
    code = run(["beta", "--cloud", str(cloud_file), "--trials", "200000",
                "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "beta_cross_validate_seed5.json").read_text())
    assert {e["method"] for e in rep["estimates"]} == {"moment", "triple", "shift"}
    assert len(rep["z_matrix"]) == 3
    csv = (tmp_path / "beta_cross_validate_seed5.csv").read_text().splitlines()
    assert csv[0].startswith("method,value")
    assert len(csv) == 4


def test_beta_single_method(cloud_file, tmp_path):
    code = run(["beta", "--cloud", str(cloud_file), "--trials", "100000",
                "--method", "triple", "--seed", "4", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "beta_triple_seed4.json").read_text())
    assert 0.7 < rep["estimates"][0]["value"] < 0.85


def test_discrete_levelset(tmp_path):
    code = run(["discrete", "levelset", "--offspring", "geometric", "--n", "40",
                "--p", "8,20", "--trials", "1500", "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "levelset_geometric_11.json").read_text())
    assert len(rep["cells"]) == 2
    assert (tmp_path / "levelset_geometric_11.csv").exists()


def test_discrete_theorem1_smoke_preset(cloud_file, tmp_path):
    code = run(["discrete", "theorem1", "--offspring", "geometric",
                "--preset", "smoke", "--trials", "60", "--cloud", str(cloud_file),
                "--seed", "13", "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "theorem1_geometric_13.json").read_text())
    assert [c["n"] for c in rep["cells"]] == [16, 32, 64]
    assert code in (0, 1)  # trend checks may be noisy at smoke scale


def test_discrete_commands_draw_from_their_own_streams(cloud_file, tmp_path):
    argv = ["--offspring", "geometric", "--n", "10,25", "--trials", "40",
            "--cloud", str(cloud_file), "--seed", "1", "--out", str(tmp_path)]
    run(["discrete", "conductance", *argv])
    run(["discrete", "theorem1", *argv])
    details = []
    for stem in ("conductance", "theorem1"):
        rep = json.loads((tmp_path / f"{stem}_geometric_1.json").read_text())
        details.append({c["criterion"]: c["detail"] for c in rep["checks"]
                        if c["criterion"].startswith("reduced-midlevel")})
    assert list(details[0]) == ["reduced-midlevel-n10", "reduced-midlevel-n25"]
    for name in details[0]:
        assert details[0][name] != details[1][name]


def test_discrete_fixed_size_rejects_big_n(cloud_file, tmp_path, capsys):
    code = run(["discrete", "fixed-size", "--offspring", "geometric",
                "--edges", "400", "--n", "30", "--cloud", str(cloud_file),
                "--out", str(tmp_path)])
    assert code == 2
    assert "sqrt(N)/2" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--n=-5"], ["--n", "0"], ["--edges=-4"]],
                         ids=["n-negative", "n-0", "edges-negative"])
def test_discrete_fixed_size_checks_n_and_edges_before_sampling(cloud_file, tmp_path, capsys,
                                                               monkeypatch, flags):
    # a negative n crashed with an IndexError, n = 0 drew every trial before
    # reduce refused it, and a negative N warned from sqrt; the flags are
    # checked before the cloud is read or its beta_ref drawn
    drawn = []
    monkeypatch.setattr(experiments, "sample_fixed_size_conditioned",
                        lambda *a: drawn.append(a))

    def reached(*a):
        drawn.append(a)
        raise AssertionError("the cloud was read before the flags were checked")

    monkeypatch.setattr(rde, "load_cloud", reached)
    monkeypatch.setattr(experiments, "beta_reference", reached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["discrete", "fixed-size", "--offspring", "geometric", *flags,
                    "--trials", "20", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: need N >= 1 and 1 <= n <= sqrt(N)/2")
    assert drawn == []


@pytest.mark.parametrize("n", ["0", "1"])
def test_discrete_conductance_rejects_levels_below_two(cloud_file, tmp_path, capsys, n):
    # below n = 2 the mid-level check reads the root, whose size is always 1
    code = run(["discrete", "conductance", "--offspring", "geometric", "--n", n,
                "--trials", "20", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert code == 2
    assert "n must be >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


LADDERS = [("50,3", "n must be >= 4"), ("50,25", "must strictly increase"),
           ("25,25", "must strictly increase")]


@pytest.mark.parametrize("ladder, message", LADDERS, ids=[n for n, _ in LADDERS])
def test_discrete_theorem1_checks_the_ladder_before_sampling(cloud_file, tmp_path, capsys,
                                                             monkeypatch, ladder, message):
    # a descending ladder ran and failed both trend checks on values that fell with n
    drawn = []
    monkeypatch.setattr(experiments, "_forest_statistics", lambda dist, n, *a: drawn.append(n))
    monkeypatch.setattr(rde, "load_cloud", _cloud_is_not_read)
    code = run(["discrete", "theorem1", "--offspring", "geometric", "--n", ladder,
                "--trials", "20", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert drawn == []


@pytest.mark.parametrize("ladder, message", [("50,1", "n must be >= 2"), *LADDERS[1:]],
                         ids=["50,1", *[n for n, _ in LADDERS[1:]]])
def test_discrete_conductance_checks_the_ladder_before_sampling(cloud_file, tmp_path, capsys,
                                                                monkeypatch, ladder, message):
    # --n 40,20,10 failed conductance-d1-decreasing on d1 values that fell with n
    drawn = []
    monkeypatch.setattr(experiments, "_forest_statistics", lambda dist, n, *a: drawn.append(n))
    monkeypatch.setattr(rde, "load_cloud", _cloud_is_not_read)
    code = run(["discrete", "conductance", "--offspring", "geometric", "--n", ladder,
                "--trials", "20", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert drawn == []


def test_beta_ref_is_the_triple_readout_with_its_se(cloud_file, tmp_path):
    # theorem1, fixed-size and continuum read one beta_ref at one seed: the
    # triple estimator on the seed's "beta" task stream
    common = ["--cloud", str(cloud_file), "--seed", "17", "--out", str(tmp_path)]
    disc = ["--offspring", "geometric", "--trials", "20", *common]
    run(["discrete", "theorem1", "--n", "8,16", *disc])
    run(["discrete", "fixed-size", "--n", "8", "--edges", "400", *disc])
    run(["continuum", "dimension", "--eps", "2^-4,2^-6", "--trials", "50", *common])
    ref = experiments.beta_reference(rde.load_cloud(cloud_file), task_stream(17, "beta", 1))
    reps = [json.loads((tmp_path / name).read_text()) for name in (
        "theorem1_geometric_17.json", "fixed_size_geometric_17.json",
        "continuum_dimension_seed17.json")]
    for where in (reps[0]["config"], reps[1]["config"], reps[2]):
        assert (where["beta_ref"], where["beta_ref_se"]) == (ref.value, ref.std_error)
    assert ref.std_error > 0


def test_discrete_requires_offspring(cloud_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["discrete", "theorem1", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--offspring" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_levelset_with_zero_se_reports_infinite_z(tmp_path, monkeypatch):
    # identical trees, each with one vertex at level 1 and two at level 2: no
    # spread, and a mean of 1 below the exact q_1/q_2 = 4/3 of binary trees
    monkeypatch.setattr(experiments, "sample_reduced_forest", lambda cdf, count, rng: (
        trees.LevelForest(len(cdf), [np.ones(count, np.int64), np.full(count, 2, np.int64)])))
    code = run(["discrete", "levelset", "--offspring", "binary", "--n", "2", "--p", "1",
                "--trials", "2", "--seed", "2", "--out", str(tmp_path)])
    cell = json.loads((tmp_path / "levelset_binary_2.json").read_text())["cells"][0]
    assert code == 1 and cell["std_error"] == 0.0 and cell["z"] == -np.inf


@pytest.mark.parametrize("argv", [
    ["discrete", "levelset", "--offspring", "geometric", "--n", ","],
    ["discrete", "fixed-size", "--offspring", "geometric", "--n", ","],
    ["discrete", "levelset", "--offspring", "geometric", "--n", "30", "--p", ","],
    ["continuum", "dimension", "--eps", ","],
], ids=["levelset-n", "fixed-size-n", "levelset-p", "continuum-eps"])
def test_empty_lists_are_usage_errors(cloud_file, tmp_path, capsys, argv):
    # an empty --n raised IndexError, an empty --p ran no checks and passed,
    # and an empty --eps failed on an empty fit
    assert run([*argv, *_cloud_flag(argv, cloud_file), "--out", str(tmp_path)]) == 2
    assert "empty list" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("argv", [
    ["discrete", "fixed-size", "--offspring", "geometric", "--edges", "400", "--n", "5",
     "--trials", "1"],
    ["discrete", "levelset", "--offspring", "geometric", "--n", "30", "--p", "5",
     "--trials", "0"],
    ["continuum", "dimension", "--eps", "2^-6,2^-8", "--trials", "0"],
    ["continuum", "dimension", "--eps", "2^-6,2^-8", "--trials", "1"],
    ["beta", "--trials", "0"],
], ids=["fixed-size-1", "levelset-0", "continuum-0", "continuum-1", "beta-0"])
def test_trials_below_two_are_usage_errors(cloud_file, tmp_path, capsys, argv):
    # one trial has no error bar (it wrote NaN, which is not JSON), and 0
    # either meant the default or failed on an empty fit
    assert run([*argv, *_cloud_flag(argv, cloud_file), "--out", str(tmp_path)]) == 2
    assert "--trials must be >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


DELTA_COMMANDS = {"theorem1": ["discrete", "theorem1", "--n", "8,16"],
                  "fixed-size": ["discrete", "fixed-size", "--edges", "400", "--n", "5"]}
DELTAS = {"0": "0", "negative": "-1", "nan": "nan"}


@pytest.mark.parametrize("argv, message", [
    (["rde", "solve", "--particles", "0"], "--particles must be >= 1e3"),
    (["rde", "solve", "--particles", "2000", "--max-iters", "0"], "--max-iters must be >= 1"),
    (["discrete", "fixed-size", "--offspring", "geometric", "--edges", "0", "--n", "5",
      "--trials", "20"], "sqrt(N)/2"),
    (["rde", "solve", "--particles", "2000", "--tol", "0"], "--tol must be > 0"),
    (["rde", "solve", "--particles", "2000", "--tol", "-1"], "--tol must be > 0"),
    (["rde", "solve", "--particles", "2000", "--tol", "nan"], "--tol must be > 0"),
    (["rde", "solve", "--particles", "2000", "--polish", "-2"], "--polish must be >= 0"),
    *[([*cmd, "--offspring", "geometric", "--trials", "20", "--delta", delta], "delta must be > 0")
      for cmd in DELTA_COMMANDS.values() for delta in DELTAS.values()],
], ids=["particles-0", "max-iters-0", "edges-0", "tol-0", "tol-negative", "tol-nan", "polish-negative",
        *[f"{cmd}-delta-{d}" for cmd in DELTA_COMMANDS for d in DELTAS]])
def test_zero_counts_are_usage_errors(cloud_file, tmp_path, capsys, monkeypatch, argv, message):
    # zero is a value, not "use the default": --particles 0 ran a 1e6 solve,
    # --edges 0 ran N = 40000, and --max-iters 0 wrote a cloud, then crashed;
    # --tol -1 silently ran every --max-iters step, --polish -2 ran and
    # echoed -2 into the report, and --delta -1 reported a concentration of 0
    # (theorem1 read the cloud and ran beta_ref first); none reads the cloud
    monkeypatch.setattr(rde, "load_cloud", _cloud_is_not_read)
    assert run([*argv, *_cloud_flag(argv, cloud_file), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["beta", "--cloud", "{tmp}", "--trials", "2000", "--out", "{tmp}/out"],
    ["discrete", "levelset", "--offspring", "geometric", "--n", "4", "--p", "2", "--trials", "2",
     "--out", "{tmp}/file"],
], ids=["cloud-is-a-directory", "out-is-a-file"])
def test_io_errors_exit_two_with_one_error_line(tmp_path, capsys, argv):
    # both died through a traceback with exit code 1, which means "a check failed"
    (tmp_path / "file").write_text("")
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv, work", [
    (["rde", "solve", "--particles", "2000"], (rde, "solve_fixpoint")),
    (["discrete", "levelset", "--offspring", "geometric", "--n", "4", "--p", "2", "--trials", "2"],
     (experiments, "sample_reduced_forest")),
], ids=["rde-solve", "discrete-levelset"])
def test_out_is_checked_before_the_work(tmp_path, capsys, monkeypatch, argv, work):
    # both ran their whole work (a 0.49 s solve, a 1.0 s levelset at full)
    # before an --out that is a file failed
    def reached(*a, **k):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(*work, reached)
    (tmp_path / "file").write_text("")
    assert run([*argv, "--out", str(tmp_path / "file")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _cloud_flag(argv, cloud_file):
    """--cloud for the commands that read a cloud."""
    return [] if argv[:2] in (["discrete", "levelset"], ["rde", "solve"]) else [
        "--cloud", str(cloud_file)]


def test_continuum_dimension(cloud_file, tmp_path):
    code = run(["continuum", "dimension", "--cloud", str(cloud_file),
                "--eps", "2^-4,2^-6,2^-8", "--trials", "400",
                "--seed", "21", "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "continuum_dimension_seed21.csv").read_text().splitlines()
    assert csv[0] == "eps,exponent,std_error,trials,extrapolated"
    assert len(csv) == 4
    rep = json.loads((tmp_path / "continuum_dimension_seed21.json").read_text())
    assert 0.4 < rep["extrapolated"] < 1.1
    assert {"extrapolated_se", "slope", "slope_se", "chi2_dof", "beta_ref"} <= set(rep)
    assert [(c["criterion"], c["passed"]) for c in rep["checks"]] == [
        ("continuum-exponent", True)]


def test_continuum_exponent_check_fails_on_inflated_ray_masses(cloud_file, tmp_path,
                                                              monkeypatch):
    argv = ["continuum", "dimension", "--cloud", str(cloud_file),
            "--eps", "2^-6,2^-10,2^-14,2^-20,2^-30", "--trials", "2000", "--seed", "31"]
    assert run([*argv, "--out", str(tmp_path / "clean")]) == 0
    real = continuum.ray_mass_samples
    monkeypatch.setattr(continuum, "ray_mass_samples", lambda *a: 1.3 * real(*a))
    assert run([*argv, "--out", str(tmp_path / "fault")]) == 1
    for out, passed in (("clean", True), ("fault", False)):
        rep = json.loads((tmp_path / out / "continuum_dimension_seed31.json").read_text())
        (check,) = rep["checks"]
        assert check["criterion"] == "continuum-exponent" and check["passed"] is passed


def test_bad_eps_rejected(cloud_file, tmp_path, capsys):
    assert run(["continuum", "dimension", "--cloud", str(cloud_file),
                "--eps", "0.7", "--out", str(tmp_path)]) == 2
    # one ray pass would return a repeated eps's column twice
    assert run(["continuum", "dimension", "--cloud", str(cloud_file),
                "--eps", "2^-6,2^-8,0.015625", "--out", str(tmp_path)]) == 2
    assert "repeated eps" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_continuum_dimension_with_too_few_rays_has_no_fit(cloud_file, tmp_path):
    # two rays over three eps: the rays' covariance has rank 1
    assert run(["continuum", "dimension", "--cloud", str(cloud_file), "--eps",
                "2^-4,2^-5,2^-6", "--trials", "2", "--seed", "3", "--out", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "continuum_dimension_seed3.json").read_text())
    assert rep["extrapolated"] is None and len(rep["points"]) == 3
    (check,) = rep["checks"]
    assert not check["passed"] and check["detail"].startswith("no fit")


def _reports(out):
    """Every report file in `out`, JSON parsed with its wall clock dropped."""
    reports = {}
    for path in sorted(out.glob("*.json")):
        rep = json.loads(path.read_text())
        rep.pop("wall_clock_s")
        reports[path.name] = rep
    reports.update({path.name: path.read_text() for path in sorted(out.glob("*.csv"))})
    return reports


def test_every_command_writes_one_schema(cloud_file, tmp_path):
    cloud = str(cloud_file)
    out = str(tmp_path)
    assert run(["rde", "validate", "--cloud", cloud, "--seed", "3", "--out", out]) == 0
    assert run(["beta", "--cloud", cloud, "--trials", "100000", "--seed", "3",
                "--out", out]) == 0
    assert run(["discrete", "levelset", "--offspring", "geometric", "--n", "20", "--p", "5",
                "--trials", "200", "--seed", "3", "--out", out]) == 0
    assert run(["continuum", "dimension", "--cloud", cloud, "--eps", "2^-4,2^-5",
                "--trials", "100", "--seed", "3", "--out", out]) == 0
    disc = ["--offspring", "geometric", "--trials", "40", "--cloud", cloud, "--seed", "3",
            "--out", out]
    # two points cannot pass a trend check: theorem1 exits 1
    assert run(["discrete", "theorem1", "--n", "8,16", *disc]) == 1
    assert run(["discrete", "conductance", "--n", "8,16", *disc]) == 0
    assert run(["discrete", "fixed-size", "--edges", "400", "--n", "8", *disc]) == 0
    paths = [cloud_file.parent / "rde_solve_seed7.json", *sorted(tmp_path.glob("*.json"))]
    assert sorted(p.name for p in paths[1:]) == [
        "beta_cross_validate_seed3.json", "conductance_geometric_3.json",
        "continuum_dimension_seed3.json", "fixed_size_geometric_3.json",
        "levelset_geometric_3.json", "rde_validate_seed3.json", "theorem1_geometric_3.json"]
    rows_key = {"rde_solve_seed7.json": "trace", "beta_cross_validate_seed3.json": "estimates",
                "continuum_dimension_seed3.json": "points"}
    for path in paths:
        rep = json.loads(path.read_text())
        assert {"experiment", "version", "config", "checks", "wall_clock_s"} <= set(rep)
        assert rep["wall_clock_s"] > 0
        assert isinstance(rep[rows_key.get(path.name, "cells")], list)
        cfg = rep["config"]
        assert {"subcommand", "seed", "format", "extras"} <= set(cfg)
        assert "threads" not in cfg
        assert all(v is not None for v in cfg.values())
        assert all(v is not None for v in cfg["extras"].values())
    beta = json.loads((tmp_path / "beta_cross_validate_seed3.json").read_text())
    assert [c["criterion"] for c in beta["checks"]] == ["beta-cross-validate"]
    assert beta["checks"][0]["passed"] is not beta["flagged"]


def test_same_seed_reports_equal_but_wall_clock(cloud_file, tmp_path):
    cloud = str(cloud_file)
    for argv in (["beta", "--cloud", cloud, "--trials", "100000"],
                 ["continuum", "dimension", "--cloud", cloud, "--eps", "2^-4,2^-6",
                  "--trials", "200"]):
        out = tmp_path / argv[0]
        runs = []
        for _ in range(2):
            assert run([*argv, "--seed", "8", "--out", str(out)]) == 0
            runs.append(_reports(out))
        assert len(runs[0]) == 2 and runs[0] == runs[1]


def test_inner_flag_is_gone(cloud_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["beta", "--cloud", str(cloud_file), "--trials", "10000", "--inner", "64",
             "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["discrete", "levelset", "--n", "30", "--cloud", "CLOUD"],
    ["discrete", "levelset", "--n", "30", "--edges", "400"],
    ["discrete", "levelset", "--n", "30", "--delta", "0.25"],
    ["discrete", "theorem1", "--cloud", "CLOUD", "--p", "5"],
    ["discrete", "theorem1", "--cloud", "CLOUD", "--edges", "400"],
    ["discrete", "conductance", "--cloud", "CLOUD", "--p", "5"],
    ["discrete", "conductance", "--cloud", "CLOUD", "--edges", "400"],
    ["discrete", "conductance", "--cloud", "CLOUD", "--delta", "0.25"],
    ["discrete", "fixed-size", "--cloud", "CLOUD", "--n", "5", "--p", "2"],
    ["rde", "validate", "--cloud", "CLOUD", "--preset", "smoke"],
    ["discrete", "levelset", "--n", "20,40"],
], ids=["levelset-cloud", "levelset-edges", "levelset-delta", "theorem1-p", "theorem1-edges",
        "conductance-p", "conductance-edges", "conductance-delta", "fixed-size-p",
        "validate-preset", "levelset-n-ladder"])
def test_flags_a_command_does_not_read_are_usage_errors(cloud_file, tmp_path, argv):
    # each was silently ignored (or, for a levelset --n ladder, cut to its
    # first level) and echoed into the report's config
    argv = [str(cloud_file) if a == "CLOUD" else a for a in argv]
    if argv[0] == "discrete":
        argv += ["--offspring", "geometric", "--trials", "20"]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def _leaf_parsers(parser):
    """{stage: parser} for every command under `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {parser.get_default("stage"): parser}
    return {k: v for sub in subs[0].choices.values() for k, v in _leaf_parsers(sub).items()}


def test_defaults_fill_every_flag_left_unset():
    # a flag that parses to None and has no DEFAULTS entry would reach its
    # command as None; a preset may only override a value DEFAULTS has
    parsers = _leaf_parsers(cli.build_parser())
    assert set(parsers) == set(cli.DEFAULTS) | {"rde validate"}
    for stage, parser in parsers.items():
        unset = {a.dest for a in parser._actions if a.default is None and not a.required}
        assert unset - {"preset"} == set(cli.settings(stage)), stage
        for overrides in cli.PRESETS.values():
            assert set(overrides.get(stage, {})) <= set(cli.settings(stage)), stage


def test_help_shows_every_default():
    # the DEFAULTS flags, --seed, --out, --format, and beta's --method
    for stage, parser in _leaf_parsers(cli.build_parser()).items():
        shown = len(cli.settings(stage)) + 3 + (stage == "beta")
        assert parser.format_help().count("(default:") == shown, stage


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["rde", "solve", "--particles", "2000", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
