import argparse
import json
import struct
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


SOLVE_ARGV = ["rde", "solve", "--particles", "100000", "--tol", "3e-3", "--seed", "7"]


@pytest.fixture(scope="module")
def cloud_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cloudrun")
    code = run([*SOLVE_ARGV, "--out", str(out)])
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


def test_solve_reports_the_expected_floor_of_its_cloud(tmp_path, monkeypatch):
    streams = []
    monkeypatch.setattr(cli, "task_stream", lambda *key: streams.append(key) or task_stream(*key))
    assert run(["rde", "solve", "--particles", "20000", "--max-iters", "3", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    info = json.loads((tmp_path / "rde_solve_seed1.json").read_text())
    cloud = rde.load_cloud(info["cloud_file"])
    # the floor is drawn from no stream: a function of the solved cloud alone
    assert streams == [(1, "rde", 0)]
    assert info["bootstrap_floor"] == rde.estimate_floor(cloud)
    assert info["mean"] == orc.moment(cloud, 1)


def test_validate_passes_on_solved(cloud_file, tmp_path):
    code = run(["rde", "validate", "--cloud", str(cloud_file),
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "rde_validate_seed3.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_validate_reads_the_cloud_alone(cloud_file, tmp_path):
    # every identity is an exact average over the cloud: --seed names the report and draws nothing
    reports = []
    for seed in ("1", "2"):
        assert run(["rde", "validate", "--cloud", str(cloud_file), "--seed", seed,
                    "--out", str(tmp_path)]) == 0
        reports.append(json.loads((tmp_path / f"rde_validate_seed{seed}.json").read_text()))
    assert reports[0]["checks"] == reports[1]["checks"]
    assert reports[0]["config"]["extras"]["moments"] == reports[1]["config"]["extras"]["moments"]


def test_theorem1_runs_a_law_with_a_thousand_children(cloud_file, tmp_path, capsys):
    # the reduced-child table once held C(k, j) as floats, which overflow past k = 1029
    code = run(["discrete", "theorem1", "--offspring", "strict-pary:1100", "--n", "4,5",
                "--trials", "10", "--cloud", str(cloud_file), "--out", str(tmp_path)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""


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


def test_validate_gives_a_tiny_cloud_finite_error_bars(tmp_path):
    # 100 batch means of a 50-value cloud were empty: every identity row read
    # std_error NaN and z +-inf, and numpy warned "Mean of empty slice"
    path = tmp_path / "tiny.txt"
    rde.save_cloud(rde.ParticleCloud(np.sort(1.0 + task_stream(40, "rde", 40).exponential(size=50))), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["rde", "validate", "--cloud", str(path), "--out", str(tmp_path)]) in (0, 1)
    rows = [c for c in json.loads((tmp_path / "rde_validate_seed0.json").read_text())["checks"] if "z" in c]
    assert [c["criterion"] for c in rows] == ["moment-identity-x", "moment-identity-x2", "integrated-laplace",
                                              *(f"laplace-ode-l{ell}" for ell in ("0.5", "1", "2", "4"))]
    assert all(np.isfinite(c["std_error"]) and c["std_error"] > 0 and np.isfinite(c["z"]) for c in rows), rows


def test_validate_refuses_a_one_value_cloud(tmp_path, capsys):
    # one value has no spread: the identity rows read se=nan and z=+-inf after numpy's
    # "Degrees of freedom <= 0" warning
    path = tmp_path / "one.txt"
    path.write_bytes(b"GAMMA-CLOUD v3 1 0 0\n" + struct.pack("<d", 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["rde", "validate", "--cloud", str(path), "--out", str(tmp_path)]) == 2
    assert "got 1" in capsys.readouterr().err


def test_validate_corrupt_cloud(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"GAMMA-CLOUD v3 10 0 0\n" + struct.pack("<d", 1.0))  # 1 value of 10
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


@pytest.mark.parametrize("seed", [1, 3])
def test_beta_carries_the_cloud_error_of_a_small_cloud(tmp_path, seed):
    # at M = 2e4 the cloud error of the moment and triple (about 6e-3) dwarfs
    # their tuple error; without it the check read |z| 18.2 and 16.4 here
    assert run(["rde", "solve", "--particles", "20000", "--tol", "2e-2", "--seed", str(seed),
                "--out", str(tmp_path)]) == 0
    assert run(["beta", "--cloud", str(tmp_path / f"cloud_M20000_seed{seed}.txt"), "--trials", "1000000",
                "--seed", str(seed), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / f"beta_cross_validate_seed{seed}.json").read_text())
    assert rep["checks"][0]["passed"] and not rep["flagged"]
    moment, triple, _ = rep["estimates"]
    assert moment["cloud_std_error"] > 0 and triple["cloud_std_error"] > 0


@pytest.mark.parametrize("m, code", [(5, 2), (10, 0)])
def test_beta_needs_a_value_per_sub_cloud(tmp_path, capsys, m, code):
    path = tmp_path / "small.txt"
    rde.save_cloud(rde.ParticleCloud(1.0 + 0.3 * np.arange(m)), path)
    assert run(["beta", "--cloud", str(path), "--trials", "1000", "--out", str(tmp_path)]) == code
    assert (f"M={m}" in capsys.readouterr().err) == (code == 2)


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


def test_a_non_integer_pary_spec_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rde, "load_cloud", _cloud_is_not_read)
    code = run(["discrete", "conductance", "--offspring", "strict-pary:abc", "--n", "4",
                "--trials", "20", "--cloud", str(tmp_path / "cloud.txt"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: offspring spec 'strict-pary:abc': p must be an integer, got 'abc'\n"


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
    monkeypatch.setattr(experiments, "_forest_statistics", lambda *args: drawn.append(args))
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
    monkeypatch.setattr(experiments, "_forest_statistics", lambda *args: drawn.append(args))
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
    for rep in reps:
        assert (rep["beta_ref"], rep["beta_ref_se"]) == (ref.value, ref.std_error)
        assert not {"beta_ref", "beta_ref_se"} & (set(rep["config"]) | set(rep["config"]["extras"]))
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


USAGE_ERRORS = {
    "particles-0": (["rde", "solve", "--particles", "0"], "--particles must be >= 1e3"),
    "particles-2-31": (["rde", "solve", "--particles", str(2**31)], "--particles must be < 2^31"),
    "validate-seed-negative": (["rde", "validate", "--seed", "-1"], "--seed must be >= 0, got -1"),
    "beta-trials-1": (["beta", "--trials", "1"], "--trials must be >= 2"),
    "theorem1-seed-negative": (["discrete", "theorem1", "--offspring", "geometric", "--seed", "-1"],
                               "--seed must be >= 0, got -1"),
    "theorem1-law": (["discrete", "theorem1", "--offspring", "pary:1"], "p-ary needs p >= 2"),
    "theorem1-n-1": (["discrete", "theorem1", "--offspring", "geometric", "--n", "1"],
                     "n must be >= 4"),
    "conductance-n-1": (["discrete", "conductance", "--offspring", "geometric", "--n", "1"],
                        "n must be >= 2"),
    "levelset-p-repeated": (["discrete", "levelset", "--offspring", "geometric", "--n", "30",
                             "--p", "5,5"], "repeated p"),
    "levelset-p-above-half-n": (["discrete", "levelset", "--offspring", "geometric", "--n", "30",
                                 "--p", "5,16"], "--p must lie in [1, n/2]"),
    "levelset-p-0": (["discrete", "levelset", "--offspring", "geometric", "--n", "30", "--p", "0"],
                     "--p must lie in [1, n/2]"),
    "fixed-size-binary": (["discrete", "fixed-size", "--offspring", "binary"],
                          "--offspring must be one of geometric, poisson, got binary"),
    "continuum-eps": (["continuum", "dimension", "--eps", "2^-6,0.7"], "(0, 1/2)"),
    "continuum-eps-overflow": (["continuum", "dimension", "--eps", "2^-6,2^2000"], "overflows"),
    "continuum-no-cloud": (["continuum", "dimension", "--cloud", "{tmp}/nope.txt"], "rde solve"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_two_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # fixed-size --offspring binary read the cloud, drew its beta_ref and made
    # --out before the sampler refused the law; a repeated --p wrote two
    # identical rows and two checks of one name; --seed -1 failed in numpy
    # after --out was made.  The gate refuses each before --out is made,
    # before the cloud is read and before a task stream is drawn from.
    def reached(*a, **k):
        raise AssertionError("the work started before the flags were checked")

    monkeypatch.setattr(rde, "load_cloud", reached)
    monkeypatch.setattr(cli, "task_stream", reached)
    (tmp_path / "cloud.txt").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--cloud" not in argv:
        argv += _cloud_flag(argv, tmp_path / "cloud.txt")
    out = tmp_path / "out"  # does not exist yet
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_every_command_passes_the_gate_under_defaults_and_presets(tmp_path):
    # a value in DEFAULTS or PRESETS that breaks a rule (say delta 0 in a
    # preset) would make every run that leaves the flag unset a usage error
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("")
    for stage, parser in _leaf_parsers(cli.build_parser()).items():
        dests = {a.dest for a in parser._actions}
        argv = [*stage.split(), *["--cloud", str(cloud)] * ("cloud" in dests),
                *["--offspring", "geometric"] * ("offspring" in dests)]
        for preset in [None, *cli.PRESETS] if "preset" in dests else [None]:
            args = cli.build_parser().parse_args([*argv, *["--preset", preset] * bool(preset)])
            cli._fill(args)  # raises CliError on a broken rule


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


def test_a_nan_in_a_custom_pmf_exits_two_naming_the_pmf(tmp_path, capsys):
    # the NaN passed every check of the law and failed later, as "cannot convert float NaN to integer"
    path = tmp_path / "pmf.txt"
    path.write_text("0 0.5\n1 nan\n2 0.5\n")
    assert run(["discrete", "levelset", "--offspring", f"custom:{path}", "--n", "4", "--p", "2",
                "--trials", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: pmf has a non-finite entry at k=1"]


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


def test_continuum_prints_each_eps_as_the_report_holds_it(cloud_file, tmp_path, capsys):
    # every eps printed as 2^ of its log2 rounded to an integer: 0.1 read 2^-3
    assert run(["continuum", "dimension", "--cloud", str(cloud_file), "--eps", "0.1,0.05,0.3",
                "--trials", "50", "--seed", "5", "--out", str(tmp_path)]) in (0, 1)
    printed = [line.split("eps=")[1].split(":")[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  eps=")]
    assert printed == ["2^-3.32193", "2^-4.32193", "2^-1.73697"]
    rep = json.loads((tmp_path / "continuum_dimension_seed5.json").read_text())
    assert [p["eps"] for p in rep["points"]] == [0.1, 0.05, 0.3]


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
    # two rays over three eps: the rays' covariance has rank 1; one eps: no line
    for eps, trials, need in (("2^-4,2^-5,2^-6", "2", "more rays than eps"),
                              ("2^-4", "50", "points at two or more eps")):
        assert run(["continuum", "dimension", "--cloud", str(cloud_file), "--eps", eps,
                    "--trials", trials, "--seed", "3", "--out", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "continuum_dimension_seed3.json").read_text())
        assert rep["extrapolated"] is None and len(rep["points"]) == eps.count(",") + 1
        assert rep["checks"] == [{"criterion": "continuum-exponent", "passed": False,
                                  "detail": f"no fit: needs {need}"}]


def _reports(out):
    """Every report file in `out`, JSON parsed with its wall clock dropped."""
    reports = {}
    for path in sorted(out.glob("*.json")):
        rep = json.loads(path.read_text())
        rep.pop("wall_clock_s")
        reports[path.name] = rep
    reports.update({path.name: path.read_text() for path in sorted(out.glob("*.csv"))})
    return reports


def _expected_config(argv):
    """A report's config, read off the parser alone: the subcommand, then
    every flag of the command that takes a value, at its value on `argv`,
    else from --preset and DEFAULTS, else the parser's own default; the
    shared flags at the top (an unset --preset left out), the rest under
    extras."""
    args = cli.build_parser().parse_args(argv)
    parser = _leaf_parsers(cli.build_parser())[args.stage]
    filled = cli.settings(args.stage, getattr(args, "preset", None))
    flags = {a.dest: filled.get(a.dest) if getattr(args, a.dest) is None else getattr(args, a.dest)
             for a in parser._actions if a.option_strings and a.nargs != 0}
    shared = {"seed", "out", "format", "offspring", "cloud", "preset"}
    return {"subcommand": args.stage,
            **{k: v for k, v in flags.items() if k in shared and v is not None},
            "extras": {k: v for k, v in flags.items() if k not in shared}}


def test_every_command_writes_one_schema(cloud_file, tmp_path):
    cloud = str(cloud_file)
    out = str(tmp_path)
    disc = ["--offspring", "geometric", "--trials", "40", "--cloud", cloud, "--seed", "3",
            "--out", out]
    # every command once, with its exit code; levelset under a preset and one override
    argvs = {
        "rde_solve_seed7.json": ([*SOLVE_ARGV, "--out", str(cloud_file.parent)], 0),
        "rde_validate_seed3.json": (["rde", "validate", "--cloud", cloud, "--seed", "3",
                                     "--out", out], 0),
        "beta_cross_validate_seed3.json": (["beta", "--cloud", cloud, "--trials", "100000",
                                            "--seed", "3", "--out", out], 0),
        "levelset_geometric_3.json": (["discrete", "levelset", "--offspring", "geometric",
                                       "--preset", "smoke", "--trials", "200", "--seed", "3",
                                       "--out", out], 0),
        "continuum_dimension_seed3.json": (["continuum", "dimension", "--cloud", cloud,
                                            "--eps", "2^-4,2^-5", "--trials", "100",
                                            "--seed", "3", "--out", out], 0),
        # two points cannot pass a trend check: theorem1 exits 1
        "theorem1_geometric_3.json": (["discrete", "theorem1", "--n", "8,16", *disc], 1),
        "conductance_geometric_3.json": (["discrete", "conductance", "--n", "8,16", *disc], 0),
        "fixed_size_geometric_3.json": (["discrete", "fixed-size", "--edges", "400", "--n", "8",
                                         *disc], 0),
    }
    assert {cli.build_parser().parse_args(argv).stage for argv, _ in argvs.values()} \
        == set(_leaf_parsers(cli.build_parser()))
    for name, (argv, code) in argvs.items():
        if name != "rde_solve_seed7.json":  # the cloud fixture ran it
            assert run(argv) == code, name
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted(set(argvs) - {
        "rde_solve_seed7.json"})
    rows_key = {"rde_solve_seed7.json": "trace", "beta_cross_validate_seed3.json": "estimates",
                "continuum_dimension_seed3.json": "points"}
    for name, (argv, _) in argvs.items():
        rep = json.loads((cloud_file.parent if name.startswith("rde_solve") else tmp_path)
                         .joinpath(name).read_text())
        assert {"experiment", "version", "config", "checks", "wall_clock_s"} <= set(rep)
        assert rep["wall_clock_s"] > 0
        assert isinstance(rep[rows_key.get(name, "cells")], list)
        cfg = rep["config"]
        if name == "rde_validate_seed3.json":  # the one computed entry, beside no flag of its own
            assert set(cfg["extras"].pop("moments")) == {"m1", "m2", "m3"}
        assert cfg == _expected_config(argv), name
        assert "threads" not in cfg["extras"]
        assert all(v is not None for v in [*cfg.values(), *cfg["extras"].values()])
    beta = json.loads((tmp_path / "beta_cross_validate_seed3.json").read_text())
    assert [c["criterion"] for c in beta["checks"]] == ["beta-cross-validate"]
    assert beta["checks"][0]["passed"] is not beta["flagged"]
    assert "budget" not in beta and "seed" not in beta  # config.extras.trials and the cloud say so


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
