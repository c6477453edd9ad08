import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpselect
from gpselect.cli import main
from gpselect.errors import OptimizationFailed, SingularCovariance


def run_synth(tmp_path, seed=3, n_train=16, n_test=6, extra=()):
    out = tmp_path / "d.csv"
    code = main(
        [
            "synth",
            "--kernel",
            "se",
            "--ell",
            "1",
            "--sf",
            "1",
            "--sn",
            "0.1",
            "--n-train",
            str(n_train),
            "--n-test",
            str(n_test),
            "--seed",
            str(seed),
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, tmp_path / "d_train.csv", tmp_path / "d_test.csv"


def env_with_this_package() -> dict:
    """The environment, with the imported gpselect first on a subprocess's path."""
    src = str(Path(gpselect.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


class TestSynth:
    def test_writes_two_files(self, tmp_path):
        code, train, test = run_synth(tmp_path)
        assert code == 0
        assert train.is_file() and test.is_file()
        header = train.read_text().splitlines()[0]
        assert header == "x1,y"

    def test_negative_lengthscale_exits_2_without_files(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(
            ["synth", "--kernel", "se", "--ell", "-1", "--sf", "1", "--sn", "0.1", "--out", str(out)]
        )
        assert code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "extra",
        [
            ["--sn", "nan"],
            ["--input-lo", "5", "--input-hi", "1"],
            ["--input-lo", "nan"],
            ["--input-hi", "inf"],
            # each squares to inf
            ["--kernel", "per", "--period", "3", "--sf", "1e200"],
            ["--ell", "1e200"],
            ["--sn", "1e200"],
            # each squares below the smallest normal float
            ["--ell", "1e-200"],
            ["--kernel", "per", "--period", "1e-320"],
            ["--kernel", "per", "--period", "3", "--ell", "1e-160"],
            ["--n-train", "0"],
            ["--n-test", "-1"],
        ],
    )
    def test_invalid_teacher_flags_exit_2_without_files(self, tmp_path, capsys, extra):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_synth(tmp_path, extra=extra)
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_kernel_is_required(self, tmp_path, capsys):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "d.csv")]) == 2
        assert "--kernel" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_deterministic_bytes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, train_a, test_a = run_synth(tmp_path / "a", seed=5)
        _, train_b, test_b = run_synth(tmp_path / "b", seed=5)
        assert train_a.read_bytes() == train_b.read_bytes()
        assert test_a.read_bytes() == test_b.read_bytes()

    def test_row_counts(self, tmp_path):
        _, train, test = run_synth(tmp_path, n_train=10, n_test=4)
        assert len(train.read_text().splitlines()) == 11
        assert len(test.read_text().splitlines()) == 5

    def test_runs_as_module(self, tmp_path):
        env = env_with_this_package()
        argv = ["synth", "--kernel", "se", "--n-train", "4", "--n-test", "2", "--seed", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "gpselect.cli", *argv, "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        train, test = tmp_path / "d_train.csv", tmp_path / "d_test.csv"
        assert proc.stdout.splitlines() == [str(train), str(test)]
        assert train.is_file() and test.is_file()


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone took about half a second of every command's start-up
    code = "import sys, gpselect.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env_with_this_package(), check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture()
def synth_files(tmp_path):
    (tmp_path / "work").mkdir()
    code, train, test = run_synth(tmp_path / "work", seed=21, n_train=16, n_test=8)
    assert code == 0
    return train, test


class TestFit:
    def test_evidence_fit_reports_finite_objective(self, synth_files, tmp_path):
        train, _ = synth_files
        report_path = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--train",
                str(train),
                "--kernel",
                "se",
                "--criterion",
                "evidence",
                "--restarts",
                "1",
                "--seed",
                "2",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert np.isfinite(report["objective_value"])
        assert report["failed_partition_fraction"] is None
        assert report["kernel_spec"]["structure"] == "se"

    def test_inputs_too_large_to_standardize_exit_2(self, tmp_path, capsys):
        train = tmp_path / "huge.csv"
        train.write_text("x1,y\n1e200,0.1\n-1e200,0.2\n3e199,0.3\n")
        out = tmp_path / "fit.json"
        argv = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "['x1']" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_asc_fit_reports_partition_fraction(self, synth_files, tmp_path):
        train, _ = synth_files
        report_path = tmp_path / "fit_basc.json"
        code = main(
            [
                "fit",
                "--train",
                str(train),
                "--kernel",
                "se",
                "--criterion",
                "basc",
                "--J",
                "4",
                "--M",
                "1",
                "--restarts",
                "1",
                "--seed",
                "2",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["failed_partition_fraction"] is not None
        assert report["asc"] == {"J": 4, "M": 1}

    def test_unknown_criterion_exits_2(self, synth_files):
        train, _ = synth_files
        code = main(
            ["fit", "--train", str(train), "--kernel", "se", "--criterion", "mystery"]
        )
        assert code == 2

    def test_missing_train_file_exits_2(self, tmp_path):
        code = main(
            ["fit", "--train", str(tmp_path / "nope.csv"), "--kernel", "se", "--criterion", "loo"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra", [["--restarts", "0"], ["--criterion", "bnasc", "--J", "0"]]
    )
    def test_invalid_argument_value_exits_2(self, synth_files, extra):
        train, _ = synth_files
        base = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence"]
        assert main(base + extra) == 2

    def test_agreement_flags_ignored_by_other_criteria(self, synth_files):
        train, _ = synth_files
        args = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--J", "0"]
        assert main(args + ["--restarts", "1", "--seed", "0"]) == 0

    def test_too_few_rows_for_anchor_count_exits_2(self, tmp_path, capsys):
        code, train, _ = run_synth(tmp_path, n_train=3)
        assert code == 0
        capsys.readouterr()
        args = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "bnasc", "--M", "2"]
        assert main(args + ["--seed", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_leave_one_out_on_one_row_exits_2(self, tmp_path, capsys):
        code, train, _ = run_synth(tmp_path, n_train=1)
        assert code == 0
        capsys.readouterr()
        assert main(["fit", "--train", str(train), "--kernel", "se", "--criterion", "loo"]) == 2
        assert "leave-one-out" in capsys.readouterr().err

    def test_value_error_in_numerical_code_exits_3(self, synth_files, monkeypatch, capsys):
        import importlib

        optimize_module = importlib.import_module("gpselect.optimize")

        def nan_input(*args, **kwargs):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr(optimize_module, "log_evidence_and_grad", nan_input)
        train, _ = synth_files
        code = main(["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_all_restarts_failing_exits_3_and_reports_the_error(self, synth_files, tmp_path, monkeypatch, capsys):
        def failed(*args, **kwargs):
            raise OptimizationFailed("no restart produced a finite objective")

        monkeypatch.setattr(sys.modules["gpselect.cli"], "optimize", failed)
        train, _ = synth_files
        out = tmp_path / "fit.json"
        argv = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("optimization failed: no restart")
        assert captured.out == ""
        report = json.loads(out.read_text())
        assert report["error"] == "no restart produced a finite objective"
        assert "theta_log" not in report and "kernel_spec" not in report
        assert report["input_columns"] == ["x1"]


class TestRank:
    def rank_args(self, tmp_path, seed=4):
        return [
            "rank",
            "--teacher-kernel",
            "se",
            "--ell",
            "1",
            "--sf",
            "1",
            "--sn",
            "0.1",
            "--students",
            "se,exp",
            "--criteria",
            "evidence,loo",
            "--replicates",
            "2",
            "--n-train",
            "12",
            "--n-test",
            "6",
            "--J",
            "2",
            "--M",
            "1",
            "--restarts",
            "1",
            "--seed",
            str(seed),
            "--out",
            str(tmp_path / "rank_out"),
        ]

    def test_synthetic_rank_shape(self, tmp_path):
        code = main(self.rank_args(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "rank_out.json").read_text())
        assert sorted(report["students"]) == ["exp", "se"]
        assert sorted(report["columns"]) == ["evidence", "loo", "msll"]
        csv_lines = (tmp_path / "rank_out.csv").read_text().splitlines()
        assert csv_lines[0] == "criterion,kernel,mean_rank,ci_halfwidth"
        assert len(csv_lines) == 1 + 3 * 2

    def test_single_replicate_zero_halfwidths(self, tmp_path):
        args = self.rank_args(tmp_path)
        args[args.index("--replicates") + 1] = "1"
        assert main(args) == 0
        report = json.loads((tmp_path / "rank_out.json").read_text())
        for col in report["aggregate"].values():
            for cell in col.values():
                assert cell["ci_halfwidth"] == 0.0

    def test_same_seed_identical_report(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(self.rank_args(tmp_path / "a", seed=11)) == 0
        assert main(self.rank_args(tmp_path / "b", seed=11)) == 0
        assert (tmp_path / "a" / "rank_out.json").read_bytes() == (
            tmp_path / "b" / "rank_out.json"
        ).read_bytes()
        assert (tmp_path / "a" / "rank_out.csv").read_bytes() == (
            tmp_path / "b" / "rank_out.csv"
        ).read_bytes()

    @pytest.mark.parametrize("criteria,code", [("evidence,loo", 0), ("evidence,bnasc", 2)])
    def test_small_n_train_rejected_only_with_agreement_criteria(self, synth_files, tmp_path, criteria, code):
        train, _ = synth_files
        args = ["rank", "--data", str(train), "--criteria", criteria, "--n-train", "3"]
        args += ["--students", "se", "--replicates", "1", "--restarts", "1", "--n-test", "4"]
        assert main(args + ["--out", str(tmp_path / "r")]) == code
        assert (tmp_path / "r.json").exists() == (code == 0)

    def test_test_set_larger_than_the_rows_left_exits_2(self, synth_files, tmp_path):
        # 16 rows cannot give 12 training and 10 test points
        train, _ = synth_files
        args = ["rank", "--data", str(train), "--criteria", "evidence", "--n-train", "12"]
        args += ["--students", "se", "--replicates", "1", "--restarts", "1", "--n-test", "10"]
        assert main(args + ["--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_every_replicate_failing_exits_3_without_files(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularCovariance("prior covariance")

        # every teacher draw fails, so no replicate is left to rank
        monkeypatch.setattr(sys.modules["gpselect.harness"], "chol_spd", singular)
        assert main(self.rank_args(tmp_path)) == 3
        assert capsys.readouterr().err == "error: all 2 replicates failed\n"
        assert not list(tmp_path.iterdir())

    def test_requires_teacher_or_data(self, tmp_path):
        code = main(["rank", "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--threads", "2"],
            ["--students", "se,se,exp"],
            ["--criteria", "evidence,loo,evidence"],
            ["--n-test", "0"],
            ["--restarts", "0"],
            ["--n-train", "-5", "--criteria", "evidence"],
            ["--n-train", "0", "--criteria", "evidence"],
            ["--n-train", "1"],
            ["--n-train", "1", "--criteria", "evidence", "--fit-criterion", "loo"],
            ["--fit-criterion", "bnasc"],
            ["--criteria", "mystery"],
            ["--students", "mystery"],
            ["--J", "0"],
            ["--sn", "nan"],
            ["--input-lo", "5", "--input-hi", "1"],
            ["--input-lo", "nan"],
            # teacher values that square to inf
            ["--teacher-kernel", "per", "--period", "3", "--sf", "1e200"],
            ["--ell", "1e200"],
            ["--sn", "1e200"],
            # teacher values that square below the smallest normal float
            ["--ell", "1e-200"],
            ["--teacher-kernel", "per", "--period", "1e-320"],
            ["--teacher-kernel", "per", "--period", "3", "--ell", "1e-160"],
        ],
    )
    def test_invalid_argument_value_exits_2(self, tmp_path, capsys, extra):
        # a repeated flag overrides the value rank_args set
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(self.rank_args(tmp_path) + extra) == 2
        assert "error:" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["synth", "fit", "rank"])
def test_negative_seed_exits_2_without_output(synth_files, tmp_path, capsys, command):
    # numpy's seeding refuses a negative integer deep inside the numerical code
    train, _ = synth_files
    argv = {
        "synth": ["synth", "--kernel", "se", "--seed", "-1", "--out", str(tmp_path / "d.csv")],
        "fit": ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--seed", "-2",
                "--out", str(tmp_path / "fit.json")],
        "rank": ["rank", "--teacher-kernel", "se", "--students", "se", "--criteria", "evidence", "--seed", "-3",
                 "--out", str(tmp_path / "r")],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command,flag",
    [("rank", "--students"), ("rank", "--criteria"), ("fit", "--input-cols"), ("rank", "--input-cols"),
     ("eval", "--input-cols")],
)
def test_empty_list_flag_is_named_in_the_error(synth_files, tmp_path, capsys, command, flag):
    train, test = synth_files
    argv = {
        "fit": ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence"],
        "rank": ["rank", "--data", str(train), "--n-train", "8", "--n-test", "4", "--replicates", "1"],
        "eval": ["eval", "--trivial", "--train", str(train), "--test", str(test)],
    }[command]
    assert main([*argv, flag, " , ", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {flag} is empty\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["synth", "fit", "rank", "eval"])
def test_unwritable_out_exits_2_before_any_work(synth_files, tmp_path, monkeypatch, capsys, command):
    cli = sys.modules["gpselect.cli"]

    def refused(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("sample_synthetic", "optimize", "run_ranking"):
        monkeypatch.setattr(cli, name, refused)
    train, test = synth_files
    argv = {
        "synth": ["synth", "--kernel", "se"],
        "fit": ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence"],
        "rank": ["rank", "--teacher-kernel", "se", "--students", "se", "--criteria", "evidence"],
        "eval": ["eval", "--trivial", "--train", str(train), "--test", str(test)],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # an output path that names an existing directory: rank writes <out>.json
    # and <out>.csv, synth writes <stem>_train and <stem>_test
    out, blocked = {
        "synth": ("d.csv", "d_test.csv"),
        "fit": ("out.json", "out.json"),
        "rank": ("r", "r.csv"),
        "eval": ("out.json", "out.json"),
    }[command]
    (tmp_path / blocked).mkdir()
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["relative", "hard link"])
@pytest.mark.parametrize(
    "command,flag",
    [("fit", "--train"), ("rank", "--data"), ("eval", "--model"), ("eval", "--train"), ("eval", "--test")],
)
def test_output_that_is_an_input_exits_2_and_leaves_it_unchanged(
    synth_files, tmp_path, capsys, command, flag, spelling
):
    train, test = synth_files
    model = tmp_path / "fit.json"
    fit = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--restarts", "1"]
    assert main([*fit, "--seed", "2", "--out", str(model)]) == 0
    argv = {
        "fit": fit,
        "rank": ["rank", "--data", str(train), "--students", "se", "--criteria", "evidence",
                 "--n-train", "8", "--n-test", "4", "--replicates", "1"],
        "eval": ["eval", "--model", str(model), "--train", str(train), "--test", str(test)],
    }[command]
    target = Path(argv[argv.index(flag) + 1])
    before = target.read_bytes()
    if spelling == "relative":
        alias = target.parent / ".." / target.parent.name / target.name
    else:
        alias = target.with_name("alias" + target.suffix)
        os.link(target, alias)
    # rank writes <out>.json and <out>.csv
    out = alias.with_suffix("") if command == "rank" else alias
    assert main([*argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert target.read_bytes() == before


@pytest.mark.parametrize("command", ["fit", "rank", "eval"])
@pytest.mark.parametrize(
    "columns,message",
    [
        (None, "no input columns"),
        ("x1,y", "also an input column"),
        ("x1,x1", "repeat a column"),
    ],
)
def test_csv_without_usable_input_columns_exits_2(synth_files, tmp_path, capsys, command, columns, message):
    train, test = synth_files
    if columns is None:  # a file whose only column is the output
        train = test = tmp_path / "y_only.csv"
        train.write_text("y\n" + "".join(f"{0.1 * i}\n" for i in range(16)))
    argv = {
        "fit": ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence"],
        "rank": ["rank", "--data", str(train), "--students", "se", "--criteria", "evidence",
                 "--n-train", "8", "--n-test", "4", "--replicates", "1"],
        "eval": ["eval", "--trivial", "--train", str(train), "--test", str(test)],
    }[command]
    cols = [] if columns is None else ["--input-cols", columns]
    assert main([*argv, *cols, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["fit", "rank", "eval"])
def test_csv_header_naming_a_column_twice_exits_2(tmp_path, capsys, command):
    # csv.DictReader keeps the last of two same-named columns, so --input-cols a
    # would silently read the second one
    path = tmp_path / "dup.csv"
    path.write_text("a,a,y\n" + "".join(f"{0.1 * i},{i + 20.0},{np.sin(i)}\n" for i in range(40)))
    argv = {
        "fit": ["fit", "--train", str(path), "--kernel", "se", "--criterion", "evidence"],
        "rank": ["rank", "--data", str(path), "--students", "se", "--criteria", "evidence",
                 "--n-train", "16", "--n-test", "8", "--replicates", "1"],
        "eval": ["eval", "--trivial", "--train", str(path), "--test", str(path)],
    }[command]
    assert main([*argv, "--input-cols", "a", "--out", str(tmp_path / "out")]) == 2
    assert "names ['a'] more than once" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


class TestEval:
    def test_trivial_baseline_scores_zero(self, synth_files, tmp_path):
        train, test = synth_files
        out = tmp_path / "eval.json"
        code = main(
            ["eval", "--trivial", "--train", str(train), "--test", str(test), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["msll"]) < 1e-10

    def test_trivial_baseline_builds_no_test_covariance(self, synth_files, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the trivial baseline needs no P x P covariance")

        monkeypatch.setattr(gpselect.gaussian.GaussianDist, "from_moments", refused)
        train, test = synth_files
        assert main(["eval", "--trivial", "--train", str(train), "--test", str(test)]) == 0

    def test_fitted_model_evaluates(self, synth_files, tmp_path):
        train, test = synth_files
        fit_path = tmp_path / "fit.json"
        assert (
            main(
                [
                    "fit",
                    "--train",
                    str(train),
                    "--kernel",
                    "se",
                    "--criterion",
                    "evidence",
                    "--restarts",
                    "1",
                    "--seed",
                    "2",
                    "--out",
                    str(fit_path),
                ]
            )
            == 0
        )
        out = tmp_path / "eval.json"
        code = main(
            [
                "eval",
                "--model",
                str(fit_path),
                "--train",
                str(train),
                "--test",
                str(test),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert np.isfinite(report["msll"])

    def test_model_reads_the_input_columns_it_was_fitted_on(self, tmp_path):
        rng = np.random.default_rng(23)
        x1, x2 = rng.uniform(0, 1, 40), rng.uniform(0, 10, 40)
        y = np.sin(x2) + 0.05 * rng.standard_normal(40)
        for name, rows in (("train", slice(0, 24)), ("test", slice(24, 40))):
            lines = [f"{a},{b},{c}" for a, b, c in zip(x1[rows], x2[rows], y[rows])]
            (tmp_path / f"{name}.csv").write_text("\n".join(["x1,x2,y", *lines]) + "\n")
        files = ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")]
        fit = ["fit", "--kernel", "se", "--criterion", "evidence", "--seed", "1", "--input-cols", "x2,x1"]
        assert main([*fit, "--train", files[1], "--out", str(tmp_path / "fit.json")]) == 0
        evals = {}
        for label, cols in (("recorded", []), ("same", ["--input-cols", "x2,x1"])):
            out = tmp_path / f"eval_{label}.json"
            assert main(["eval", "--model", str(tmp_path / "fit.json"), *files, *cols, "--out", str(out)]) == 0
            evals[label] = json.loads(out.read_text())["msll"]
        assert evals["recorded"] == evals["same"]
        model = ["eval", "--model", str(tmp_path / "fit.json"), *files]
        assert main([*model, "--input-cols", "x1,x2"]) == 2

    def test_model_reads_the_output_column_it_was_fitted_on(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        fit_path = tmp_path / "fit.json"
        fit = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--restarts", "1"]
        assert main([*fit, "--seed", "2", "--output-col", "x1", "--out", str(fit_path)]) == 0
        model = ["eval", "--model", str(fit_path), "--train", str(train), "--test", str(test)]
        evals = {}
        for label, col in (("recorded", []), ("same", ["--output-col", "x1"])):
            out = tmp_path / f"eval_{label}.json"
            assert main([*model, *col, "--out", str(out)]) == 0
            evals[label] = json.loads(out.read_text())["msll"]
        assert evals["recorded"] == evals["same"]
        capsys.readouterr()
        assert main([*model, "--output-col", "y"]) == 2
        assert "differs from the model's output column" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dropped", [("input_columns",), ("input_columns", "input_standardization")], ids=["columns", "both"]
    )
    def test_model_without_recorded_columns_on_files_of_other_widths_exits_2(
        self, synth_files, tmp_path, capsys, dropped
    ):
        train, test = synth_files
        fit_path = tmp_path / "fit.json"
        fit = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--restarts", "1"]
        assert main([*fit, "--seed", "2", "--out", str(fit_path)]) == 0
        report = json.loads(fit_path.read_text())
        for key in dropped:
            del report[key]
        fit_path.write_text(json.dumps(report))
        # the test set gains a second input column, which the model never saw
        rows = [line.split(",") for line in test.read_text().splitlines()[1:]]
        wide = tmp_path / "wide.csv"
        wide.write_text("x1,x2,y\n" + "".join(f"{x},0.5,{y}\n" for x, y in rows))
        out = tmp_path / "eval.json"
        for first, second in ((train, wide), (wide, train)):
            argv = ["eval", "--model", str(fit_path), "--train", str(first), "--test", str(second)]
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "numerical failure" not in err
            assert not out.exists()

    @staticmethod
    def fit_model(train, path, seed="2"):
        fit = ["fit", "--train", str(train), "--kernel", "se", "--criterion", "evidence", "--restarts", "1"]
        assert main([*fit, "--seed", seed, "--out", str(path)]) == 0
        return json.loads(path.read_text())

    def test_trivial_on_files_of_other_widths_exits_2(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        wide = tmp_path / "wide.csv"
        rows = [line.split(",") for line in train.read_text().splitlines()[1:]]
        wide.write_text("x1,x2,y\n" + "".join(f"{x},0.5,{y}\n" for x, y in rows))
        out = tmp_path / "eval.json"
        for first, second in ((train, wide), (wide, train)):
            assert main(["eval", "--trivial", "--train", str(first), "--test", str(second), "--out", str(out)]) == 2
            assert f"{second} has {2 if second == wide else 1} input columns" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "standardization,message",
        [
            ({"shift": [0.5], "scale": None}, "gives shift alone"),
            ({"scale": [2.0]}, "gives scale alone"),
            ({"shift": ["a"], "scale": [2.0]}, "not numeric"),
            ({"shift": [0.5], "scale": {"x1": 2.0}}, "not numeric"),
            ({"shift": [None], "scale": [2.0]}, "needs finite shifts"),
            ({"shift": [float("nan")], "scale": [2.0]}, "needs finite shifts"),
            ({"shift": [0.5], "scale": [float("inf")]}, "needs finite shifts"),
            ({"shift": [0.5], "scale": [0.0]}, "positive finite scales"),
            ({"shift": [0.5], "scale": [-2.0]}, "positive finite scales"),
            ({"shift": [0.5, 0.5], "scale": [2.0, 2.0]}, "has 1 input columns, but the input transform has 2 shifts"),
            ({"shift": [0.5], "scale": []}, "has 1 input columns, but the input transform has 1 shifts and 0 scales"),
        ],
        ids=["shift alone", "scale alone", "string", "mapping", "null", "nan", "inf", "zero scale", "negative scale",
             "too wide", "empty scale"],
    )
    def test_recorded_transform_used_whole_or_refused(self, synth_files, tmp_path, capsys, standardization, message):
        train, test = synth_files
        fit_path = tmp_path / "fit.json"
        report = self.fit_model(train, fit_path)
        report["input_standardization"] = standardization
        fit_path.write_text(json.dumps(report))
        out = tmp_path / "eval.json"
        argv = ["eval", "--model", str(fit_path), "--train", str(train), "--test", str(test), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert f"for {train}" in err or f"{train} has" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("input_standardization", [0.1, 1.0]),
            ("input_standardization", "x1"),
            ("input_standardization", None),
            ("input_columns", 5),
            ("input_columns", "x1"),
            ("input_columns", ["x1", 2]),
            ("output_column", 7),
            ("output_column", ["y"]),
        ],
        ids=["transform list", "transform string", "transform null", "columns int", "columns string",
             "columns non-string", "output int", "output list"],
    )
    def test_mistyped_model_field_exits_2(self, tmp_path, capsys, key, value):
        code, train, test = run_synth(tmp_path, seed=5, n_train=16, n_test=8)
        assert code == 0
        model = tmp_path / "fit.json"
        report = self.fit_model(train, model, seed="0")
        report[key] = value
        model.write_text(json.dumps(report))
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--train", str(train), "--test", str(test), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(model) in err and key in err
        assert not out.exists()

    def test_model_without_recorded_transform_scores_as_the_full_model(self, tmp_path):
        code, train, test = run_synth(tmp_path, seed=5, n_train=32, n_test=64)
        assert code == 0
        # test inputs all above 5: their own mean and spread are not the training file's
        lines = test.read_text().splitlines()
        far = tmp_path / "far.csv"
        far.write_text("\n".join([lines[0], *(line for line in lines[1:] if float(line.split(",")[0]) > 5)]) + "\n")
        report = self.fit_model(train, tmp_path / "full.json", seed="0")
        del report["input_standardization"]
        (tmp_path / "stripped.json").write_text(json.dumps(report))
        msll = {}
        for name in ("full", "stripped"):
            out = tmp_path / f"eval_{name}.json"
            argv = ["eval", "--model", str(tmp_path / f"{name}.json"), "--train", str(train), "--test", str(far)]
            assert main([*argv, "--out", str(out)]) == 0
            msll[name] = json.loads(out.read_text())["msll"]
        assert msll["stripped"] == msll["full"]

    def test_missing_test_file_exits_2(self, synth_files, tmp_path):
        train, _ = synth_files
        code = main(
            ["eval", "--trivial", "--train", str(train), "--test", str(tmp_path / "missing.csv")]
        )
        assert code == 2

    def test_model_and_trivial_conflict(self, synth_files):
        train, test = synth_files
        code = main(
            ["eval", "--model", "x.json", "--trivial", "--train", str(train), "--test", str(test)]
        )
        assert code == 2
