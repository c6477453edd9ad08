import importlib
import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from gpselect import (
    AllPartitionsFailed,
    AscConfig,
    Criterion,
    Dataset,
    EmptyData,
    ExperimentConfig,
    FitConfig,
    KernelSpec,
    OptimizationFailed,
    SchemaError,
    SingularCovariance,
    load_csv_dataset,
    run_ranking,
    sample_synthetic,
)
from gpselect.criteria import derived_seed
from gpselect.harness import _midranks, aggregate_ranks, rank_students, sample_function_values

harness_module = importlib.import_module("gpselect.harness")


def teacher(ell=1.0, sf=1.0, sn=0.1):
    return KernelSpec.create("se", lengthscale=ell, signal=sf, noise=sn)


def tiny_config(fit_criterion="evidence", restarts=1, **overrides):
    base = dict(
        fit=FitConfig(fit_criterion, restarts),
        students=("se", "exp"),
        criteria=(Criterion.EVIDENCE, Criterion.LOO),
        replicates=2,
        n_train=12,
        n_test=6,
        asc=AscConfig(M=1, J=4),
        seed=7,
        teacher=teacher(),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSampleSynthetic:
    def test_vanishing_signal_gives_pure_noise(self):
        # the signal parameter cannot be exactly zero (it lives in log space),
        # so a vanishing value stands in: latents collapse, outputs are noise
        quiet = teacher(sf=1e-8, sn=0.5)
        train, test = sample_synthetic(quiet, 32, 8, seed=1)
        rng = np.random.default_rng(1)
        rng.uniform(0, 10, size=(1, 40))  # skip the input draw
        latents_bound = 1e-6
        # reconstruct the latent draw: with sf ~ 1e-8 it must be negligible
        assert np.std(train.y) > 0.1  # noise present
        model_free = np.concatenate([train.y, test.y])
        assert np.all(np.abs(model_free) < 5 * 0.5 + latents_bound)

    def test_same_seed_identical(self):
        a_train, a_test = sample_synthetic(teacher(), 16, 4, seed=9)
        b_train, b_test = sample_synthetic(teacher(), 16, 4, seed=9)
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_train.y, b_train.y)
        np.testing.assert_array_equal(a_test.y, b_test.y)

    def test_latent_moments_match_kernel(self):
        # Monte Carlo oracle: repeated joint draws at two fixed inputs have
        # sample covariance matching the kernel within 3 standard errors
        model = teacher(sn=0.0)
        x = np.array([[1.0, 2.0]])
        rng = np.random.default_rng(11)
        n_draws = 10_000
        draws = np.stack([sample_function_values(model, x, rng) for _ in range(n_draws)])
        expected = np.exp(-0.5)  # k(1, 2) for unit SE
        sample_cov = np.cov(draws.T, ddof=1)[0, 1]
        # var of sample covariance of bivariate normal ~ (1 + k^2)/n
        se = np.sqrt((1.0 + expected**2) / n_draws)
        assert abs(sample_cov - expected) < 3 * se

    def test_split_sizes(self):
        train, test = sample_synthetic(teacher(), 10, 3, seed=0)
        assert train.n == 10 and test.n == 3


class TestMidranks:
    def test_best_first_higher_better(self):
        np.testing.assert_array_equal(_midranks([0.1, 0.9, 0.5], True), [3.0, 1.0, 2.0])

    def test_best_first_lower_better(self):
        np.testing.assert_array_equal(_midranks([0.1, 0.9, 0.5], False), [1.0, 3.0, 2.0])

    def test_ties_share_averaged_rank(self):
        np.testing.assert_array_equal(_midranks([3.0, 3.0], True), [1.5, 1.5])

    def test_missing_scores_rank_worst(self):
        ranks = _midranks([0.2, float("nan"), 0.7], True)
        np.testing.assert_array_equal(ranks, [2.0, 3.0, 1.0])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(6)
        base = _midranks(scores, True)
        squashed = _midranks(np.tanh(scores) * 3.0 + 1.0, True)
        np.testing.assert_array_equal(base, squashed)


# Few distinct values, so ties are common, with both zeros, both infinities and NaN.
_RANKED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_RANKED_VALUES, max_size=9), st.booleans())
def test_midranks_equal_scipy_average_rankdata(values, higher_better):
    arr = np.asarray(values, dtype=float)
    mapped = np.where(np.isnan(arr), -np.inf if higher_better else np.inf, arr)
    expected = rankdata(-mapped if higher_better else mapped, method="average")
    got = _midranks(values, higher_better)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


class TestRankStudents:
    def test_single_student_always_rank_one(self):
        cfg = tiny_config(students=("se",))
        train, test = sample_synthetic(teacher(), cfg.n_train, cfg.n_test, seed=1)
        result = rank_students(cfg, train, test, seed=5)
        for col in cfg.columns:
            assert result["ranks"][col]["se"] == 1.0

    def test_ranks_are_midrank_permutations(self):
        cfg = tiny_config()
        train, test = sample_synthetic(teacher(), cfg.n_train, cfg.n_test, seed=2)
        result = rank_students(cfg, train, test, seed=6)
        for col in cfg.columns:
            ranks = sorted(result["ranks"][col].values())
            assert sum(ranks) == pytest.approx(len(ranks) * (len(ranks) + 1) / 2)

    def test_failed_fit_gets_worst_rank(self, monkeypatch):
        real_optimize = harness_module.optimize

        def flaky(fit, template, data, seed):
            if template.structure.value == "exp":
                raise OptimizationFailed("forced")
            return real_optimize(fit, template, data, seed)

        monkeypatch.setattr(harness_module, "optimize", flaky)
        cfg = tiny_config()
        train, test = sample_synthetic(teacher(), cfg.n_train, cfg.n_test, seed=3)
        result = rank_students(cfg, train, test, seed=8)
        assert result["fit_failures"] == ["exp"]
        for col in cfg.columns:
            assert result["ranks"][col]["exp"] == 2.0  # worst of two students


class TestAggregateRanks:
    def test_single_replicate_zero_halfwidth(self):
        cfg = tiny_config(replicates=1)
        report = run_ranking(cfg)
        for col in report["columns"]:
            for name in report["students"]:
                assert report["aggregate"][col][name]["ci_halfwidth"] == 0.0

    def test_constant_ranks_zero_halfwidth(self):
        cfg = tiny_config()
        train, test = sample_synthetic(teacher(), cfg.n_train, cfg.n_test, seed=4)
        rep = rank_students(cfg, train, test, seed=9)
        aggregate = aggregate_ranks([rep, rep, rep])
        for col in cfg.columns:
            for name in ("se", "exp"):
                assert aggregate[col][name]["ci_halfwidth"] == 0.0
                assert aggregate[col][name]["mean_rank"] == rep["ranks"][col][name]

    def test_mean_matches_known_distribution(self):
        # Monte Carlo oracle on synthetic rank draws
        rng = np.random.default_rng(13)
        support = np.array([1.0, 2.0, 3.0, 4.0])
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        true_mean = float(support @ probs)
        draws = rng.choice(support, size=100, p=probs)
        reps = []
        base = rank_students(
            tiny_config(students=("se",), replicates=1),
            *sample_synthetic(teacher(), 12, 6, seed=5),
            seed=10,
        )
        for value in draws:
            ranks = {col: {"se": float(value)} for col in base["ranks"]}
            reps.append({**base, "ranks": ranks})
        aggregate = aggregate_ranks(reps)
        se = float(np.std(draws, ddof=1) / np.sqrt(100))
        for col in base["ranks"]:
            assert abs(aggregate[col]["se"]["mean_rank"] - true_mean) < 3 * se + 1e-12


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "override,message",
        [
            ({"students": ("se", "se", "exp")}, "duplicate students"),
            ({"criteria": (Criterion.EVIDENCE, "loo", "evidence")}, "duplicate criteria"),
            ({"n_test": 0}, "n_test"),
            ({"restarts": 0}, "restart"),
            (
                {"criteria": ("evidence", "basc"), "n_train": 3, "asc": AscConfig(M=2, J=4)},
                "n_train=3 too small for M=2",
            ),
            ({"n_train": 0, "criteria": ("evidence",)}, "n_train=0"),
            ({"n_train": -5, "criteria": ("evidence",)}, "n_train=-5"),
            ({"n_train": 1}, "n_train=1 too small for leave-one-out"),
            (
                {"n_train": 1, "criteria": ("evidence",), "fit_criterion": "loo"},
                "n_train=1 too small for leave-one-out",
            ),
            (
                {"teacher": None, "data": Dataset(np.arange(16.0)[None], np.sin(np.arange(16.0))),
                 "n_train": 12, "n_test": 10},
                "16 rows, need n_train \\+ n_test = 22",
            ),
            ({"fit": FitConfig("bnasc", 1, AscConfig(M=1, J=4))}, "evidence or leave-one-out only"),
        ],
    )
    def test_invalid_values_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**override)

    def test_small_n_train_allowed_without_agreement_criterion(self, monkeypatch):
        # partitions are only drawn, and so only need 2M points, for ASC scores
        cfg = tiny_config(n_train=3, asc=AscConfig(M=2, J=4))

        def no_partitions(*args, **kwargs):
            raise AssertionError("partitions sampled without an agreement criterion")

        monkeypatch.setattr(harness_module, "sample_partitions", no_partitions)
        train, test = sample_synthetic(teacher(), cfg.n_train, cfg.n_test, seed=1)
        result = rank_students(cfg, train, test)
        assert set(result["scores"]) == {"evidence", "loo", "msll"}


class TestRunRanking:
    def test_real_data_mode_splits(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 10, (1, 40))
        y = np.sin(x[0]) + 0.1 * rng.standard_normal(40)
        cfg = tiny_config(teacher=None, data=Dataset(x, y), n_train=12, n_test=10, replicates=2)
        report = run_ranking(cfg)
        assert set(report["students"]) == {"se", "exp"}
        assert report["failed_replicates"] == 0

    @pytest.mark.parametrize("mode", ["synthetic", "real"])
    def test_config_block_echoes_the_config_that_ran(self, mode):
        overrides = {"replicates": 1, "restarts": 1, "fit_criterion": "loo"}
        if mode == "real":
            rng = np.random.default_rng(19)
            x = rng.uniform(0, 10, (1, 30))
            data = Dataset(x, np.sin(x[0]), {"source": "in-memory", "skipped_rows": 0})
            overrides.update(teacher=None, data=data)
        cfg = tiny_config(**overrides)
        config = run_ranking(cfg)["config"]
        if mode == "real":
            assert config.pop("data") == cfg.data.meta
            assert config.pop("teacher") is None
        else:
            assert config.pop("teacher") == {"kernel": "se", "params": cfg.teacher.named_params()}
            assert config.pop("data") is None
        assert config == {
            "command": "rank",
            "students": ["se", "exp"],
            "criteria": ["evidence", "loo"],
            "fit_criterion": "loo",
            "replicates": 1,
            "n_train": 12,
            "n_test": 6,
            "asc": {"J": 4, "M": 1},
            "seed": 7,
            "restarts": 1,
        }

    @pytest.mark.parametrize("column", ["loo", "msll"])
    def test_score_that_raises_is_nan_and_ranks_worst(self, monkeypatch, column):
        cfg = tiny_config()
        full = run_ranking(cfg)
        # the exp student's score in one column raises; predict feeds only the msll column
        real_predict, real_evaluate = harness_module.predict, harness_module.evaluate_criterion

        def predict(kernel, *args):
            if column == "msll" and kernel.structure.value == "exp":
                raise SingularCovariance("forced")
            return real_predict(kernel, *args)

        def evaluate_criterion(crit, kernel, *args):
            if crit.value == column and kernel.structure.value == "exp":
                raise SingularCovariance("forced")
            return real_evaluate(crit, kernel, *args)

        monkeypatch.setattr(harness_module, "predict", predict)
        monkeypatch.setattr(harness_module, "evaluate_criterion", evaluate_criterion)
        report = run_ranking(cfg)
        assert report["failed_replicates"] == 0
        for before, after in zip(full["replicates"], report["replicates"], strict=True):
            assert np.isnan(after["scores"][column]["exp"])
            assert after["scores"][column]["se"] == before["scores"][column]["se"]
            assert after["ranks"][column] == {"se": 1.0, "exp": 2.0}
            for col in cfg.columns:
                if col != column:
                    assert after["scores"][col] == before["scores"][col]
                    assert after["ranks"][col] == before["ranks"][col]
            assert after["theta"] == before["theta"]


def _fail_one_fit(monkeypatch, cfg, replicate, student, error):
    """Make the fit of one (replicate, student) task raise ``error``."""
    real_optimize = harness_module.optimize
    target = derived_seed(derived_seed(cfg.seed, replicate), 2, student)

    def stand_in(fit, template, data, seed):
        if seed == target:
            raise error
        return real_optimize(fit, template, data, seed)

    monkeypatch.setattr(harness_module, "optimize", stand_in)


class TestTaskPool:
    """run_ranking maps its (replicate, student) tasks over a fork pool, or in-process on one CPU."""

    def test_one_and_two_workers_give_equal_reports(self, monkeypatch):
        cfg = tiny_config(criteria=("evidence", "loo", "bnasc"), replicates=3)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness_module, "_cpu_count", lambda cpus=cpus: cpus)
            reports.append(json.dumps(run_ranking(cfg), sort_keys=True))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_library_error_in_one_task_drops_that_replicate(self, monkeypatch, cpus):
        monkeypatch.setattr(harness_module, "_cpu_count", lambda: cpus)
        cfg = tiny_config(replicates=3)
        full = run_ranking(cfg)
        _fail_one_fit(monkeypatch, cfg, 1, 1, AllPartitionsFailed(4))
        report = run_ranking(cfg)
        assert report["failed_replicates"] == 1
        kept = [full["replicates"][0], full["replicates"][2]]
        assert json.dumps(report["replicates"], sort_keys=True) == json.dumps(kept, sort_keys=True)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_errors_propagate(self, monkeypatch, cpus):
        monkeypatch.setattr(harness_module, "_cpu_count", lambda: cpus)
        cfg = tiny_config(replicates=2)
        _fail_one_fit(monkeypatch, cfg, 0, 1, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            run_ranking(cfg)

    def test_no_worker_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(harness_module, "_cpu_count", lambda: 2)
        cfg = tiny_config(replicates=2)
        run_ranking(cfg)
        assert multiprocessing.active_children() == []
        _fail_one_fit(monkeypatch, cfg, 0, 0, RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            run_ranking(cfg)
        assert multiprocessing.active_children() == []


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_three_rows(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,2\n3,4\n5,6\n")
        data = load_csv_dataset(path, ["a"], "y")
        assert data.n == 3
        assert data.meta["skipped_rows"] == 0

    def test_malformed_row_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,2\noops,4\n5,6\n")
        data = load_csv_dataset(path, ["a"], "y")
        assert data.n == 2
        assert data.meta["skipped_rows"] == 1

    def test_nan_row_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,2\nnan,4\n5,\n")
        data = load_csv_dataset(path, ["a"], "y")
        assert data.n == 1
        assert data.meta["skipped_rows"] == 2

    def test_power_plant_shape(self, tmp_path):
        header = "temperature,ambient_pressure,relative_humidity,exhaust_vacuum,energy\n"
        rows = "".join(
            f"{10 + i},{1000 + i},{50 + i},{40 + i},{450 - i}\n" for i in range(6)
        )
        path = self.write(tmp_path, header + rows)
        data = load_csv_dataset(
            path,
            ["temperature", "ambient_pressure", "relative_humidity", "exhaust_vacuum"],
            "energy",
        )
        assert data.dim == 4
        assert data.n == 6

    def test_missing_column_raises(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv_dataset(path, ["b"], "y")

    def test_default_inputs_are_every_column_but_the_output(self, tmp_path):
        path = self.write(tmp_path, "b,y,a\n1,2,3\n4,5,7\n")
        data = load_csv_dataset(path, None, "y")
        assert data.meta["input_columns"] == ["b", "a"]
        np.testing.assert_array_equal(data.y, [2.0, 5.0])

    @pytest.mark.parametrize("inputs", [None, ["x1"]], ids=["default", "named"])
    def test_byte_order_mark_reads_as_the_plain_file(self, tmp_path, inputs):
        plain = self.write(tmp_path, "x1,y\n" + "".join(f"{0.3 * i},{np.sin(i)}\n" for i in range(8)))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = (load_csv_dataset(path, inputs, "y") for path in (plain, marked))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.meta["input_columns"] == ["x1"]
        assert a.meta.pop("source") != b.meta.pop("source")
        assert a.meta == b.meta

    def test_all_rows_bad_raises(self, tmp_path):
        path = self.write(tmp_path, "a,y\nx,2\nz,4\n")
        with pytest.raises(EmptyData):
            load_csv_dataset(path, ["a"], "y")

    def test_inputs_standardized_and_invertible(self, tmp_path):
        raw = np.array([[1.0, 5.0], [2.0, 4.0], [3.0, 9.0], [4.0, 2.0]])
        text = "a,b,y\n" + "".join(f"{r[0]},{r[1]},{i}\n" for i, r in enumerate(raw))
        path = self.write(tmp_path, text)
        data = load_csv_dataset(path, ["a", "b"], "y")
        np.testing.assert_allclose(data.X.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(data.X.std(axis=1), 1.0, atol=1e-12)
        shift = np.array(data.meta["input_shift"])
        scale = np.array(data.meta["input_scale"])
        np.testing.assert_allclose(
            data.X * scale[:, None] + shift[:, None], raw.T, atol=1e-12
        )

    def test_outputs_left_raw(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,100\n2,200\n3,300\n")
        data = load_csv_dataset(path, ["a"], "y")
        np.testing.assert_array_equal(data.y, [100.0, 200.0, 300.0])

    def test_constant_column_passes_through(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n2,1,0\n2,2,1\n2,3,2\n")
        data = load_csv_dataset(path, ["a", "b"], "y")
        np.testing.assert_allclose(data.X[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "column", [("1e200", "-1e200", "3e199"), ("1.5e308", "1.6e308", "1e308")], ids=["scale", "shift"]
    )
    def test_transform_that_overflows_is_refused(self, tmp_path, column):
        rows = "".join(f"{a},{b},{i}\n" for i, (a, b) in enumerate(zip(("1", "2", "4"), column)))
        path = self.write(tmp_path, "a,b,y\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match=r"\['b'\]") as caught:
                load_csv_dataset(path, ["a", "b"], "y")
        assert "'a'" not in str(caught.value)


class TestDerivedSeed:
    def test_deterministic_and_distinct(self):
        assert derived_seed(5, 1, 2) == derived_seed(5, 1, 2)
        assert derived_seed(5, 1, 2) != derived_seed(5, 2, 1)
        assert derived_seed(5, 1) != derived_seed(5, 1, 0)
