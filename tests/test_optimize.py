import importlib

import numpy as np
import pytest

from _oracles import evidence_gradient_oracle, random_gp_instance
from gpselect import (
    AscConfig,
    Criterion,
    Dataset,
    FitConfig,
    InsufficientData,
    KernelSpec,
    OptimizationFailed,
    SingularCovariance,
    log_evidence,
    optimize,
    sample_partitions,
)
from gpselect.criteria import derived_seed
from gpselect.harness import kernel_template, sample_synthetic
from gpselect.optimize import evaluate_criterion, finite_diff_gradient, lbfgs_minimize

optimize_module = importlib.import_module("gpselect.optimize")
regression_module = importlib.import_module("gpselect.regression")
gaussian_module = importlib.import_module("gpselect.gaussian")
EXACT_SEAMS = {Criterion.EVIDENCE: "log_evidence_and_grad", Criterion.LOO: "loo_cv_and_grad"}


def se_template():
    return KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=1.0)


class TestFiniteDiffGradient:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda t: float(t @ t), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_gradient(lambda t: 5.0, np.array([0.3, -0.7, 2.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_non_finite_probe_zeroes_only_its_coordinate(self):
        def f(t):
            return np.inf if t[0] > 1.0 else float(t @ t)

        grad = finite_diff_gradient(f, np.array([1.0, 0.5]))
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(1.0, abs=1e-6)

    def test_evidence_gradient_matches_analytic_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            model, data = random_gp_instance(rng, n_lo=8, n_hi=12)

            def f(theta):
                return log_evidence(model.with_theta(theta), data)

            numeric = finite_diff_gradient(f, model.theta())
            analytic = evidence_gradient_oracle(model, data)
            np.testing.assert_allclose(
                numeric, analytic, atol=1e-4 * max(1.0, float(np.max(np.abs(analytic))))
            )


def rosen(t):
    return float(100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2)


def rosen_grad(t):
    return np.array(
        [-400.0 * t[0] * (t[1] - t[0] ** 2) - 2.0 * (1.0 - t[0]), 200.0 * (t[1] - t[0] ** 2)]
    )


def with_gradient(f, grad):
    """An objective for lbfgs_minimize: f's value and a thunk for grad at the same point."""
    return lambda t: (f(t), lambda: grad(t))


def numeric(f):
    return with_gradient(f, lambda t: finite_diff_gradient(f, t))


def refused():
    raise AssertionError("no gradient is asked for where the value is not finite")


class TestLbfgs:
    def test_quadratic_smoke(self):
        quadratic = with_gradient(lambda t: float((t[0] - 3.0) ** 2), lambda t: 2.0 * (t - 3.0))
        result = lbfgs_minimize(quadratic, np.array([-1.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(3.0, abs=1e-6)

    def test_rosenbrock_2d(self):
        result = lbfgs_minimize(numeric(rosen), np.array([-1.2, 1.0]), maxiter=500)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-4)

    def test_infinite_region_avoided(self):
        def value(t):
            return np.inf if t[0] < 0.5 else float((t[0] - 1.0) ** 2)

        def f(t):
            if not np.isfinite(value(t)):
                return np.inf, refused
            return value(t), lambda: finite_diff_gradient(value, t)

        result = lbfgs_minimize(f, np.array([4.0]))
        assert np.isfinite(result.fun)
        assert result.x[0] == pytest.approx(1.0, abs=1e-5)

    def test_rosenbrock_with_exact_jacobian(self):
        result = lbfgs_minimize(with_gradient(rosen, rosen_grad), np.array([-1.2, 1.0]), maxiter=500)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-4)

    def test_infinite_start_reported(self):
        result = lbfgs_minimize(lambda t: (np.inf, refused), np.array([0.0]))
        assert not result.converged
        assert not np.isfinite(result.fun)


class TestFitConfig:
    @pytest.mark.parametrize(
        "criterion,restarts,asc,message",
        [
            (Criterion.EVIDENCE, 0, None, "restart"),
            (Criterion.BETA_NOISE_ASC, 0, AscConfig(), "restart"),
            (Criterion.BAYESIAN_ASC, 1, None, "basc fit with asc=None"),
            (Criterion.BETA_NOISE_ASC, 1, None, "bnasc fit with asc=None"),
            (Criterion.EVIDENCE, 1, AscConfig(), "evidence fit with asc=AscConfig"),
            (Criterion.LOO, 1, AscConfig(), "loo fit with asc=AscConfig"),
            ("mystery", 1, None, "mystery"),
        ],
        ids=["no-restarts", "asc-no-restarts", "basc-no-asc", "bnasc-no-asc", "evidence-asc", "loo-asc", "unknown"],
    )
    def test_invalid_settings_rejected(self, criterion, restarts, asc, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(criterion, restarts, asc)

    def test_names_become_criteria(self):
        fit = FitConfig("bnasc", 3, AscConfig(M=1, J=4))
        assert fit.criterion is Criterion.BETA_NOISE_ASC
        assert FitConfig() == FitConfig(Criterion.EVIDENCE, 2, None)


class TestOptimize:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        first = optimize(FitConfig(Criterion.EVIDENCE, 2), se_template(), data, seed=11)
        second = optimize(FitConfig(Criterion.EVIDENCE, 2), se_template(), data, seed=11)
        np.testing.assert_array_equal(first.theta, second.theta)
        assert first.objective_value == second.objective_value
        assert first.converged == second.converged

    @pytest.mark.parametrize("criterion", [Criterion.EVIDENCE, Criterion.LOO])
    def test_returned_value_is_fresh(self, criterion):
        rng = np.random.default_rng(2)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        result = optimize(FitConfig(criterion, 2), se_template(), data, seed=3)
        fitted = se_template().with_theta(result.theta)
        value, _, _ = evaluate_criterion(criterion, fitted, data)
        # the value L-BFGS found at theta, not a second evaluation that could differ
        assert result.objective_value == value

    def test_gradient_small_when_converged(self):
        rng = np.random.default_rng(3)
        teacher = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=0.3)
        train, _ = sample_synthetic(teacher, 32, 1, seed=5)
        result = optimize(FitConfig(Criterion.EVIDENCE, 2), se_template(), train, seed=5)
        if result.converged:
            kern = se_template()

            def f(theta):
                return log_evidence(kern.with_theta(theta), train)

            grad = finite_diff_gradient(f, result.theta)
            assert np.linalg.norm(grad) < 1e-3 * (1.0 + abs(result.objective_value))

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(4)
        model, data = random_gp_instance(rng, n_lo=14, n_hi=14, structure="per")
        template = KernelSpec.create("per", lengthscale=1.0, period=1.0, signal=1.0, noise=1.0)
        one = optimize(FitConfig(Criterion.EVIDENCE, 1), template, data, seed=9)
        eight = optimize(FitConfig(Criterion.EVIDENCE, 8), template, data, seed=9)
        assert eight.objective_value >= one.objective_value - 1e-12

    def test_loo_direction_minimizes(self):
        rng = np.random.default_rng(5)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        result = optimize(FitConfig(Criterion.LOO, 2), se_template(), data, seed=6)
        fitted = se_template().with_theta(result.theta)
        at_fit, _, _ = evaluate_criterion(Criterion.LOO, fitted, data)
        perturbed = se_template().with_theta(result.theta + 0.5)
        worse, _, _ = evaluate_criterion(Criterion.LOO, perturbed, data)
        assert at_fit <= worse + 1e-9

    @pytest.mark.parametrize(
        "criterion,n,asc",
        [(Criterion.LOO, 1, None), (Criterion.BETA_NOISE_ASC, 3, AscConfig(M=2, J=4))],
        ids=["loo-1-row", "bnasc-3-rows-M2"],
    )
    def test_too_few_rows_raise_insufficient_data(self, criterion, n, asc):
        data = Dataset(np.linspace(0.0, 1.0, n)[None], np.zeros(n))
        with pytest.raises(InsufficientData, match="at least"):
            optimize(FitConfig(criterion, 1, asc), se_template(), data, seed=7)

    def test_asc_fit_reports_partition_fraction(self, monkeypatch):
        seeds = []

        def recording(n, cfg, seed):
            seeds.append(seed)
            return sample_partitions(n, cfg, seed)

        monkeypatch.setattr(optimize_module, "sample_partitions", recording)
        rng = np.random.default_rng(6)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        result = optimize(FitConfig(Criterion.BAYESIAN_ASC, 1, AscConfig(M=1, J=4)), se_template(), data, seed=7)
        # sampled once per fit, from the seed that gpselect fit has always used
        assert seeds == [derived_seed(7, 1)]
        assert result.failed_partition_fraction is not None
        assert 0.0 <= result.failed_partition_fraction <= 1.0
        assert np.isfinite(result.objective_value)

    def test_all_failures_raise(self, monkeypatch):
        rng = np.random.default_rng(7)
        model, data = random_gp_instance(rng, n_lo=8, n_hi=8)

        def always_singular(*args, **kwargs):
            raise SingularCovariance("forced")

        # evidence fits evaluate through the fused value-and-gradient seam
        monkeypatch.setattr(optimize_module, "log_evidence_and_grad", always_singular)
        with pytest.raises(OptimizationFailed):
            optimize(FitConfig(Criterion.EVIDENCE, 2), se_template(), data, seed=8)

    def test_exhausted_ladders_do_not_compute_the_pivot(self, monkeypatch):
        # a periodic kernel is not PSD on 2-D inputs, so the line search of this
        # fit steps into Grams that no jitter rung factors; optimize swallows
        # each failure, so the pivot its message would show is never read
        rng = np.random.default_rng(8)
        x = rng.uniform(-2.0, 2.0, (2, 24))
        data = Dataset(x, np.sin(2.0 * x[0]) + x[1] + 0.05 * rng.standard_normal(24))
        real_chol = regression_module.chol_spd
        counts = {"exhausted": 0, "pivots": 0}

        def counted_chol(*args, **kwargs):
            try:
                return real_chol(*args, **kwargs)
            except SingularCovariance:
                counts["exhausted"] += 1
                raise

        def counted_pivot(mat):
            counts["pivots"] += 1
            return None

        monkeypatch.setattr(regression_module, "chol_spd", counted_chol)
        monkeypatch.setattr(gaussian_module, "_smallest_pivot", counted_pivot)
        result = optimize(FitConfig(Criterion.EVIDENCE, 2), kernel_template("per"), data, seed=8)
        assert np.isfinite(result.objective_value)
        assert counts["exhausted"] > 0
        assert counts["pivots"] == 0

    @pytest.mark.parametrize("criterion", [Criterion.EVIDENCE, Criterion.LOO])
    def test_exact_fits_evaluate_each_point_once(self, monkeypatch, criterion):
        exact = getattr(optimize_module, EXACT_SEAMS[criterion])
        visited = []

        def recording(model, data):
            visited.append(model.theta())
            return exact(model, data)

        def no_finite_differences(*args, **kwargs):
            raise AssertionError("exact fits must not difference the objective")

        monkeypatch.setattr(optimize_module, EXACT_SEAMS[criterion], recording)
        monkeypatch.setattr(optimize_module, "finite_diff_gradient", no_finite_differences)
        rng = np.random.default_rng(8)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        result = optimize(FitConfig(criterion, 2), se_template(), data, seed=4)
        assert np.isfinite(result.objective_value)
        repeats = sum(np.array_equal(a, b) for a, b in zip(visited, visited[1:]))
        assert repeats == 0

    @pytest.mark.parametrize("criterion", [Criterion.EVIDENCE, Criterion.LOO])
    def test_exact_fits_evaluate_only_through_the_seam(self, monkeypatch, criterion):
        real_evaluate = optimize_module.evaluate_criterion
        exact = getattr(optimize_module, EXACT_SEAMS[criterion])
        counts = {"seam": 0, "exact": 0}

        def seam(*args):
            counts["seam"] += 1
            return real_evaluate(*args)

        def counted(model, data):
            counts["exact"] += 1
            return exact(model, data)

        monkeypatch.setattr(optimize_module, "evaluate_criterion", seam)
        monkeypatch.setattr(optimize_module, EXACT_SEAMS[criterion], counted)
        rng = np.random.default_rng(8)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        optimize(FitConfig(criterion, 2), se_template(), data, seed=4)
        assert counts["seam"] == counts["exact"] > 0

    def test_agreement_fit_evaluates_its_best_point_once_more(self, monkeypatch):
        real_evaluate = optimize_module.evaluate_criterion
        real_lbfgs = optimize_module.lbfgs_minimize
        state = {"inside": False, "in_lbfgs": 0, "after": []}

        def seam(criterion, kernel, *args):
            if not state["inside"]:
                state["after"].append(kernel.theta())
            state["in_lbfgs"] += state["inside"]
            return real_evaluate(criterion, kernel, *args)

        def lbfgs(f, x0, **kwargs):
            # the finite-difference probes run inside the gradient thunks L-BFGS calls
            state["inside"] = True
            try:
                return real_lbfgs(f, x0, **kwargs)
            finally:
                state["inside"] = False

        monkeypatch.setattr(optimize_module, "evaluate_criterion", seam)
        monkeypatch.setattr(optimize_module, "lbfgs_minimize", lbfgs)
        rng = np.random.default_rng(6)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        asc = AscConfig(M=1, J=4)
        result = optimize(FitConfig(Criterion.BETA_NOISE_ASC, 2, asc), se_template(), data, seed=7)
        assert state["in_lbfgs"] > 0
        assert len(state["after"]) == 1
        np.testing.assert_array_equal(state["after"][0], result.theta)
        parts = sample_partitions(data.n, asc, derived_seed(7, 1))
        fitted = se_template().with_theta(result.theta)
        value, grad, score = real_evaluate(Criterion.BETA_NOISE_ASC, fitted, data, parts)
        assert grad is None
        assert result.objective_value == value == score.value
        assert result.failed_partition_fraction == score.failed_fraction

    @pytest.mark.parametrize("criterion", [Criterion.EVIDENCE, Criterion.LOO, Criterion.BETA_NOISE_ASC])
    def test_gradient_only_after_sufficient_decrease(self, monkeypatch, criterion):
        real_lbfgs = optimize_module.lbfgs_minimize
        real_search = optimize_module._wolfe_search
        state = {"slopes": 0, "asking": False, "evals": 0, "grads": 0}

        def counted(grad):
            # computed only inside a gradient request from L-BFGS
            assert state["asking"]
            state["grads"] += 1
            return grad()

        if criterion.is_asc:
            real_fd = optimize_module.finite_diff_gradient
            monkeypatch.setattr(
                optimize_module, "finite_diff_gradient", lambda f, theta: counted(lambda: real_fd(f, theta))
            )
        else:
            exact = getattr(optimize_module, EXACT_SEAMS[criterion])

            def counting(model, data):
                value, grad = exact(model, data)
                return value, lambda: counted(grad)

            monkeypatch.setattr(optimize_module, EXACT_SEAMS[criterion], counting)

        def lbfgs(f, x0, **kwargs):
            def asked(theta):
                state["evals"] += 1
                value, grad = f(theta)

                def requested():
                    state["asking"] = True
                    try:
                        return grad()
                    finally:
                        state["asking"] = False

                return value, requested

            return real_lbfgs(asked, x0, **kwargs)

        def search(f_line, phi0, dphi0):
            def f_checked(alpha):
                phi, slope = f_line(alpha)

                def checked():
                    # the Armijo condition with the line search's c1
                    assert phi <= phi0 + optimize_module._C1 * alpha * dphi0
                    state["slopes"] += 1
                    return slope()

                return phi, checked

            return real_search(f_checked, phi0, dphi0)

        monkeypatch.setattr(optimize_module, "lbfgs_minimize", lbfgs)
        monkeypatch.setattr(optimize_module, "_wolfe_search", search)
        rng = np.random.default_rng(8)
        model, data = random_gp_instance(rng, n_lo=16, n_hi=16)
        fit = FitConfig(criterion, 3, AscConfig(M=1, J=4) if criterion.is_asc else None)
        result = optimize(fit, se_template(), data, seed=4)
        assert np.isfinite(result.objective_value)
        # one gradient per restart's start, and one per line-search point that passed
        assert state["grads"] == state["slopes"] + 3
        assert state["grads"] < state["evals"]

    def test_evidence_recovers_teacher_scale(self):
        # single-replicate smoke: the full recovery study is in acceptance
        teacher = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=0.1)
        train, _ = sample_synthetic(teacher, 64, 1, seed=123)
        result = optimize(FitConfig(Criterion.EVIDENCE, 3), se_template(), train, seed=4)
        recovered = np.exp(result.theta)
        assert 0.3 < recovered[0] < 3.0  # lengthscale
        assert 0.25 < recovered[1] < 4.0  # signal
