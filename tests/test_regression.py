import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    evidence_gradient_oracle,
    log_evidence_oracle,
    loo_oracle,
    mvn_logpdf,
    random_gp_instance,
    random_kernel,
)
from gpselect import (
    Dataset,
    DegenerateBaseline,
    KernelSpec,
    KernelStructure,
    finite_diff_gradient,
    kernel_matrix,
    log_evidence,
    loo_cv_objective,
    msll,
    noisy_kernel_matrix,
    predict,
)
from scipy.linalg import solve_triangular

from gpselect.gaussian import chol_spd
from gpselect.regression import log_evidence_and_grad, loo_cv_and_grad

LOG_2PI = math.log(2.0 * math.pi)


def se_model(ell=1.0, sf=1.0, sn=0.1):
    return KernelSpec.create("se", lengthscale=ell, signal=sf, noise=sn)


class TestDataset:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 3)), np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0, np.nan]]), np.zeros(2))


class TestLogEvidence:
    def test_single_point_standard_normal(self):
        model = se_model(sn=0.0)
        y1 = 0.7
        got = log_evidence(model, Dataset([[1.0]], [y1]))
        assert got == pytest.approx(-0.5 * y1**2 - 0.5 * LOG_2PI, rel=1e-12)

    def test_matches_density_helper(self):
        rng = np.random.default_rng(1)
        model, data = random_gp_instance(rng)
        expected = mvn_logpdf(data.y, np.zeros(data.n), noisy_kernel_matrix(model, data.X))
        assert log_evidence(model, data) == pytest.approx(expected, abs=1e-12)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model, data = random_gp_instance(rng, n_lo=8, n_hi=8)
            expected = log_evidence_oracle(noisy_kernel_matrix(model, data.X), data.y)
            assert log_evidence(model, data) == pytest.approx(expected, rel=1e-8)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        model, data = random_gp_instance(rng)
        base = log_evidence(model, data)
        perm = rng.permutation(data.n)
        shuffled = Dataset(data.X[:, perm], data.y[perm])
        assert abs(log_evidence(model, shuffled) - base) < 1e-10


class TestLooCv:
    def test_symmetric_two_point_folds_equal(self):
        model = se_model(sn=0.3)
        data = Dataset([[0.0, 1.0]], [0.4, 0.4])
        # with exchangeable points both folds carry the same loss; the mean
        # equals either fold, checked via explicit conditioning
        joint_cov = noisy_kernel_matrix(model, data.X)
        var = joint_cov[0, 0] - joint_cov[0, 1] ** 2 / joint_cov[1, 1]
        mean = joint_cov[0, 1] / joint_cov[1, 1] * data.y[1]
        fold = -0.5 * (math.log(2 * math.pi * var) + (data.y[0] - mean) ** 2 / var)
        assert loo_cv_objective(model, data) == pytest.approx(-fold, rel=1e-12)

    def test_matches_per_fold_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            model, data = random_gp_instance(rng)
            cov = noisy_kernel_matrix(model, data.X)
            total = 0.0
            for k in range(data.n):
                rest = np.delete(np.arange(data.n), k)
                gain = np.linalg.solve(cov[np.ix_(rest, rest)], cov[rest, k])
                var = cov[k, k] - cov[rest, k] @ gain
                mean = gain @ data.y[rest]
                total += -0.5 * (math.log(2 * math.pi * var) + (data.y[k] - mean) ** 2 / var)
            assert loo_cv_objective(model, data) == pytest.approx(-total / data.n, abs=1e-8)

    def test_large_noise_decouples_folds(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 5, (1, 8))
        y = rng.standard_normal(8)
        data = Dataset(x, y)
        gaps = []
        for sn in (2.0, 8.0, 32.0):
            model = se_model(sn=sn)
            prior_vars = np.diag(noisy_kernel_matrix(model, x))
            prior_loss = float(
                np.mean(0.5 * (np.log(2 * np.pi * prior_vars) + y**2 / prior_vars))
            )
            gaps.append(abs(loo_cv_objective(model, data) - prior_loss))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        model, data = random_gp_instance(rng)
        base = loo_cv_objective(model, data)
        perm = rng.permutation(data.n)
        shuffled = Dataset(data.X[:, perm], data.y[perm])
        assert abs(loo_cv_objective(model, shuffled) - base) < 1e-10

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            loo_cv_objective(se_model(), Dataset([[0.0]], [1.0]))


def _gradient_instance(structure, seed, log10_noise):
    noise = 10.0**log10_noise
    return random_gp_instance(
        np.random.default_rng(seed), structure=structure, noise_lo=noise, noise_hi=noise
    )


gradient_cases = given(
    structure=st.sampled_from([s.value for s in KernelStructure]),
    seed=st.integers(0, 2**32 - 1),
    log10_noise=st.floats(-4.0, -0.2),
)


class TestExactGradients:
    @gradient_cases
    @example(structure="se", seed=0, log10_noise=-4.0)
    @example(structure="per", seed=0, log10_noise=-4.0)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_evidence_gradient_matches_trace_oracle(self, structure, seed, log10_noise):
        model, data = _gradient_instance(structure, seed, log10_noise)
        value, grad_fn = log_evidence_and_grad(model, data)
        grad = grad_fn()
        assert value == log_evidence(model, data)
        oracle = evidence_gradient_oracle(model, data)
        # 1e-8 relative, unless round-off in solving with K allows more: both
        # routes invert K, so each is only good to about n cond(K) eps
        cond = np.linalg.cond(noisy_kernel_matrix(model, data.X))
        rtol = max(1e-8, data.n * cond * np.finfo(float).eps)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(grad - oracle)) <= rtol * scale

    @gradient_cases
    @example(structure="rq", seed=0, log10_noise=-4.0)
    @example(structure="per", seed=0, log10_noise=-4.0)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_loo_gradient_matches_finite_differences(self, structure, seed, log10_noise):
        model, data = _gradient_instance(structure, seed, log10_noise)
        value, grad_fn = loo_cv_and_grad(model, data)
        grad = grad_fn()
        assert value == loo_cv_objective(model, data)
        kern = model

        def f(theta):
            return loo_cv_objective(kern.with_theta(theta), data)

        # central differences trade truncation against round-off differently
        # per coordinate, so each coordinate is held to its best step; even
        # that step can be off by ~1e-4 (period coordinate at noise ~1e-4,
        # where 50-digit differences agree with the exact gradient to 4e-8)
        numeric = np.array(
            [finite_diff_gradient(f, kern.theta(), h) for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
        )
        err = np.min(np.abs(numeric - grad), axis=0)
        np.testing.assert_array_less(err, 1e-3 * np.maximum(1.0, np.abs(grad)))


def evidence_through_solve_triangular(model, data) -> tuple[float, bool]:
    """log_evidence's arithmetic with its triangular solve done by
    ``scipy.linalg.solve_triangular``, and whether the factor was jittered."""
    cov = noisy_kernel_matrix(model, data.X)
    factor, used = chol_spd(cov, "output covariance")
    z = solve_triangular(factor, data.y, lower=True, check_finite=False)
    value = -0.5 * (data.n * float(np.log(2.0 * np.pi)) + z @ z) - np.sum(np.log(np.diag(factor)))
    return float(value), not np.array_equal(used, cov)


class TestEvidenceBits:
    """log_evidence calls LAPACK's triangular solve itself; it must give the
    bits that scipy's wrapper gives."""

    @pytest.mark.parametrize("n", [1, 64, 128])
    def test_equals_the_solve_triangular_route(self, n):
        rng = np.random.default_rng(n)
        for structure in KernelStructure:
            model = random_kernel(rng, structure.value)
            data = Dataset(rng.uniform(-3.0, 3.0, (1, n)), rng.standard_normal(n))
            expected, jittered = evidence_through_solve_triangular(model, data)
            assert not jittered
            assert log_evidence(model, data) == expected

    def test_equals_the_solve_triangular_route_on_a_jittered_factor(self):
        model, data = TestJitteredFactor._instance(3e-8)
        expected, jittered = evidence_through_solve_triangular(model, data)
        assert jittered
        assert log_evidence(model, data) == expected


class TestJitteredFactor:
    """Both objectives at an output covariance that only a jitter rung factors."""

    @staticmethod
    def _instance(margin):
        # a periodic Gram is indefinite on 2-D inputs; the noise is chosen so that
        # K + sigma_n^2 I has smallest eigenvalue -margin * (mean diagonal entry)
        x = np.random.default_rng(0).uniform(-2.0, 2.0, (2, 10))
        model = KernelSpec.create("per", lengthscale=1.0, period=2.0, signal=1.0, noise=1.0)
        smallest = np.linalg.eigvalsh(kernel_matrix(model, x, x))[0]
        noise = math.sqrt((-smallest - margin) / (1.0 + margin))
        model = KernelSpec.create("per", lengthscale=1.0, period=2.0, signal=1.0, noise=noise)
        return model, Dataset(x, np.sin(2.0 * x[0]) + x[1])

    @pytest.mark.parametrize("margin,scale", [(3e-8, 1e-7), (3e-7, 1e-6)])
    @pytest.mark.parametrize("objective", ["evidence", "loo"])
    def test_value_and_gradient_match_explicit_inverses(self, margin, scale, objective):
        model, data = self._instance(margin)
        cov = noisy_kernel_matrix(model, data.X)
        _, used = chol_spd(cov)
        # the factored matrix is the covariance plus the jitter of the expected rung
        base = np.trace(cov) / data.n
        np.testing.assert_allclose(np.diag(used) - np.diag(cov), scale * base, rtol=1e-6)
        if objective == "evidence":
            value, grad_fn = log_evidence_and_grad(model, data)
            ref_value, ref_grad = log_evidence_oracle(used, data.y), evidence_gradient_oracle(model, data, used)
        else:
            value, grad_fn = loo_cv_and_grad(model, data)
            ref_value, ref_grad = loo_oracle(model, data, used)
        # both routes invert the jittered matrix, so each is good to about n cond eps
        rtol = max(1e-8, data.n * np.linalg.cond(used) * np.finfo(float).eps)
        assert value == pytest.approx(ref_value, rel=rtol)
        grad = grad_fn()
        assert np.max(np.abs(grad - ref_grad)) <= rtol * max(1.0, float(np.max(np.abs(ref_grad))))


class TestPredict:
    def test_noiseless_interpolation(self):
        model = se_model(sn=0.0)
        data = Dataset([[0.0, 1.0, 2.5]], [0.3, -0.4, 0.9])
        pred = predict(model, data, [[1.0]])
        assert pred.mean[0] == pytest.approx(-0.4, abs=1e-8)
        assert pred.cov[0, 0] <= 1e-8

    def test_far_from_data_reverts_to_prior(self):
        model = se_model(sf=1.3, sn=0.2)
        data = Dataset([[0.0, 1.0]], [0.5, 0.7])
        pred = predict(model, data, [[40.0]])
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-10)
        assert pred.cov[0, 0] == pytest.approx(1.3**2 + 0.04, rel=1e-10)

    def test_matches_conditioning_on_joint(self):
        rng = np.random.default_rng(7)
        model, data = random_gp_instance(rng)
        xstar = rng.uniform(0, 6, (1, 3))
        pred = predict(model, data, xstar)
        cross = kernel_matrix(model, data.X, xstar)
        gain = np.linalg.solve(noisy_kernel_matrix(model, data.X), cross)
        np.testing.assert_allclose(pred.mean, gain.T @ data.y, atol=1e-10)
        np.testing.assert_allclose(
            pred.cov, noisy_kernel_matrix(model, xstar) - cross.T @ gain, atol=1e-10
        )

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(8)
        for structure in ("se", "rq", "exp", "per"):
            model, data = random_gp_instance(rng, structure=structure)
            xstar = rng.uniform(0, 6, (1, 5))
            pred = predict(model, data, xstar)
            prior_var = kernel_matrix(model, xstar[:, :1], xstar[:, :1])[0, 0]
            prior_var += model.noise_variance
            assert np.max(np.diag(pred.cov)) <= prior_var + 1e-8

    def test_adding_a_point_never_inflates_variance(self):
        rng = np.random.default_rng(9)
        model, data = random_gp_instance(rng, n_lo=8, n_hi=8)
        xstar = rng.uniform(0, 6, (1, 1))
        var_small = predict(
            model, Dataset(data.X[:, :-1], data.y[:-1]), xstar
        ).cov[0, 0]
        var_full = predict(model, data, xstar).cov[0, 0]
        assert var_full <= var_small + 1e-8


class TestMsll:
    def test_baseline_predictive_scores_zero(self):
        train_y = np.array([0.2, 0.8, -0.3, 1.1])
        y_test = np.array([0.0, 0.5])
        base_mean, base_var = np.full(2, train_y.mean()), np.full(2, np.var(train_y))
        assert msll(base_mean, base_var, y_test, train_y) == pytest.approx(0.0, abs=1e-12)

    def test_sharp_centered_predictive_is_negative(self):
        train_y = np.array([0.0, 2.0, -2.0, 1.0])
        y_test = np.array([0.5, -0.5])
        assert msll(y_test, np.full(2, 0.01), y_test, train_y) < 0

    def test_two_point_hand_computation(self):
        train_y = np.array([1.0, 3.0])  # mean 2, population variance 1
        y_test = np.array([2.0, 4.0])
        by_hand = 0.0
        for y, m, v in zip(y_test, [2.5, 3.5], [0.25, 4.0]):
            by_hand += 0.5 * (math.log(2 * math.pi * v) + (y - m) ** 2 / v)
            by_hand -= 0.5 * (math.log(2 * math.pi * 1.0) + (y - 2.0) ** 2 / 1.0)
        value = msll(np.array([2.5, 3.5]), np.array([0.25, 4.0]), y_test, train_y)
        assert value == pytest.approx(by_hand / 2, rel=1e-12)

    def test_zero_variance_baseline_raises(self):
        with pytest.raises(DegenerateBaseline):
            msll([0.0], [1.0], [0.0], np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "mean, var, y_test", [([0.0], [1.0, 1.0], [0.0]), ([0.0, 0.0], [1.0], [0.0]), ([0.0], [1.0], [0.0, 1.0])]
    )
    def test_length_mismatch_raises(self, mean, var, y_test):
        with pytest.raises(ValueError, match="test outputs"):
            msll(mean, var, y_test, np.array([0.0, 2.0]))
