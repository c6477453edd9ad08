import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.stats import multivariate_normal

from _oracles import closed_form_kernel, gram_partials_oracle, old_noise_accepted, old_params_accepted
from gpselect import Dataset, KernelSpec, KernelStructure, kernel_matrix, log_evidence, noisy_kernel_matrix
from gpselect.kernels import PARAM_NAMES, gram_and_partials, pairwise_sq_dists

ALL_STRUCTURES = [s.value for s in KernelStructure]


def make_spec(structure, **overrides):
    base = dict(lengthscale=1.0, signal=1.0, noise=0.0, alpha=1.3, period=2.0)
    base.update(overrides)
    return KernelSpec.create(structure, **base)


class TestFormulas:
    def test_se_same_point(self):
        spec = make_spec("se")
        assert kernel_matrix(spec, [[0.0]], [[0.0]])[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_se_unit_distance(self):
        spec = make_spec("se")
        got = kernel_matrix(spec, [[0.0]], [[1.0]])[0, 0]
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_rq_large_alpha_approaches_se(self):
        rq = make_spec("rq", alpha=1e6)
        se = make_spec("se")
        got = kernel_matrix(rq, [[0.0]], [[1.0]])[0, 0]
        expected = kernel_matrix(se, [[0.0]], [[1.0]])[0, 0]
        assert abs(got - expected) < 1e-5

    def test_exponential_direct(self):
        spec = make_spec("exp", lengthscale=2.0, signal=3.0)
        got = kernel_matrix(spec, [[0.0]], [[2.0]])[0, 0]
        assert got == pytest.approx(9.0 * math.exp(-1.0), rel=1e-12)

    def test_periodic_wraps_at_period(self):
        spec = make_spec("per", period=2.0)
        sf2 = 1.0
        at_period = kernel_matrix(spec, [[0.0]], [[2.0]])[0, 0]
        assert at_period == pytest.approx(sf2, rel=1e-12)
        half = kernel_matrix(spec, [[0.0]], [[1.0]])[0, 0]
        assert half == pytest.approx(math.exp(-2.0), rel=1e-12)


class TestClosedForms:
    """Each Gram bit for bit against its closed form as the benchmark's output
    check writes it; the check's NaN-or-finite verdicts at a jitter-rung
    boundary rest on the two agreeing."""

    LOG_PARAMS = {
        "se": [(0.0, 0.0), (-1.3, 0.7), (2.1, -0.4)],
        "rq": [(0.0, 0.0, 0.0), (-1.0, 0.5, -2.0), (1.5, -0.3, 3.0)],
        "exp": [(0.0, 0.0), (-2.0, 1.1), (1.7, -0.6)],
        "per": [(0.0, 0.4, 0.0), (-0.8, -1.2, 0.9), (1.2, 2.5, -0.5)],
    }

    @pytest.mark.parametrize("dim", [1, 6])
    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_kernel_matrix_is_the_closed_form_bit_for_bit(self, structure, dim):
        rng = np.random.default_rng(40 + dim)
        xa, xb = rng.uniform(-3.0, 3.0, (dim, 9)), rng.uniform(-3.0, 3.0, (dim, 7))
        for log_params in self.LOG_PARAMS[structure]:
            spec = KernelSpec(structure, np.array(log_params), -1.3)
            for a, b in ((xa, xa), (xa, xb)):
                expected = closed_form_kernel(structure, log_params, a, b)
                assert kernel_matrix(spec, a, b).tobytes() == expected.tobytes()
            noisy = closed_form_kernel(structure, log_params, xa, xa) + spec.noise_variance * np.eye(9)
            assert noisy_kernel_matrix(spec, xa).tobytes() == noisy.tobytes()


class TestNoisyMatrix:
    def test_zero_noise_equals_plain(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 4, (2, 5))
        spec = make_spec("se")
        np.testing.assert_array_equal(noisy_kernel_matrix(spec, x), kernel_matrix(spec, x, x))

    def test_single_point_value(self):
        spec = make_spec("se", noise=0.5)
        np.testing.assert_allclose(noisy_kernel_matrix(spec, [[0.3]]), [[1.25]], rtol=1e-14)

    def test_minimum_eigenvalue_at_least_noise(self):
        rng = np.random.default_rng(2)
        for structure in ALL_STRUCTURES:
            spec = make_spec(structure, noise=0.3)
            x = rng.uniform(0, 5, (1, 12))
            eigs = np.linalg.eigvalsh(noisy_kernel_matrix(spec, x))
            assert eigs.min() >= 0.09 - 1e-10


class TestMatrixProperties:
    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_symmetric_and_psd_on_random_inputs(self, structure):
        # the periodic kernel is a function of the distance and is only
        # guaranteed PSD for 1-D inputs; the radial kernels hold in any D
        rng = np.random.default_rng(ALL_STRUCTURES.index(structure))
        spec = make_spec(structure, lengthscale=0.8, signal=1.2)
        max_d = 1 if structure == "per" else 3
        for _ in range(50):
            d = int(rng.integers(1, max_d + 1))
            x = rng.uniform(-3, 3, (d, int(rng.integers(2, 9))))
            gram = kernel_matrix(spec, x, x)
            np.testing.assert_array_equal(gram, gram.T)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8 * np.trace(gram)

    @pytest.mark.xfail(strict=True, reason="sin^2 of the Euclidean distance is not PSD for D > 1")
    def test_periodic_psd_in_two_dimensions(self):
        rng = np.random.default_rng(0)
        spec = make_spec("per", lengthscale=0.8, signal=1.2)
        for _ in range(50):
            x = rng.uniform(-3, 3, (2, 8))
            gram = kernel_matrix(spec, x, x)
            assert np.linalg.eigvalsh(gram).min() >= -1e-8 * np.trace(gram)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_gram_exactly_symmetric_in_ten_dimensions(self, structure):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (10, 64))
        gram = kernel_matrix(make_spec(structure), x, x)
        np.testing.assert_array_equal(gram, gram.T)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_partials_match_central_differences(self, structure):
        rng = np.random.default_rng(6)
        spec = make_spec(structure, noise=0.1)
        h = 1e-6
        for dim in (1, 2, 3):
            x = rng.uniform(0, 4, (dim, 7))
            partials = gram_and_partials(spec, pairwise_sq_dists(x, x))[1]()
            assert len(partials) == spec.log_params.size
            oracle = gram_partials_oracle(spec, Dataset(x, np.zeros(7)))[:-1]  # without the noise
            for k, partial in enumerate(partials):
                np.testing.assert_allclose(partial, oracle[k], rtol=1e-10, atol=0.0)
                step = np.zeros(spec.log_params.size)
                step[k] = h
                up = KernelSpec(spec.structure, spec.log_params + step, spec.log_noise)
                down = KernelSpec(spec.structure, spec.log_params - step, spec.log_noise)
                numeric = (kernel_matrix(up, x, x) - kernel_matrix(down, x, x)) / (2.0 * h)
                np.testing.assert_allclose(partial, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_cross_matrix_transposes_exactly(self, structure):
        rng = np.random.default_rng(3)
        spec = make_spec(structure)
        xa = rng.uniform(0, 5, (2, 4))
        xb = rng.uniform(0, 5, (2, 6))
        np.testing.assert_array_equal(
            kernel_matrix(spec, xa, xb), kernel_matrix(spec, xb, xa).T
        )

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_stationarity_under_translation(self, structure):
        rng = np.random.default_rng(4)
        spec = make_spec(structure)
        x = rng.uniform(0, 5, (2, 6))
        offset = rng.uniform(-2, 2, (2, 1))
        base = kernel_matrix(spec, x, x)
        shifted = kernel_matrix(spec, x + offset, x + offset)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_signal_scaling_is_quadratic(self, structure):
        # exact up to one ulp: the signal parameter round-trips through log space
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 5, (1, 5))
        base = kernel_matrix(make_spec(structure, signal=1.0), x, x)
        scaled = kernel_matrix(make_spec(structure, signal=3.0), x, x)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-14)


class TestPartialsWellDefined:
    # Log values anywhere inside the optimizer's |theta| <= 300 guard. A
    # partial may still overflow where the Gram is huge (log signal ~ 250),
    # since its exact value exceeds the float range; it must never be NaN.
    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    @given(log_params=st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=3))
    @example(log_params=[-272.4, -261.4, -21.0])  # where a periodic evidence fit met a NaN partial
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_no_nan_wherever_gram_is_finite(self, structure, log_params):
        x = np.random.default_rng(0).uniform(0, 10, (1, 16))
        spec = KernelSpec(structure, np.array(log_params[: len(make_spec(structure).log_params)]), 0.0)
        with np.errstate(all="ignore"):
            gram, partials = gram_and_partials(spec, pairwise_sq_dists(x, x))
        for partial in partials():
            assert not np.isnan(partial[np.isfinite(gram)]).any()
            # an underflowed Gram entry has the exact limit 0 as its partial
            assert np.all(partial[gram == 0.0] == 0.0)


class TestRqUnderflow:
    # log lengthscale = log alpha = -300 puts 2 alpha ell^2 below the float
    # range; alpha log(1 + u) still tends to 0, so every entry tends to the
    # signal variance 1 (the diagonal was NaN, 0/0, and the rest 0)
    LOG_PARAMS = np.array([-300.0, 0.0, -300.0])

    def points(self):
        return np.random.default_rng(0).uniform(0, 10, (1, 16))

    def test_gram_is_its_exact_limit(self):
        spec = KernelSpec("rq", self.LOG_PARAMS, 0.0)
        np.testing.assert_array_equal(kernel_matrix(spec, self.points(), self.points()), 1.0)

    def test_partials_match_extended_precision(self):
        x = self.points()
        spec = KernelSpec("rq", self.LOG_PARAMS, 0.0)
        sq = pairwise_sq_dists(x, x)
        partials = gram_and_partials(spec, sq)[1]()
        with mpmath.workdps(50):
            ell, alpha = mpmath.e ** -300, mpmath.e ** -300
            for i, j in [(0, 0), (0, 1), (3, 11)]:
                u = mpmath.mpf(sq[i, j]) / (2 * alpha * ell**2)
                gram = (1 + u) ** (-alpha)
                ratio = u / (1 + u)
                expected = [2 * alpha * gram * ratio, 2 * gram, alpha * gram * (ratio - mpmath.log1p(u))]
                for partial, exact in zip(partials, expected):
                    assert partial[i, j] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_evidence_is_finite(self):
        x = self.points()
        y = np.random.default_rng(1).standard_normal(16)
        spec = KernelSpec("rq", self.LOG_PARAMS, 0.0)  # sigma_n = 1
        expected = multivariate_normal(np.zeros(16), np.ones((16, 16)) + np.eye(16)).logpdf(y)
        assert log_evidence(spec, Dataset(x, y)) == pytest.approx(expected, rel=1e-12)


class TestSpecValidation:
    def test_param_count_enforced(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelStructure.SQUARED_EXPONENTIAL, np.zeros(3), 0.0)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelStructure.SQUARED_EXPONENTIAL, np.array([np.inf, 0.0]), 0.0)

    @staticmethod
    def edge_values():
        """Non-finite values, signed zeros, +-300, and the floats next to log(float max),
        where exp starts to overflow."""
        top = np.log(np.finfo(float).max)
        near = [top]
        for direction in (np.inf, -np.inf):
            value = top
            for _ in range(3):
                value = np.nextafter(value, direction)
                near.append(value)
        # the overflow boundary lies among them
        with np.errstate(over="ignore"):
            assert {old_params_accepted([v]) for v in near} == {True, False}
        return [np.nan, np.inf, -np.inf, 0.0, -0.0, 300.0, -300.0, *near]

    @staticmethod
    def outcome(check):
        """(accepted, warnings raised) of ``check()``, which returns a bool or raises ValueError."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                accepted = check() is not False
            except ValueError:
                accepted = False
        return accepted, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("structure", ["se", "rq"])
    def test_params_accepted_exactly_as_by_the_whole_array_check(self, structure):
        size = len(PARAM_NAMES[KernelStructure(structure)])
        for combo in itertools.product(self.edge_values(), repeat=size):
            params = np.array(combo)
            expected = self.outcome(lambda: old_params_accepted(params))
            assert self.outcome(lambda: KernelSpec(structure, params, 0.0)) == expected, combo

    def test_noise_accepted_exactly_as_by_the_old_check(self):
        for value in self.edge_values():
            expected = self.outcome(lambda: old_noise_accepted(value))
            assert self.outcome(lambda: KernelSpec("se", np.zeros(2), value)) == expected, value
        assert KernelSpec("se", np.zeros(2), -np.inf).noise_variance == 0.0
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="log-noise"):
                KernelSpec("se", np.zeros(2), value)

    def test_missing_structure_param_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.create("rq", lengthscale=1.0, signal=1.0, noise=0.1)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.create("se", lengthscale=-1.0, signal=1.0, noise=0.1)

    @pytest.mark.parametrize("noise", [-0.1, float("nan")])
    def test_invalid_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=noise)

    def test_zero_noise_allowed(self):
        spec = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=0.0)
        assert spec.noise_variance == 0.0

    def test_theta_roundtrip(self):
        spec = KernelSpec.create("rq", lengthscale=0.5, signal=2.0, noise=0.1, alpha=1.5)
        rebuilt = spec.with_theta(spec.theta())
        np.testing.assert_array_equal(rebuilt.log_params, spec.log_params)
        assert rebuilt.log_noise == spec.log_noise

    def test_serialized_names(self):
        assert [s.value for s in KernelStructure] == ["se", "rq", "exp", "per"]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(make_spec("se"), np.zeros((2, 3)), np.zeros((3, 3)))
