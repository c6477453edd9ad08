import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from _oracles import (
    log_integral_1d,
    log_integral_2d,
    mvn_logpdf,
    normal_logpdf,
    random_spd,
)
from gpselect import (
    GaussianDist,
    SingularCovariance,
    log_product_integral,
    maxent_linear_map_posterior,
)
from gpselect.gaussian import chol_spd, condition

LOG_2PI = math.log(2.0 * math.pi)


def std_normal(n=1):
    """(precision, shift) of the standard normal in n dimensions."""
    return np.eye(n), np.zeros(n)


class TestCholSpd:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_singular(self, bad):
        # np.linalg.cholesky returns NaN for a NaN input instead of raising
        mat = np.eye(2)
        mat[1, 0] = mat[0, 1] = bad
        with pytest.raises(SingularCovariance):
            chol_spd(mat)
        with pytest.raises(SingularCovariance):
            chol_spd(np.array([[bad]]))


def old_ladder(mat):
    """chol_spd as it was: symmetrize, then add each rung's jitter times the identity."""
    sym = 0.5 * (mat + mat.T)
    n = sym.shape[0]
    base = np.trace(sym) / n
    for scale in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        shifted = sym if scale == 0.0 else sym + (scale * base) * np.eye(n)
        try:
            return np.linalg.cholesky(shifted), shifted, scale
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("ladder exhausted")


class TestJitterLadder:
    @pytest.mark.parametrize("scale", [0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_each_rung_is_bit_identical_to_the_symmetrizing_route(self, scale):
        # smallest eigenvalue about -scale/2 times the mean diagonal entry: this
        # rung factors the matrix and the rung below does not
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        eigs = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.0])
        eigs[-1] = 0.5 if scale == 0.0 else -0.5 * scale * eigs.mean()
        mat = (q * eigs) @ q.T
        mat = 0.5 * (mat + mat.T)  # bit-symmetric, as every caller passes
        ref_factor, ref_used, ref_scale = old_ladder(mat)
        assert ref_scale == scale
        factor, used = chol_spd(mat)
        assert factor.tobytes() == ref_factor.tobytes()
        assert used.tobytes() == ref_used.tobytes()
        assert mat.tobytes() == (0.5 * (mat + mat.T)).tobytes()  # the input is left as it was


class TestCondition:
    def test_zero_cross_block_is_identity(self):
        rng = np.random.default_rng(3)
        cov_target = random_spd(rng, 2)
        cond = condition(np.array([[np.sqrt(2.0)]]), np.zeros((1, 2)), cov_target, [7.0])
        np.testing.assert_allclose(cond.mean, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cond.cov, cov_target, atol=1e-14)

    def test_bivariate_textbook_case(self):
        rho, u0 = 0.5, 2.0
        cond = condition(np.array([[1.0]]), np.array([[rho]]), np.array([[1.0]]), [u0])
        assert cond.mean[0] == pytest.approx(1.0, abs=1e-13)
        assert cond.cov[0, 0] == pytest.approx(0.75, abs=1e-13)

    def test_matches_joint_over_marginal_ratio(self):
        rng = np.random.default_rng(4)
        m, n = 3, 2
        full = random_spd(rng, m + n)  # targets first, then observed
        obs = rng.uniform(-1, 1, n)
        factor = np.linalg.cholesky(full[m:, m:])
        cond = condition(factor, full[m:, :m], full[:m, :m], obs)
        log_marg = mvn_logpdf(obs, np.zeros(n), full[m:, m:])
        for _ in range(5):
            t = rng.uniform(-2, 2, m)
            log_joint = mvn_logpdf(np.concatenate([t, obs]), np.zeros(m + n), full)
            got = mvn_logpdf(t, cond.mean, cond.cov)
            assert got == pytest.approx(log_joint - log_marg, abs=1e-8)

    def test_singular_bottom_block_raises_with_pivot(self):
        # callers factor the observed block with chol_spd before conditioning
        bottom = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularCovariance) as excinfo:
            chol_spd(bottom, "bottom-block covariance")
        pivot = excinfo.value.smallest_pivot
        assert pivot is not None
        assert pivot < 0
        assert f"(smallest pivot {pivot:.3e})" in str(excinfo.value)


def info_form(mean, cov):
    """(precision, shift) of N(mean, cov) by explicit inverse."""
    precision = np.linalg.inv(cov)
    return precision, precision @ np.asarray(mean, dtype=float)


def one(arr):
    """``arr`` as a stack of one, J=1."""
    return np.asarray(arr, dtype=float)[None]


def single_integral(components):
    """log_product_integral of one problem, called as a J=1 stack."""
    return log_product_integral([(one(lam), one(r)) for lam, r in components])[0]


def single_maxent(a, mu, sigma):
    """maxent_linear_map_posterior of one problem, called as a J=1 stack."""
    lam, r = maxent_linear_map_posterior(one(a), one(mu), one(sigma))
    return lam[0], r[0]


class TestProductIntegral:
    def test_single_component_integrates_to_one(self):
        rng = np.random.default_rng(7)
        comp = info_form(rng.uniform(-1, 1, 3), random_spd(rng, 3))
        assert single_integral([comp]) == pytest.approx(0.0, abs=1e-10)

    def test_two_standard_normals(self):
        value = single_integral([std_normal(), std_normal()])
        expected = log_integral_1d(
            lambda f: 2 * (-0.5 * (LOG_2PI + f * f)), -10.0, 10.0
        )
        assert value == pytest.approx(math.log(1.0 / (2.0 * math.sqrt(math.pi))), abs=1e-12)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_three_standard_normals(self):
        value = single_integral([std_normal()] * 3)
        assert math.exp(value) == pytest.approx(0.091888, abs=1e-6)
        expected = log_integral_1d(
            lambda f: 3 * (-0.5 * (LOG_2PI + f * f)), -10.0, 10.0
        )
        assert value == pytest.approx(expected, abs=1e-8)

    def test_random_instances_match_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            moments = [
                (float(rng.uniform(-1.5, 1.5)), float(random_spd(rng, 1)[0, 0])) for _ in range(k)
            ]

            def log_f(f):
                return float(sum(normal_logpdf(f, m, v) for m, v in moments))

            lo = min(m - 12 * math.sqrt(v) for m, v in moments)
            hi = max(m + 12 * math.sqrt(v) for m, v in moments)
            expected = log_integral_1d(log_f, lo, hi)
            comps = [info_form([m], [[v]]) for m, v in moments]
            assert abs(single_integral(comps) - expected) < 1e-6

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            log_product_integral([])

    def test_non_finite_precision_gives_non_finite_value(self):
        # counted as a failed partition by average_log_eta, not raised
        assert not np.isfinite(single_integral([(np.array([[np.nan]]), np.zeros(1))]))

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            single_integral([std_normal(1), std_normal(2)])


class TestMaxentLinearMap:
    def test_identity_map(self):
        rng = np.random.default_rng(10)
        mu = rng.uniform(-1, 1, 3)
        lam, r = single_maxent(np.eye(3), mu, np.eye(3))
        np.testing.assert_allclose(lam, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(r, mu, atol=1e-12)

    def test_scalar_map(self):
        # N(2x | 4, 1) normalizes to N(x | 2, 1/4): precision 4, shift 4 * 2
        lam, r = single_maxent([[2.0]], [4.0], [[1.0]])
        assert lam[0, 0] == pytest.approx(4.0, abs=1e-13)
        assert r[0] == pytest.approx(8.0, abs=1e-13)

    def test_wide_map_matches_normalized_density(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 5))
        mu = rng.uniform(-1, 1, 5)
        sigma = random_spd(rng, 5)
        lam, r = single_maxent(a, mu, sigma)
        cov = np.linalg.inv(lam)
        mean = cov @ r

        def log_unnorm(pts):
            devs = a.T @ pts - mu[:, None]
            inv = np.linalg.inv(sigma)
            quad_forms = np.einsum("ig,ij,jg->g", devs, inv, devs)
            _, logdet = np.linalg.slogdet(sigma)
            return -0.5 * (5 * LOG_2PI + logdet + quad_forms)

        sds = np.sqrt(np.diag(cov))
        log_z = log_integral_2d(log_unnorm, mean - 10 * sds, mean + 10 * sds, n_nodes=240)
        # the normalized likelihood matches N(mean, cov) pointwise
        for _ in range(5):
            x = mean + rng.uniform(-2, 2, 2) * sds
            expected = float(log_unnorm(x[:, None])[0]) - log_z
            assert mvn_logpdf(x, mean, cov) == pytest.approx(expected, abs=1e-6)

    def test_output_covariance_is_spd(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            a = rng.standard_normal((m, n))
            lam, _ = single_maxent(a, rng.uniform(-1, 1, n), random_spd(rng, n))
            np.linalg.cholesky(np.linalg.inv(lam))  # raises if not SPD

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            single_maxent(np.ones((3, 2)), np.zeros(2), np.eye(2))

    def test_rank_deficient_map_gives_nan(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) * 1e8  # rank 1, jitter cannot mask
        lam, r = single_maxent(a, np.zeros(3), np.eye(3))
        assert np.isnan(single_integral([(lam, r)]))


def random_stack(rng, j=5, m=2, n=6):
    """A (J, m, n) map, (J, n) outputs and (J, n, n) SPD noise covariances."""
    a = rng.standard_normal((j, m, n))
    mu = rng.uniform(-1, 1, (j, n))
    sigma = np.stack([random_spd(rng, n) for _ in range(j)])
    return a, mu, sigma


class TestBatchAxis:
    # every slice of a stack equals the J=1 call on that 2-D slice alone,
    # NaN slices included; an unstacked argument is rejected

    def test_maxent_slices_match_2d_calls(self):
        a, mu, sigma = random_stack(np.random.default_rng(13))
        lam, r = maxent_linear_map_posterior(a, mu, sigma)
        assert lam.shape == (5, 2, 2) and r.shape == (5, 2)
        for k in range(5):
            lam_k, r_k = single_maxent(a[k], mu[k], sigma[k])
            np.testing.assert_allclose(lam[k], lam_k, rtol=1e-14, atol=0)
            np.testing.assert_allclose(r[k], r_k, rtol=1e-14, atol=0)

    def test_maxent_singular_slice_is_nan(self):
        a, mu, sigma = random_stack(np.random.default_rng(14))
        sigma[2] = np.array([[1.0, 2.0], [2.0, 1.0]]).repeat(3, 0).repeat(3, 1)  # indefinite
        with pytest.raises(SingularCovariance):
            chol_spd(sigma[2])
        lam, r = maxent_linear_map_posterior(a, mu, sigma)
        assert np.isnan(lam[2]).all() and np.isnan(r[2]).all()
        lam_2, r_2 = single_maxent(a[2], mu[2], sigma[2])
        assert np.isnan(lam_2).all() and np.isnan(r_2).all()
        for k in (0, 1, 3, 4):
            lam_k, r_k = single_maxent(a[k], mu[k], sigma[k])
            np.testing.assert_allclose(lam[k], lam_k, rtol=1e-14, atol=0)
            np.testing.assert_allclose(r[k], r_k, rtol=1e-14, atol=0)

    def test_maxent_jittered_slice_matches_2d_call(self):
        # rank-1 plus a sliver of diagonal: only that slice takes the ladder
        a, mu, sigma = random_stack(np.random.default_rng(15), n=2)
        sigma[1] = np.ones((2, 2)) + 1e-17 * np.eye(2)
        lam, r = maxent_linear_map_posterior(a, mu, sigma)
        lam_1, r_1 = single_maxent(a[1], mu[1], sigma[1])
        np.testing.assert_allclose(lam[1], lam_1, rtol=1e-12)
        np.testing.assert_allclose(r[1], r_1, rtol=1e-12)
        # and both equal the normalized likelihood under chol_spd's jittered factor
        factor, _ = chol_spd(sigma[1])
        b_map = solve_triangular(factor, a[1].T, lower=True)
        b_vec = solve_triangular(factor, mu[1], lower=True)
        np.testing.assert_allclose(lam[1], b_map.T @ b_map, rtol=1e-12)
        np.testing.assert_allclose(r[1], b_map.T @ b_vec, rtol=1e-12)

    def test_product_integral_slices_match_2d_calls(self):
        rng = np.random.default_rng(16)
        comps = [
            (np.stack([random_spd(rng, 2) for _ in range(4)]), rng.uniform(-1, 1, (4, 2)))
            for _ in range(3)
        ]
        values = log_product_integral(comps)
        assert values.shape == (4,)
        for k in range(4):
            expected = single_integral([(lam[k], r[k]) for lam, r in comps])
            assert values[k] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_product_integral_rank_deficient_slice_is_nan(self):
        rng = np.random.default_rng(17)
        lam = np.stack([random_spd(rng, 2) for _ in range(3)])
        lam[1] = np.ones((2, 2)) * 1e8  # rank 1
        comps = [(lam, np.zeros((3, 2))), (np.stack([np.eye(2)] * 3), np.zeros((3, 2)))]
        values = log_product_integral(comps)
        assert np.isnan(values[1])
        singles = [single_integral([(c[0][k], c[1][k]) for c in comps]) for k in range(3)]
        np.testing.assert_array_equal(values, singles)  # NaN where values is NaN

    def test_batched_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            log_product_integral(
                [(np.ones((3, 2, 2)), np.zeros((3, 2))), (np.ones((2, 2, 2)), np.zeros((2, 2)))]
            )
        # one covariance for a stack of two maps would be broadcast, not rejected
        a, mu, sigma = random_stack(np.random.default_rng(18), j=2)
        for args in ((a, mu, sigma[:1]), (a, mu[:1], sigma), (a, mu[:, :5], sigma[:, :5, :5])):
            with pytest.raises(ValueError, match="stack"):
                maxent_linear_map_posterior(*args)

    def test_unstacked_arguments_rejected(self):
        # a 2-D precision or map would otherwise be read as a stack of rows
        with pytest.raises(ValueError, match="stack"):
            log_product_integral([std_normal(2)])
        with pytest.raises(ValueError, match="stack"):
            log_product_integral([(np.eye(2)[None], np.zeros(2))])
        with pytest.raises(ValueError, match="stack"):
            maxent_linear_map_posterior(np.eye(2), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="stack"):
            maxent_linear_map_posterior(one(np.eye(2)), one(np.zeros(2)), np.eye(2))


class TestGaussianDistValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            GaussianDist.from_moments(np.zeros(2), cov)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianDist.from_moments(np.zeros(2), np.eye(3))

    def test_indefinite_covariance_raises_singular(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularCovariance):
            GaussianDist.from_moments(np.zeros(2), cov)

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        cov = random_spd(np.random.default_rng(2), 3)
        cov[0, 1] += 1e-12
        d = GaussianDist.from_moments(np.zeros(3), cov)
        np.testing.assert_array_equal(d.cov, 0.5 * (cov + cov.T))
        np.testing.assert_array_equal(d.chol, np.linalg.cholesky(0.5 * (cov + cov.T)))

    def test_symmetric_covariance_factored_as_given(self):
        cov = random_spd(np.random.default_rng(3), 5)
        cov = np.tril(cov) + np.tril(cov, -1).T  # bit-symmetric
        d = GaussianDist.from_moments(np.zeros(5), cov)
        np.testing.assert_array_equal(d.cov, cov)
        np.testing.assert_array_equal(d.chol, np.linalg.cholesky(cov))

    def test_chol_reconstructs_cov(self):
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 4)
        d = GaussianDist.from_moments(np.zeros(4), cov)
        np.testing.assert_allclose(d.chol @ d.chol.T, d.cov, rtol=1e-8)
        assert np.all(np.diag(d.chol) > 0)

    def test_near_singular_rescued_by_jitter(self):
        # rank-1 plus a sliver of diagonal: jitter ladder should rescue it
        v = np.array([1.0, 1.0])
        cov = np.outer(v, v) + 1e-9 * np.eye(2)
        d = GaussianDist.from_moments(np.zeros(2), cov)
        assert np.all(np.diag(d.chol) > 0)
