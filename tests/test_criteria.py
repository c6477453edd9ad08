import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from _oracles import (
    dense_log_eta,
    half_posterior,
    maxent_half_moments,
    oracle_log_eta_bayesian_1d,
    oracle_log_eta_bayesian_2d,
    oracle_log_eta_beta_noise_1d,
    oracle_log_eta_beta_noise_2d,
    random_gp_instance,
    split_partition_indices,
)
from gpselect import (
    AllPartitionsFailed,
    AscConfig,
    Criterion,
    Dataset,
    InsufficientData,
    KernelSpec,
    KernelStructure,
    Partitions,
    average_log_eta,
    kernel_matrix,
    maxent_linear_map_posterior,
    noisy_kernel_matrix,
    sample_partitions,
    sample_synthetic,
)
from gpselect import criteria


ASC_CRITERIA = [c for c in Criterion if c.is_asc]


def log_eta(model, data, parts, variant=Criterion.BAYESIAN_ASC):
    """A one-row set's log agreement, which average_log_eta passes through exactly."""
    return average_log_eta(model, data, parts, variant).value


def one_partition(idx1, idx2, anchors):
    return Partitions([idx1], [idx2], [anchors])


def random_partitions(rng, n, m=1, count=1):
    """``count`` rows, each drawn as its halves and then its anchors."""
    draws = [
        (*split_partition_indices(rng, n), np.sort(rng.choice(n, size=m, replace=False)))
        for _ in range(count)
    ]
    return Partitions(*zip(*draws))


def take(parts, index):
    """The set of rows ``index`` of ``parts``, in that order."""
    return Partitions(parts.idx1[index], parts.idx2[index], parts.anchors[index])


def rows(parts):
    """Each row of ``parts`` as its own one-row set."""
    return [take(parts, [j]) for j in range(len(parts))]


def swap(parts):
    return Partitions(parts.idx2, parts.idx1, parts.anchors)


def dense_m2_instance(rng, structure="se"):
    """Anchors separated and covered by both halves, for tensor quadrature."""
    n = 12
    x = (np.arange(n) * 0.35 + rng.uniform(-0.05, 0.05, n)).reshape(1, -1)
    kern = KernelSpec.create(
        structure,
        lengthscale=float(rng.uniform(0.8, 1.4)),
        signal=float(rng.uniform(0.8, 1.3)),
        noise=float(rng.uniform(0.25, 0.6)),
        alpha=1.5,
        period=3.0,
    )
    gram = kernel_matrix(kern, x, x)
    f = np.linalg.cholesky(gram + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = f + float(np.exp(kern.log_noise)) * rng.standard_normal(n)
    data = Dataset(x, y)
    # interleave so each half covers the whole input range
    order = np.argsort(x[0])
    idx1, idx2 = np.sort(order[0::2]), np.sort(order[1::2])
    a, b = int(order[3]), int(order[8])  # separated anchor pair
    return kern, data, one_partition(idx1, idx2, np.sort([a, b]))


class TestSamplePartitions:
    def test_forced_sizes(self):
        parts = sample_partitions(4, AscConfig(M=2, J=1), 0)
        assert len(parts) == 1
        assert parts.idx1.shape == parts.idx2.shape == parts.anchors.shape == (1, 2)

    def test_same_seed_identical(self):
        cfg = AscConfig(M=2, J=8)
        first = sample_partitions(20, cfg, 99)
        second = sample_partitions(20, cfg, 99)
        np.testing.assert_array_equal(first.idx1, second.idx1)
        np.testing.assert_array_equal(first.idx2, second.idx2)
        np.testing.assert_array_equal(first.anchors, second.anchors)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("m", [1, 2])
    def test_rows_follow_the_draw_order(self, n, m):
        # per row: one permutation for the halves, then the anchor draw
        parts = sample_partitions(n, AscConfig(M=m, J=6), 123)
        rng = np.random.default_rng(123)
        half = (n + 1) // 2
        for j in range(6):
            perm = rng.permutation(n)
            choice = rng.choice(n, size=m, replace=False)
            np.testing.assert_array_equal(parts.idx1[j], np.sort(perm[:half]))
            np.testing.assert_array_equal(parts.idx2[j], np.sort(perm[half:]))
            np.testing.assert_array_equal(parts.anchors[j], np.sort(choice))

    def test_bulk_sampling_valid(self):
        parts = sample_partitions(64, AscConfig(M=2, J=256), 1)
        assert len(parts) == 256
        for idx1, idx2, anchors in zip(parts.idx1, parts.idx2, parts.anchors):
            assert abs(idx1.size - idx2.size) <= 1
            assert np.intersect1d(idx1, idx2).size == 0
            assert np.union1d(idx1, idx2).size == 64
            assert np.unique(anchors).size == 2

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sample_partitions(3, AscConfig(M=2, J=1), 0)


class TestPartitionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partitions([[0, 1]], [[1, 2, 3]], [[0]])

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Partitions([[0, 1]], [[3, 4]], [[0]])

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            Partitions([[0]], [[1, 2, 3]], [[0]])

    def test_half_smaller_than_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            Partitions([[0]], [[1, 2]], [[0, 1]])

    @pytest.mark.parametrize(
        "idx1, idx2, anchors, match",
        [
            ([0, 1, 2], [2, 3, 4], [0, 4], "overlap"),
            ([0, 1, 2], [3, 4, 6], [0, 4], "cover"),
            ([0, 1, 2], [3, 4, 5], [3, 3], "distinct"),
            ([0, 1, 2], [3, 4, 5], [0, 6], "out of range"),
            ([0, 1, 2], [3, 4, 5], [-1, 4], "out of range"),
        ],
    )
    def test_rule_broken_in_a_later_row_rejected(self, idx1, idx2, anchors, match):
        valid = ([0, 1, 2], [3, 4, 5], [0, 4])
        with pytest.raises(ValueError, match=match):
            Partitions(*zip(valid, valid, (idx1, idx2, anchors)))

    @pytest.mark.parametrize("longer", range(3))
    def test_unequal_row_counts_rejected(self, longer):
        arrays = [[[0, 1]], [[2, 3]], [[0]]]
        arrays[longer] = arrays[longer] * 2
        with pytest.raises(ValueError, match="same number"):
            Partitions(*arrays)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            Partitions(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 1)))

    def test_ragged_anchors_rejected(self):
        with pytest.raises(ValueError):
            Partitions([[0, 1], [2, 3]], [[2, 3], [0, 1]], [[0], [1, 2]])

    def test_arrays_are_read_only_copies(self):
        idx1 = np.array([[0, 1]])
        parts = Partitions(idx1, [[2, 3]], [[0]])
        idx1[0, 0] = 2
        assert parts.idx1[0, 0] == 0
        with pytest.raises(ValueError):
            parts.anchors[0, 0] = 1


class TestAscConfig:
    def test_defaults_valid(self):
        cfg = AscConfig()
        assert (cfg.M, cfg.J) == (2, 32)


class TestCriterion:
    def test_only_loo_is_minimized(self):
        assert {c: c.direction for c in Criterion} == {
            Criterion.EVIDENCE: 1.0,
            Criterion.LOO: -1.0,
            Criterion.BAYESIAN_ASC: 1.0,
            Criterion.BETA_NOISE_ASC: 1.0,
        }

    def test_asc_flag(self):
        assert ASC_CRITERIA == [Criterion.BAYESIAN_ASC, Criterion.BETA_NOISE_ASC]

    @pytest.mark.parametrize("criterion", [Criterion.EVIDENCE, Criterion.LOO, "bayesian"])
    def test_average_log_eta_rejects_non_agreement_criteria(self, criterion):
        rng = np.random.default_rng(12)
        model, data = random_gp_instance(rng)
        with pytest.raises(ValueError):
            average_log_eta(model, data, random_partitions(rng, data.n), criterion)


class TestLogEtaBayesian:
    def test_constructed_unit_case(self):
        # huge model noise and zero outputs: both posteriors collapse to the
        # prior, so eta is the integral of a cubed standard normal
        n = 6
        x = np.linspace(0, 5, n).reshape(1, -1)
        model = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=1e6)
        data = Dataset(x, np.zeros(n))
        part = one_partition([0, 1, 2], [3, 4, 5], [2])
        got = log_eta(model, data, part)
        assert math.exp(got) == pytest.approx(0.091888, abs=1e-6)

    def test_swap_halves_invariant(self):
        rng = np.random.default_rng(10)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n)
        assert abs(
            log_eta(model, data, part) - log_eta(model, data, swap(part))
        ) < 1e-10

    def test_within_half_permutation_invariant(self):
        rng = np.random.default_rng(11)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n)
        base = log_eta(model, data, part)
        # permute the data points and remap every index set accordingly
        perm = rng.permutation(data.n)
        inverse = np.empty(data.n, dtype=int)
        inverse[perm] = np.arange(data.n)
        permuted = Dataset(data.X[:, perm], data.y[perm])
        remapped = one_partition(
            np.sort(inverse[part.idx1[0]]), np.sort(inverse[part.idx2[0]]), np.sort(inverse[part.anchors[0]])
        )
        assert abs(log_eta(model, permuted, remapped) - base) < 1e-10

    def test_matches_quadrature_m1(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            model, data = random_gp_instance(rng)
            part = random_partitions(rng, data.n)
            got = log_eta(model, data, part)
            assert abs(got - oracle_log_eta_bayesian_1d(model, data, part)) < 1e-6

    def test_matches_tensor_quadrature_m2(self):
        rng = np.random.default_rng(13)
        model, data, part = dense_m2_instance(rng)
        got = log_eta(model, data, part)
        assert abs(got - oracle_log_eta_bayesian_2d(model, data, part)) < 1e-4

    def test_posterior_covariance_matches_conditioning(self):
        # the Bayesian half posterior is the normalized half likelihood times
        # the prior: adding K_aa^-1 to its precision gives the conditioning oracle
        rng = np.random.default_rng(14)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n, m=2)
        anchors = data.X[:, part.anchors[0]]
        prior_precision = np.linalg.inv(kernel_matrix(model, anchors, anchors))
        for which, idx in enumerate((part.idx1[0], part.idx2[0])):
            cross = kernel_matrix(model, anchors, data.X[:, idx])
            a_map = prior_precision @ cross
            sigma = noisy_kernel_matrix(model, data.X[:, idx]) - cross.T @ a_map
            # one problem, as a J=1 stack
            lam, r = maxent_linear_map_posterior(
                a_map[None], data.y[idx][None], 0.5 * (sigma + sigma.T)[None]
            )
            cov = np.linalg.inv(prior_precision + lam[0])
            mean, expected_cov = half_posterior(model, data, part, which)
            np.testing.assert_allclose(cov, expected_cov, atol=1e-10)
            np.testing.assert_allclose(cov @ r[0], mean, atol=1e-10)


class TestLogEtaBetaNoise:
    def test_swap_halves_invariant(self):
        rng = np.random.default_rng(20)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n)
        forward = log_eta(model, data, part, Criterion.BETA_NOISE_ASC)
        assert abs(forward - log_eta(model, data, swap(part), Criterion.BETA_NOISE_ASC)) < 1e-10

    def test_matches_quadrature_m1(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model, data = random_gp_instance(rng)
            part = random_partitions(rng, data.n)
            got = log_eta(model, data, part, Criterion.BETA_NOISE_ASC)
            assert abs(got - oracle_log_eta_beta_noise_1d(model, data, part)) < 1e-6

    def test_matches_tensor_quadrature_m2(self):
        rng = np.random.default_rng(22)
        model, data, part = dense_m2_instance(rng)
        got = log_eta(model, data, part, Criterion.BETA_NOISE_ASC)
        assert abs(got - oracle_log_eta_beta_noise_2d(model, data, part)) < 1e-4


class TestSigmaDirectionalSanity:
    def test_sharper_agreement_never_hurts(self):
        # twin designs: both halves see essentially the same noiseless curve,
        # so posterior means agree; shrinking the model noise then sharpens
        # both posteriors around that common value and eta must not drop
        rng = np.random.default_rng(30)
        checked = 0
        for _ in range(10):
            n_pairs = 10
            base_x = np.linspace(0, 3, n_pairs)
            x = np.empty(2 * n_pairs)
            x[0::2] = base_x
            x[1::2] = base_x + 1e-3
            x = x.reshape(1, -1)
            ell = float(rng.uniform(0.8, 1.5))
            clean = KernelSpec.create("se", lengthscale=ell, signal=1.0, noise=0.0)
            f = np.linalg.cholesky(
                kernel_matrix(clean, x, x) + 1e-10 * np.eye(2 * n_pairs)
            ) @ rng.standard_normal(2 * n_pairs)
            data = Dataset(x, f)
            part = one_partition(np.arange(0, 2 * n_pairs, 2), np.arange(1, 2 * n_pairs, 2), [8])
            previous = None
            for sn in (0.3, 0.1, 0.03, 0.01):
                model = KernelSpec.create("se", lengthscale=ell, signal=1.0, noise=sn)
                means = [float(half_posterior(model, data, part, w)[0][0]) for w in (0, 1)]
                agrees = abs(means[0] - means[1]) < 1e-3
                value = log_eta(model, data, part)
                if previous is not None and agrees and previous[1]:
                    assert value >= previous[0] - 1e-8
                    checked += 1
                previous = (value, agrees)
        assert checked >= 10


class TestAverageLogEta:
    def test_single_partition_passthrough(self, monkeypatch):
        rng = np.random.default_rng(40)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n)
        real = criteria.log_product_integral
        seen = []

        def recording(components):
            seen.append(real(components))
            return seen[-1]

        monkeypatch.setattr(criteria, "log_product_integral", recording)
        for variant in ASC_CRITERIA:
            score = average_log_eta(model, data, part, variant)
            assert seen[-1].shape == (1,)
            assert score.value == seen[-1][0]
            assert score.n_failed == 0

    def test_identical_partitions_average_to_common_value(self):
        rng = np.random.default_rng(41)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n)
        single = log_eta(model, data, part)
        score = average_log_eta(model, data, take(part, [0] * 5), Criterion.BAYESIAN_ASC)
        assert score.value == pytest.approx(single, abs=1e-12)

    def test_matches_extended_precision_mean(self):
        rng = np.random.default_rng(42)
        model, data = random_gp_instance(rng, n_lo=10, n_hi=12)
        parts = random_partitions(rng, data.n, count=16)
        values = [log_eta(model, data, p) for p in rows(parts)]
        score = average_log_eta(model, data, parts, Criterion.BAYESIAN_ASC)
        with mpmath.workdps(60):
            mean = mpmath.fsum(mpmath.e**v for v in values) / len(values)
            expected = float(mpmath.log(mean))
        assert score.value == pytest.approx(expected, abs=1e-12)

    def test_evaluation_order_does_not_matter(self):
        rng = np.random.default_rng(43)
        model, data = random_gp_instance(rng)
        parts = random_partitions(rng, data.n, count=8)
        forward = average_log_eta(model, data, parts, Criterion.BETA_NOISE_ASC)
        backward = average_log_eta(model, data, take(parts, np.arange(8)[::-1]), Criterion.BETA_NOISE_ASC)
        assert forward.value == backward.value

    def test_near_singular_instance_reports_failures_without_abort(self):
        # duplicated inputs at vanishing noise: partitions may fail, the
        # average must still come back with the failure fraction
        x = np.array([[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]])
        y = np.array([0.1, 0.1, -0.2, -0.2, 0.3, 0.3, 0.0, 0.0])
        model = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=1e-8)
        data = Dataset(x, y)
        parts = sample_partitions(8, AscConfig(M=2, J=16), 7)
        for variant in ASC_CRITERIA:
            score = average_log_eta(model, data, parts, variant)
            assert score.n_partitions == 16
            assert 0.0 <= score.failed_fraction <= 1.0
            if score.n_failed < 16:
                assert np.isfinite(score.value)

    def test_non_finite_partition_counts_as_failed(self, monkeypatch):
        rng = np.random.default_rng(44)
        model, data = random_gp_instance(rng)
        parts = random_partitions(rng, data.n, count=3)
        values = [log_eta(model, data, p) for p in rows(parts)]
        real = criteria.log_product_integral

        def nan_for_second(components):
            out = real(components)
            out[1] = np.nan
            return out

        monkeypatch.setattr(criteria, "log_product_integral", nan_for_second)
        score = average_log_eta(model, data, parts, Criterion.BAYESIAN_ASC)
        assert score.n_failed == 1
        expected = logsumexp(np.sort([values[0], values[2]])) - np.log(2.0)
        assert score.value == pytest.approx(float(expected), abs=1e-12)

    def test_far_anchor_partitions_fail_without_abort(self):
        # the point a bnasc fit of synth seed 12 reaches: in partition 5 an
        # anchor has no point of the other half within reach, so its row of
        # the map is ~1e-160 and the half precision ~1e-320
        teacher = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=0.1)
        train, _ = sample_synthetic(teacher, 64, 256, seed=12)
        x = train.X  # standardized as load_csv_dataset does
        data = Dataset((x - x.mean(axis=1)[:, None]) / x.std(axis=1)[:, None], train.y)
        parts = sample_partitions(64, AscConfig(M=2, J=32), criteria.derived_seed(0, 1))
        theta = np.array([-5.226861461507027, 3.3879044801709925, -1.5127458863693015])
        score = average_log_eta(teacher.with_theta(theta), data, parts, Criterion.BETA_NOISE_ASC)
        assert score.n_failed == 3
        assert np.isfinite(score.value)

    @pytest.mark.parametrize("n_parts", [8, 16])
    def test_partitions_of_another_point_count_rejected(self, n_parts):
        # a set for fewer points would score only its first points; one for
        # more would index past the Gram
        teacher = KernelSpec.create("se", lengthscale=1.0, signal=1.0, noise=0.1)
        data, _ = sample_synthetic(teacher, 12, 1, seed=3)
        parts = sample_partitions(n_parts, AscConfig(M=2, J=4), 5)
        for variant in ASC_CRITERIA:
            with pytest.raises(ValueError, match=f"{n_parts} points.* 12 points"):
                average_log_eta(teacher, data, parts, variant)


class TestDenseReference:
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_both_variants_match_explicit_inverses(self, seed, m):
        rng = np.random.default_rng(seed)
        model, data = random_gp_instance(rng)
        part = random_partitions(rng, data.n, m)
        anchors = data.X[:, part.anchors[0]]
        assume(np.linalg.cond(kernel_matrix(model, anchors, anchors)) < 1e3)
        # a half likelihood that barely informs some anchor direction (an exp
        # kernel's Markov property can make it exactly uninformative) leaves
        # both routes round-off dominated
        for which in (0, 1):
            assume(np.linalg.cond(maxent_half_moments(model, data, part, which)[1]) < 1e8)
        for variant in ASC_CRITERIA:
            expected = dense_log_eta(model, data, part, variant is Criterion.BAYESIAN_ASC)
            assert log_eta(model, data, part, variant) == pytest.approx(expected, abs=1e-9)


def single_or_nan(model, data, part, variant):
    try:
        return log_eta(model, data, part, variant)
    except AllPartitionsFailed:
        return np.nan


class TestBatchMatchesSinglePartitions:
    # The batched engine stacks each half slot of all partitions of a call;
    # odd N gives the slots different sizes, and swapping the whole set
    # exchanges them.
    @given(
        structure=st.sampled_from([s.value for s in KernelStructure]),
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([1, 2]),
        count=st.integers(1, 8),
        odd=st.booleans(),
        duplicated=st.booleans(),
    )
    @example(structure="se", seed=7, m=2, count=8, odd=False, duplicated=True)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_list_is_log_mean_exp_of_single_partitions(self, structure, seed, m, count, odd, duplicated):
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(3, 7)) + odd
        if duplicated:
            # pairs of identical inputs and outputs at vanishing noise, as in
            # test_near_singular_instance_reports_failures_without_abort
            x = np.repeat(np.arange((n + 1) // 2, dtype=float), 2)[:n]
            y = np.repeat(rng.uniform(-0.3, 0.3, (n + 1) // 2), 2)[:n]
            model = KernelSpec.create(
                structure, lengthscale=1.0, signal=1.0, noise=1e-8, alpha=1.5, period=3.0
            )
            data = Dataset(x.reshape(1, -1), y)
        else:
            model, data = random_gp_instance(rng, n_lo=n, n_hi=n, structure=structure)
        parts = random_partitions(rng, n, m, count)
        if rng.random() < 0.5:
            parts = swap(parts)
        for variant in ASC_CRITERIA:
            singles = np.array([single_or_nan(model, data, p, variant) for p in rows(parts)])
            finite = np.sort(singles[np.isfinite(singles)])
            if not finite.size:
                with pytest.raises(AllPartitionsFailed):
                    average_log_eta(model, data, parts, variant)
                continue
            score = average_log_eta(model, data, parts, variant)
            assert score.n_failed == len(parts) - finite.size
            expected = float(logsumexp(finite) - np.log(finite.size))
            assert score.value == pytest.approx(expected, rel=1e-10, abs=1e-10)
