"""Zero-mean Gaussian-process regression: predictives and the classic objectives.

Each objective factors the output covariance K + sigma_n^2 I = L L^T once per
evaluation. The evidence value needs only L. Leave-one-out takes the
triangular inverse L^-1 once and reads from it both diag(K^-1), as the column
sums of (L^-1)^2, and alpha = K^-1 y = L^-T (L^-1 y). The full precision
K^-1 = L^-T L^-1 is formed only when a gradient is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import DegenerateBaseline, InsufficientData, SingularCovariance
from .gaussian import GaussianDist, chol_spd, condition, _LOG_2PI, _logpdf_dev
from .kernels import KernelSpec, gram_and_partials, kernel_matrix, noisy_kernel_matrix, pairwise_sq_dists


@dataclass(frozen=True, eq=False)
class Dataset:
    """Inputs as columns of X (D x N) with outputs y (N,).

    ``meta`` carries provenance such as the input standardization transform;
    it never affects numerical results.
    """

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.shape[1] != y.size:
            raise ValueError(f"X has {X.shape[1]} columns but y has length {y.size}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @cached_property
    def sq_dists(self) -> np.ndarray:
        """Read-only (N, N) squared distances between the inputs, computed once."""
        sq = pairwise_sq_dists(self.X, self.X)
        sq.flags.writeable = False
        return sq


def _output_factor(kernel: KernelSpec, data: Dataset):
    """Factor K + sigma_n^2 I once; returns ``(partials, factor)``, the callable
    giving the noise-free Gram's partials and the lower Cholesky factor of the
    (possibly jittered) output covariance."""
    gram, partials = gram_and_partials(kernel, data.sq_dists)
    cov = gram.copy()
    cov.flat[:: data.n + 1] += kernel.noise_variance
    factor, _ = chol_spd(cov, "output covariance")
    return partials, factor


def _inverse_factor(factor: np.ndarray) -> np.ndarray:
    """L^-1 for a lower Cholesky factor L, by one LAPACK triangular inversion."""
    inverse, info = dtrtri(factor, lower=1)
    if info != 0:
        raise SingularCovariance(f"output covariance factor cannot be inverted (dtrtri info {info})")
    return inverse


def _contract(partials, noise_variance: float, weights: np.ndarray) -> np.ndarray:
    """Gradient sum_kl W_kl dK_kl for dK/dtheta of every optimizer coordinate
    (kernel log-parameters from ``partials()``, then log-noise)."""
    dk = partials()
    dk.append((2.0 * noise_variance) * np.eye(weights.shape[0]))
    flat = weights.ravel()
    return np.array([flat @ p.ravel() for p in dk])


def log_evidence_and_grad(kernel: KernelSpec, data: Dataset) -> tuple[float, Callable[[], np.ndarray]]:
    """log p(y | X), and a callable giving its gradient in ``kernel.theta()``.

    The gradient is computed only when the callable is called, from the same
    factorization as the value, by the trace identity (Rasmussen & Williams,
    GPML eq. 5.9): d/dtheta_j = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta_j),
    alpha = K^-1 y.
    """
    if data.n < 1:
        raise ValueError("evidence requires at least one data point")
    partials, factor = _output_factor(kernel, data)

    def grad() -> np.ndarray:
        inverse = _inverse_factor(factor)
        precision = inverse.T @ inverse
        alpha = inverse.T @ (inverse @ data.y)
        return _contract(partials, kernel.noise_variance, 0.5 * (np.outer(alpha, alpha) - precision))

    return _logpdf_dev(factor, data.y), grad


def log_evidence(kernel: KernelSpec, data: Dataset) -> float:
    """log p(y | X) under the GP prior and Gaussian noise."""
    return log_evidence_and_grad(kernel, data)[0]


def loo_cv_and_grad(kernel: KernelSpec, data: Dataset) -> tuple[float, Callable[[], np.ndarray]]:
    """Negative mean LOO log predictive density, and a callable giving its
    gradient in ``kernel.theta()``.

    Each fold's predictive is the 1-D conditional of y_k given the remaining
    outputs under the joint N(0, K + sigma_n^2 I). It needs only the diagonal
    q = diag(P) of the precision P = K^-1 and alpha = P y (GPML eq. 5.12),
    both read off the inverse factor L^-1 in O(N^3) total rather than
    refactoring per fold. The gradient, computed only when the callable is
    called, forms P = L^-T L^-1 and evaluates GPML eq. 5.13 (Sundararajan &
    Keerthi 2001) with its per-fold sums folded into one weight matrix, so
    every coordinate costs one elementwise contraction with dK/dtheta_j.
    """
    if data.n < 2:
        raise InsufficientData("leave-one-out requires at least two data points")
    partials, factor = _output_factor(kernel, data)
    inverse = _inverse_factor(factor)
    q = np.sum(inverse**2, axis=0)
    alpha = inverse.T @ (inverse @ data.y)
    # fold k: mean y_k - alpha_k / q_k, variance 1 / q_k
    log_pred = -0.5 * (np.log(2.0 * np.pi / q) + alpha**2 / q)

    def grad() -> np.ndarray:
        precision = inverse.T @ inverse
        # With a = alpha / q and c = (1 + alpha^2 / q) / (2 q), eq. 5.13 summed over
        # the folds is  a^T P dK alpha - sum_k c_k (P dK P)_kk  =  sum(W * dK).
        weights = np.outer(precision @ (alpha / q), alpha) - (
            precision * (0.5 * (1.0 + alpha**2 / q) / q)
        ) @ precision
        return -_contract(partials, kernel.noise_variance, weights) / data.n

    return float(-np.mean(log_pred)), grad


def loo_cv_objective(kernel: KernelSpec, data: Dataset) -> float:
    """Negative mean leave-one-out log predictive density (lower is better)."""
    return loo_cv_and_grad(kernel, data)[0]


def predict(kernel: KernelSpec, train: Dataset, xstar) -> GaussianDist:
    """Predictive Gaussian over noisy test outputs at the given inputs."""
    xstar = np.atleast_2d(np.asarray(xstar, dtype=float))
    if xstar.shape[1] < 1:
        raise ValueError("prediction requires at least one test input")
    _, factor = _output_factor(kernel, train)
    cross = kernel_matrix(kernel, train.X, xstar)  # (N, P)
    return condition(
        factor, cross, noisy_kernel_matrix(kernel, xstar), train.y, "predictive covariance"
    )


def msll(mean, var, y_test, train_y) -> float:
    """Mean standardized log loss of marginal predictives against held-out outputs.

    ``mean`` and ``var`` are the predictive mean and variance at each test
    point. Per test point: negative log predictive density minus the same loss
    under a single Gaussian fitted to the training outputs. Negative values
    beat that baseline.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    var = np.asarray(var, dtype=float).reshape(-1)
    y_test = np.asarray(y_test, dtype=float).reshape(-1)
    train_y = np.asarray(train_y, dtype=float).reshape(-1)
    if not mean.size == var.size == y_test.size:
        raise ValueError(f"{mean.size} means and {var.size} variances for {y_test.size} test outputs")
    if train_y.size == 0:
        raise DegenerateBaseline("no training outputs for the trivial baseline")
    base_mean = float(np.mean(train_y))
    base_var = float(np.var(train_y))
    if not base_var > 0.0:
        raise DegenerateBaseline("training outputs have zero variance")
    loss_model = 0.5 * (_LOG_2PI + np.log(var) + (y_test - mean) ** 2 / var)
    loss_base = 0.5 * (_LOG_2PI + np.log(base_var) + (y_test - base_mean) ** 2 / base_var)
    return float(np.mean(loss_model - loss_base))
