"""Posterior-agreement selection criteria.

A hyperparameter point is scored by how much the posteriors inferred from two
random halves of the data agree at a small set of anchor inputs. Two posterior
constructions are supported: the Bayesian posterior over the anchor latents,
and a maximum-entropy posterior built from the likelihood alone (unit inverse
temperature, so the noise level plays the role of the temperature). The GP
prior has zero mean. Both lead to closed-form agreement integrals over
products of Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import logsumexp

from .errors import AllPartitionsFailed, InsufficientData, RankDeficient, SingularCovariance
from .gaussian import (
    GaussianDist,
    chol_spd,
    condition,
    log_product_integral,
    maxent_linear_map_posterior,
)
from .kernels import KernelSpec, kernel_matrix
from .regression import Dataset


class AscVariant(str, Enum):
    BAYESIAN = "bayesian"
    BETA_NOISE = "beta_noise"


@dataclass(frozen=True, eq=False)
class Partition:
    """A random split of {0..N-1} into two near-equal halves plus M anchors."""

    idx1: np.ndarray
    idx2: np.ndarray
    anchor_idx: np.ndarray

    def __post_init__(self):
        idx1 = np.asarray(self.idx1, dtype=int).reshape(-1)
        idx2 = np.asarray(self.idx2, dtype=int).reshape(-1)
        anchors = np.asarray(self.anchor_idx, dtype=int).reshape(-1)
        object.__setattr__(self, "idx1", idx1)
        object.__setattr__(self, "idx2", idx2)
        object.__setattr__(self, "anchor_idx", anchors)
        n = idx1.size + idx2.size
        combined = np.concatenate([idx1, idx2])
        if np.intersect1d(idx1, idx2).size:
            raise ValueError("halves overlap")
        if not np.array_equal(np.sort(combined), np.arange(n)):
            raise ValueError("halves do not cover the index range exactly")
        if abs(idx1.size - idx2.size) > 1:
            raise ValueError("halves differ in size by more than one")
        m = anchors.size
        if np.unique(anchors).size != m:
            raise ValueError("anchor indices must be distinct")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= n):
            raise ValueError("anchor indices out of range")
        if min(idx1.size, idx2.size) < m:
            raise ValueError(f"each half needs at least {m} points for full row rank")


@dataclass(frozen=True)
class AscConfig:
    """Agreement dimension M, partition count J, and the partition seed."""

    M: int = 2
    J: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.M < 1 or self.J < 1:
            raise ValueError("M and J must be positive")


@dataclass(frozen=True)
class AscScore:
    """log of the partition-averaged agreement, with the failure tally."""

    value: float
    n_failed: int
    n_partitions: int

    @property
    def failed_fraction(self) -> float:
        return self.n_failed / self.n_partitions


def sample_partitions(n: int, cfg: AscConfig) -> list[Partition]:
    """Draw J independent partitions; deterministic for a given seed."""
    if n < 2 * cfg.M:
        raise InsufficientData(f"need at least {2 * cfg.M} points for M={cfg.M}, got {n}")
    rng = np.random.default_rng(cfg.seed)
    parts = []
    for _ in range(cfg.J):
        perm = rng.permutation(n)
        half = (n + 1) // 2
        anchors = rng.choice(n, size=cfg.M, replace=False)
        parts.append(
            Partition(np.sort(perm[:half]), np.sort(perm[half:]), np.sort(anchors))
        )
    return parts


def _anchor_blocks(kernel: KernelSpec, data: Dataset, part: Partition, gram: np.ndarray | None):
    """Anchor covariance, zero-mean anchor prior and per-half blocks of the Gram matrix."""
    if gram is None:
        gram = kernel_matrix(kernel, data.X, data.X)
    a = part.anchor_idx
    cov_anchor = gram[np.ix_(a, a)]
    prior = GaussianDist.from_moments(np.zeros(a.size), cov_anchor, "anchor covariance")
    noise = kernel.noise_variance
    halves = []
    for idx in (part.idx1, part.idx2):
        halves.append(
            (
                data.y[idx],
                gram[np.ix_(idx, idx)] + noise * np.eye(idx.size),
                gram[np.ix_(idx, a)],  # cross block, half points by anchors
            )
        )
    return cov_anchor, prior, halves


def _log_eta_bayesian(kernel, data, part, gram) -> float:
    cov_anchor, prior, halves = _anchor_blocks(kernel, data, part, gram)
    components = []
    for y_i, cov_i, cross_i in halves:
        factor, _ = chol_spd(cov_i, "half covariance")
        components.append(condition(factor, cross_i, cov_anchor, y_i, "posterior covariance"))
    components.append(prior)
    return log_product_integral(components)


def _log_eta_beta_noise(kernel, data, part, gram) -> float:
    _, prior, halves = _anchor_blocks(kernel, data, part, gram)
    components = []
    for y_i, cov_i, cross_i in halves:
        # A maps anchor latents to the half's output means; the likelihood of
        # the half, viewed as a function of the anchor latents, is
        # N(A^T f | y_i, Sigma) and normalizes to a Gaussian over f.
        a_map = cho_solve((prior.chol, True), cross_i.T)  # (M, n_i)
        sigma = cov_i - cross_i @ a_map
        components.append(maxent_linear_map_posterior(a_map, y_i, 0.5 * (sigma + sigma.T)))
    components.append(prior)
    return log_product_integral(components)


def log_eta_bayesian(kernel: KernelSpec, data: Dataset, part: Partition) -> float:
    """log posterior agreement with Bayesian half-data posteriors."""
    return _log_eta_bayesian(kernel, data, part, None)


def log_eta_beta_noise(kernel: KernelSpec, data: Dataset, part: Partition) -> float:
    """log posterior agreement with maximum-entropy (normalized likelihood) posteriors."""
    return _log_eta_beta_noise(kernel, data, part, None)


_ETA_FN = {
    AscVariant.BAYESIAN: _log_eta_bayesian,
    AscVariant.BETA_NOISE: _log_eta_beta_noise,
}


def average_log_eta(
    kernel: KernelSpec,
    data: Dataset,
    parts: list[Partition],
    variant: AscVariant,
) -> AscScore:
    """log of the mean agreement over partitions, skipping numerical failures.

    The mean is of the agreements themselves (not their logs), computed by
    log-sum-exp over the sorted per-partition values so the result does not
    depend on evaluation order. Raises AllPartitionsFailed only if no
    partition survives.
    """
    if not parts:
        raise ValueError("need at least one partition")
    eta_fn = _ETA_FN[AscVariant(variant)]
    gram = kernel_matrix(kernel, data.X, data.X)
    values = []
    failed = 0
    for part in parts:
        try:
            values.append(eta_fn(kernel, data, part, gram))
        except (SingularCovariance, RankDeficient):
            failed += 1
    if not values:
        raise AllPartitionsFailed(len(parts))
    ordered = np.sort(np.asarray(values))
    value = float(logsumexp(ordered) - np.log(ordered.size))
    return AscScore(value=value, n_failed=failed, n_partitions=len(parts))
