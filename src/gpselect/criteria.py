"""Selection criteria, and the posterior-agreement ones in full.

``Criterion`` is the one description of the four criteria: its report name,
which way it points and whether it needs partitions. An agreement (ASC)
criterion scores a hyperparameter point by how much the posteriors inferred
from two random halves of the data agree at a small set of anchor inputs.
The beta-noise variant uses a maximum-entropy posterior built from the
likelihood alone (unit inverse temperature, so the noise level plays the role
of the temperature); the Bayesian variant multiplies it by the zero-mean GP
prior, which in information form adds its precision. One routine builds both
and integrates their product with the prior in closed form, for all J
partitions of a call at once: they share one anchor count M, and every step
works on ``(J, ...)`` stacks gathered from one Gram matrix. A partition whose
factorization fails is a NaN in the stack and counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import logsumexp

from .errors import AllPartitionsFailed, InsufficientData
# chol_spd is unused here but stays bound: perfbench/tracing.py checks every module's binding
from .gaussian import chol_spd  # noqa: F401
from .gaussian import chol_stack, cho_solve_stack, log_product_integral, maxent_linear_map_posterior
from .kernels import KernelSpec, gram_from_sq_dists
from .regression import Dataset


class Criterion(str, Enum):
    EVIDENCE = "evidence"
    LOO = "loo"
    BAYESIAN_ASC = "basc"
    BETA_NOISE_ASC = "bnasc"

    @property
    def direction(self) -> float:
        """+1.0 where larger values are better; -1.0 for the LOO loss."""
        return -1.0 if self is Criterion.LOO else 1.0

    @property
    def is_asc(self) -> bool:
        """Whether this is an agreement criterion, which needs partitions."""
        return self in (Criterion.BAYESIAN_ASC, Criterion.BETA_NOISE_ASC)


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


def _blocks(gram: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``gram[rows[j]][:, cols[j]]`` for every j, from ``(J, p)`` and ``(J, q)`` index stacks."""
    return np.take(gram, rows[:, :, None] * gram.shape[1] + cols[:, None, :])


def average_log_eta(
    kernel: KernelSpec,
    data: Dataset,
    parts: list[Partition],
    criterion: Criterion,
) -> AscScore:
    """log of the mean agreement over partitions, skipping numerical failures.

    Given the anchor latents f, half i's outputs are N(A^T f, Sigma_i) with
    A = K_aa^-1 K_ai and Sigma_i = K_ii + sigma_n^2 I - K_ia A. Normalized
    over f, that likelihood has precision A Sigma_i^-1 A^T and shift
    A Sigma_i^-1 y_i; the Bayesian half posterior adds the prior precision
    K_aa^-1. The prior itself is the third component. The partitions must
    share one anchor count; halves are stacked by size, so odd N and swapped
    halves work too.

    The mean is of the agreements themselves (not their logs), by log-sum-exp
    over the sorted per-partition values, so it does not depend on evaluation
    order. A partition whose factorization fails or whose value is not finite
    counts as failed. Raises AllPartitionsFailed only if no partition survives.
    """
    criterion = Criterion(criterion)
    if not criterion.is_asc:
        raise ValueError(f"{criterion.value} is not an agreement criterion")
    if not parts:
        raise ValueError("need at least one partition")
    if len({p.anchor_idx.size for p in parts}) > 1:
        raise ValueError("all partitions must have the same number of anchors")
    gram = gram_from_sq_dists(kernel, data.sq_dists)
    anchors = np.array([p.anchor_idx for p in parts])  # (J, M)
    factor = chol_stack(_blocks(gram, anchors, anchors))
    ok = np.flatnonzero(np.isfinite(factor).all(axis=(1, 2)))
    if not ok.size:
        raise AllPartitionsFailed(len(parts))
    anchors, factor = anchors[ok], factor[ok]
    m = anchors.shape[1]
    halves = [
        (which, k, half)
        for k, j in enumerate(ok)
        for which, half in enumerate((parts[j].idx1, parts[j].idx2))
    ]
    lam = np.empty((2, ok.size, m, m))
    r = np.empty((2, ok.size, m))
    for size in sorted({half.size for _, _, half in halves}):
        which, rows, idx = zip(*[h for h in halves if h[2].size == size])
        which, rows, idx = np.array(which), np.array(rows), np.stack(idx)  # idx: (G, n)
        cross = _blocks(gram, anchors[rows], idx)  # K_ai, (G, M, n)
        a_map = cho_solve_stack(factor[rows], cross)
        sigma = _blocks(gram, idx, idx) + kernel.noise_variance * np.eye(size)
        sigma -= np.swapaxes(cross, 1, 2) @ a_map
        lam[which, rows], r[which, rows] = maxent_linear_map_posterior(a_map, data.y[idx], sigma)
    prior_precision = cho_solve_stack(factor, np.broadcast_to(np.eye(m), factor.shape))  # K_aa^-1
    if criterion is Criterion.BAYESIAN_ASC:
        lam += prior_precision
    values = np.full(len(parts), np.nan)
    values[ok] = log_product_integral(
        [(lam[0], r[0]), (lam[1], r[1]), (prior_precision, np.zeros((ok.size, m)))]
    )
    ordered = np.sort(values[np.isfinite(values)])
    if not ordered.size:
        raise AllPartitionsFailed(len(parts))
    value = float(logsumexp(ordered) - np.log(ordered.size))
    return AscScore(value=value, n_failed=len(parts) - ordered.size, n_partitions=len(parts))
