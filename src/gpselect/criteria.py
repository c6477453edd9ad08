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
partitions of a call at once. ``Partitions`` holds the J splits as ``(J, ...)``
index arrays, sampled once per fit or replicate, and every step works on
``(J, ...)`` stacks gathered with them from one Gram matrix. A partition whose
factorization fails is a NaN in the stack and counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .errors import AllPartitionsFailed, InsufficientData
# chol_spd is unused here but stays bound: perfbench/tracing.py checks every module's binding
from .gaussian import chol_spd  # noqa: F401
from .gaussian import chol_stack, cho_solve_stack, log_product_integral, maxent_linear_map_posterior
from .kernels import KernelSpec, gram_and_partials
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
class Partitions:
    """J random splits of {0..N-1}, each into two near-equal halves plus M anchors.

    Row j of ``idx1`` ``(J, n1)``, ``idx2`` ``(J, n2)`` and ``anchors`` ``(J, M)``
    is split j. The arrays are read-only copies of the ones given.
    """

    idx1: np.ndarray
    idx2: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        for name in ("idx1", "idx2", "anchors"):
            arr = np.array(getattr(self, name), dtype=int)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a (J, k) array")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        idx1, idx2, anchors = self.idx1, self.idx2, self.anchors
        (j, n1), (_, n2), (_, m) = idx1.shape, idx2.shape, anchors.shape
        if j < 1 or idx2.shape[0] != j or anchors.shape[0] != j:
            raise ValueError("idx1, idx2 and anchors need the same number J >= 1 of rows")
        n = n1 + n2
        combined = np.sort(np.concatenate([idx1, idx2], axis=1), axis=1)
        if (np.diff(combined, axis=1) == 0).any():
            raise ValueError("halves overlap")
        if not (combined == np.arange(n)).all():
            raise ValueError("halves do not cover the index range exactly")
        if abs(n1 - n2) > 1:
            raise ValueError("halves differ in size by more than one")
        if (np.diff(np.sort(anchors, axis=1), axis=1) == 0).any():
            raise ValueError("anchor indices must be distinct")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= n):
            raise ValueError("anchor indices out of range")
        if min(n1, n2) < m:
            raise ValueError(f"each half needs at least {m} points for full row rank")

    def __len__(self) -> int:
        return self.idx1.shape[0]

    @cached_property
    def gather(self) -> tuple:
        """Flat (N, N) Gram indices of each split's anchor block ``(J, M, M)``, then per
        half of its ``(J, M, n_i)`` cross and ``(J, n_i, n_i)`` blocks; built on first use."""
        flat = lambda rows, cols: rows[:, :, None] * (self.idx1.shape[1] + self.idx2.shape[1]) + cols[:, None, :]
        return flat(self.anchors, self.anchors), *((flat(self.anchors, i), flat(i, i)) for i in (self.idx1, self.idx2))


@dataclass(frozen=True)
class AscConfig:
    """Agreement dimension M and partition count J."""

    M: int = 2
    J: int = 32

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


def derived_seed(master: int, *key: int) -> int:
    """Deterministic child seed for a (master seed, index path) pair."""
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_partitions(n: int, cfg: AscConfig, seed: int) -> Partitions:
    """Draw J independent partitions; deterministic for a given seed."""
    if n < 2 * cfg.M:
        raise InsufficientData(f"need at least {2 * cfg.M} points for M={cfg.M}, got {n}")
    rng = np.random.default_rng(seed)
    draws = [(rng.permutation(n), rng.choice(n, size=cfg.M, replace=False)) for _ in range(cfg.J)]
    perms, anchors = (np.array(d) for d in zip(*draws))
    half = (n + 1) // 2
    return Partitions(np.sort(perms[:, :half], axis=1), np.sort(perms[:, half:], axis=1), np.sort(anchors, axis=1))


def average_log_eta(
    kernel: KernelSpec,
    data: Dataset,
    parts: Partitions,
    criterion: Criterion,
) -> AscScore:
    """log of the mean agreement over partitions, skipping numerical failures.

    Given the anchor latents f, half i's outputs are N(A^T f, Sigma_i) with
    A = K_aa^-1 K_ai and Sigma_i = K_ii + sigma_n^2 I - K_ia A. Normalized
    over f, that likelihood has precision A Sigma_i^-1 A^T and shift
    A Sigma_i^-1 y_i; the Bayesian half posterior adds the prior precision
    K_aa^-1. The prior itself is the third component. Each half slot is one
    ``(J, n_i, ...)`` stack, so odd N and swapped halves need nothing extra.

    The mean is of the agreements themselves (not their logs), by log-sum-exp
    over the sorted per-partition values, so it does not depend on evaluation
    order. A partition whose factorization fails or whose value is not finite
    counts as failed. Raises AllPartitionsFailed only if no partition survives,
    and ValueError if ``parts`` does not split exactly the data's N points.
    """
    criterion = Criterion(criterion)
    if not criterion.is_asc:
        raise ValueError(f"{criterion.value} is not an agreement criterion")
    covered = parts.idx1.shape[1] + parts.idx2.shape[1]
    if covered != data.n:
        raise ValueError(f"partitions cover {covered} points but the data has {data.n} points")
    gram = gram_and_partials(kernel, data.sq_dists)[0]
    factor = chol_stack(np.take(gram, parts.gather[0]))
    ok = np.flatnonzero(np.isfinite(factor).all(axis=(1, 2)))
    if not ok.size:
        raise AllPartitionsFailed(len(parts))
    factor = factor[ok]
    m = factor.shape[1]
    prior_precision = cho_solve_stack(factor, np.broadcast_to(np.eye(m), factor.shape))  # K_aa^-1
    components = []
    for idx, (cross_at, half_at) in zip((parts.idx1[ok], parts.idx2[ok]), parts.gather[1:]):
        cross = np.take(gram, cross_at[ok])  # K_ai, (J', M, n_i)
        a_map = cho_solve_stack(factor, cross)
        sigma = np.take(gram, half_at[ok]) + kernel.noise_variance * np.eye(idx.shape[1])
        sigma -= np.swapaxes(cross, 1, 2) @ a_map
        lam, r = maxent_linear_map_posterior(a_map, data.y[idx], sigma)
        if criterion is Criterion.BAYESIAN_ASC:
            lam += prior_precision
        components.append((lam, r))
    components.append((prior_precision, np.zeros((ok.size, m))))
    values = np.full(len(parts), np.nan)
    values[ok] = log_product_integral(components)
    ordered = np.sort(values[np.isfinite(values)])
    if not ordered.size:
        raise AllPartitionsFailed(len(parts))
    value = float(logsumexp(ordered) - np.log(ordered.size))
    return AscScore(value=value, n_failed=len(parts) - ordered.size, n_partitions=len(parts))
