"""Multivariate-Gaussian algebra: factorization, conditioning and closed-form integrals.

Conditioning works in moment form (mean, covariance). The agreement integrals
work in information form (precision Lambda, shift r = Lambda mean), in which
products of Gaussians add and no precision is ever inverted. Everything works
in log space; raw densities are never multiplied. All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, ldl, solve_triangular

from .errors import RankDeficient, SingularCovariance

_LOG_2PI = float(np.log(2.0 * np.pi))

# Escalating diagonal jitter, as multiples of the mean diagonal entry.
_JITTER_SCALES = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def chol_spd(mat: np.ndarray, name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor of a (nearly) SPD matrix.

    The matrix is symmetrized first; on factorization failure the diagonal is
    jittered by 1e-10 .. 1e-6 times the mean diagonal entry, escalating x10.
    Returns ``(factor, matrix actually factored)`` so callers can keep the two
    consistent. Raises :class:`SingularCovariance` carrying the smallest
    pivot once the jitter ladder is exhausted, or at once for a non-finite entry.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise SingularCovariance(f"{name} has a non-finite entry")
    sym = 0.5 * (mat + mat.T)
    n = sym.shape[0]
    base = np.trace(sym) / n if n else 0.0
    if not np.isfinite(base) or base <= 0.0:
        base = 1.0  # zero/negative diagonal: fall back to absolute jitter
    eye = np.eye(n)
    for scale in _JITTER_SCALES:
        shifted = sym if scale == 0.0 else sym + (scale * base) * eye
        try:
            return np.linalg.cholesky(shifted), shifted
        except np.linalg.LinAlgError:
            continue
    raise SingularCovariance(
        f"{name} is not positive-definite", smallest_pivot=_smallest_pivot(sym)
    )


def _smallest_pivot(sym: np.ndarray) -> float | None:
    try:
        _, d, _ = ldl(sym, lower=True)
        return float(np.min(np.linalg.eigvalsh(d)))
    except Exception:
        return None


def _half_logdet(chol: np.ndarray) -> float:
    return float(np.sum(np.log(np.diag(chol))))


def _logpdf_dev(chol: np.ndarray, dev: np.ndarray) -> float:
    """log N(dev | 0, L L^T) from the cached factor."""
    # unchecked: a non-finite precision must give a non-finite value, not a ValueError
    z = solve_triangular(chol, dev, lower=True, check_finite=False)
    return float(-0.5 * (dev.size * _LOG_2PI + z @ z) - _half_logdet(chol))


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian with a cached lower-triangular factor of its covariance.

    Construct through :meth:`from_moments`, which symmetrizes and applies the
    jitter ladder; ``cov`` always equals ``chol @ chol.T`` up to round-off.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray

    @classmethod
    def from_moments(cls, mean, cov, name: str = "covariance") -> "GaussianDist":
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        if cov.size and float(np.max(np.abs(cov - cov.T))) > 1e-10:
            raise ValueError("covariance is asymmetric beyond tolerance 1e-10")
        factor, used = chol_spd(cov, name)
        return cls(mean=mean, cov=used, chol=factor)

    @property
    def dim(self) -> int:
        return self.mean.size


def condition(factor, cross, cov_target, observed, name: str = "conditional covariance") -> GaussianDist:
    """Zero-mean Gaussian over targets given observed values (GPML eqs. 2.23-2.24).

    ``factor`` is the lower Cholesky factor of the observed block's covariance
    K (from :func:`chol_spd`), ``cross`` the observed-by-target covariance and
    ``cov_target`` the targets' prior covariance. The result has mean
    ``cross^T K^-1 observed`` and covariance ``cov_target - cross^T K^-1 cross``.
    """
    gain = cho_solve((factor, True), cross)  # K^{-1} cross
    cov = cov_target - cross.T @ gain
    # symmetrize in place: cov_target stays referenced, so a copy here would
    # keep one more (P, P) array alive while from_moments factors
    cov += cov.T
    cov *= 0.5
    return GaussianDist.from_moments(gain.T @ observed, cov, name)


def _log_density_at_zero(lam, r) -> float:
    """log N(0 | Lambda^-1 r, Lambda^-1); no jitter, which would mask a rank-deficient Lambda."""
    try:
        factor = np.linalg.cholesky(0.5 * (lam + lam.T))
    except np.linalg.LinAlgError as err:
        raise RankDeficient("precision is not positive-definite") from err
    return _logpdf_dev(factor, r) + 2.0 * _half_logdet(factor)


def log_product_integral(components) -> float:
    """log of  integral prod_k p_k(x) dx  for Gaussians in information form.

    Each component is a pair ``(Lambda_k, r_k)``, the density with precision
    Lambda_k and mean Lambda_k^-1 r_k. The log integral is
    ``sum_k log p_k(0) - log p_*(0)``, where p_* has precision sum_k Lambda_k
    and shift sum_k r_k. A precision that is not positive-definite raises
    :class:`RankDeficient`; a non-finite one yields a non-finite value.
    """
    if not components:
        raise ValueError("need at least one component")
    n = np.size(components[0][1])
    if any(np.shape(lam) != (n, n) or np.size(r) != n for lam, r in components):
        raise ValueError("components have mismatched dimensions")
    value = sum(_log_density_at_zero(lam, r) for lam, r in components)
    lam_sum = sum(lam for lam, _ in components)
    r_sum = sum(r for _, r in components)
    return value - _log_density_at_zero(lam_sum, r_sum)


def maxent_linear_map_posterior(A, mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Information form of N(A^T x | mu, Sigma), normalized as a density over x.

    Returns ``(Lambda, r)`` with ``Lambda = A Sigma^-1 A^T`` and
    ``r = A Sigma^-1 mu``; the density is N(x | Lambda^-1 r, Lambda^-1). It is
    proper only if ``A`` (m x n) has full row rank. A rank-deficient map gives a
    singular Lambda, which :func:`log_product_integral` rejects.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    mu = np.asarray(mu, dtype=float).reshape(-1)
    m, n = A.shape
    if m > n:
        raise ValueError(f"map has more rows ({m}) than columns ({n}); cannot have full row rank")
    if mu.size != n:
        raise ValueError(f"vector length {mu.size} does not match map columns {n}")
    factor, _ = chol_spd(np.asarray(sigma, dtype=float), "noise covariance")
    w = cho_solve((factor, True), A.T)  # Sigma^{-1} A^T
    return A @ w, w.T @ mu
