"""Multivariate-Gaussian algebra: factorization, conditioning and closed-form integrals.

Conditioning works in moment form (mean, covariance). The agreement integrals
work in information form (precision Lambda, shift r = Lambda mean), in which
products of Gaussians add and no precision is ever inverted. Their routines
take only stacks of J problems, ``(J, n, n)`` matrices and ``(J, n)``
vectors, and reject an unstacked argument; a slice that cannot factor is NaN.
``chol_spd`` factors one matrix; ``chol_stack`` factors a stack the same way.
Everything works in log space; raw densities are never multiplied. All types
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_solve, ldl
from scipy.linalg.lapack import dtrtrs

from .errors import SingularCovariance

_LOG_2PI = float(np.log(2.0 * np.pi))

# Escalating diagonal jitter, as multiples of the mean diagonal entry, tried
# after the matrix fails to factor as given.
_JITTER_SCALES = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def chol_spd(mat: np.ndarray, name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor of a (nearly) SPD matrix, which must be symmetric.

    The matrix is factored as given, reading only its lower triangle, so the
    caller symmetrizes it if need be. On failure a copy's diagonal is jittered
    by 1e-10 .. 1e-6 times the mean diagonal entry, escalating x10. Returns
    ``(factor, matrix actually factored)`` so callers can keep the two
    consistent. Raises :class:`SingularCovariance` once the jitter ladder is
    exhausted, or at once for a non-finite entry; the smallest pivot it
    reports is computed only when read.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise SingularCovariance(f"{name} has a non-finite entry")
    try:
        return np.linalg.cholesky(mat), mat
    except np.linalg.LinAlgError:
        pass
    n = mat.shape[0]
    base = np.trace(mat) / n
    if not np.isfinite(base) or base <= 0.0:
        base = 1.0  # zero/negative diagonal: fall back to absolute jitter
    shifted = mat.copy()
    for scale in _JITTER_SCALES:
        np.fill_diagonal(shifted, mat.diagonal() + scale * base)
        try:
            return np.linalg.cholesky(shifted), shifted
        except np.linalg.LinAlgError:
            continue
    raise SingularCovariance(f"{name} is not positive-definite", pivot=partial(_smallest_pivot, mat))


def _smallest_pivot(sym: np.ndarray) -> float | None:
    try:
        _, d, _ = ldl(sym, lower=True)
        return float(np.min(np.linalg.eigvalsh(d)))
    except Exception:
        return None


def _logpdf_dev(chol: np.ndarray, dev: np.ndarray) -> float:
    """log N(dev | 0, L L^T) from a C-ordered lower factor L, solved unchecked as solve_triangular does."""
    z, info = dtrtrs(chol.T, dev, lower=0, trans=1)  # L^T is a Fortran-ordered upper factor
    if info != 0:
        raise SingularCovariance(f"covariance factor has a zero pivot (dtrtrs info {info})")
    return float(-0.5 * (dev.size * _LOG_2PI + z @ z) - np.log(chol.diagonal()).sum())


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian with a cached lower-triangular factor of its covariance.

    Construct through :meth:`from_moments`, which symmetrizes and applies the
    jitter ladder; ``cov`` always equals ``chol @ chol.T`` up to round-off.
    A bit-symmetric covariance is factored as given, so ``cov`` may be the
    caller's array.
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
        if not np.array_equal(cov, cov.T):
            if float(np.max(np.abs(cov - cov.T))) > 1e-10:
                raise ValueError("covariance is asymmetric beyond tolerance 1e-10")
            cov = 0.5 * (cov + cov.T)
        factor, used = chol_spd(cov, name)
        return cls(mean=mean, cov=used, chol=factor)


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


def _cholesky_slices(sym: np.ndarray, rescue) -> np.ndarray:
    """Lower Cholesky factors of a symmetric ``(J, n, n)`` stack.

    One batched factorization serves the common case. If it fails, each slice
    is factored alone, and ``rescue(slice)`` gives the factor of a slice that
    fails again.
    """
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    factors = np.empty_like(sym)
    for j, mat in enumerate(sym):
        try:
            factors[j] = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            factors[j] = rescue(mat)
    return factors


def chol_stack(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a ``(J, n, n)`` stack, each as :func:`chol_spd` gives it.

    Only the slices that do not factor as they are go through ``chol_spd``'s
    jitter ladder, one at a time. A slice the ladder cannot rescue gets an
    all-NaN factor; one with a non-finite entry gets a non-finite factor.
    """

    def rescue(mat):
        try:
            return chol_spd(mat)[0]
        except SingularCovariance:
            return np.full_like(mat, np.nan)

    return _cholesky_slices(0.5 * (mats + np.swapaxes(mats, -1, -2)), rescue)


def solve_lower(factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """factors^-1 rhs by forward substitution, for lower-triangular ``(..., n, n)``
    factors and column stacks ``(..., n, k)``; one step per row, vectorized over
    the leading axes. A NaN factor gives a NaN result, not an error."""
    out = np.empty(np.broadcast_shapes(factors.shape[:-1], rhs.shape[:-2] + (1,)) + rhs.shape[-1:])
    diag = np.diagonal(factors, axis1=-2, axis2=-1)[..., None]
    for i in range(factors.shape[-1]):
        done = (factors[..., i : i + 1, :i] @ out[..., :i, :])[..., 0, :]
        out[..., i, :] = (rhs[..., i, :] - done) / diag[..., i, :]
    return out


def cho_solve_stack(factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 rhs for lower factors ``(..., n, n)`` and column stacks ``(..., n, k)``.

    Forward substitution with L, then back substitution with L^T, as
    ``scipy.linalg.cho_solve`` does; reversing rows and columns makes L^T
    lower-triangular.
    """
    flipped = np.swapaxes(factors, -1, -2)[..., ::-1, ::-1]
    return solve_lower(flipped, solve_lower(factors, rhs)[..., ::-1, :])[..., ::-1, :]


def log_product_integral(components) -> np.ndarray:
    """log of  integral prod_k p_k(x) dx  for stacks of Gaussians in information form.

    Each component is a pair ``(Lambda_k, r_k)`` of a ``(J, n, n)`` precision
    stack and a ``(J, n)`` shift stack: slice j is the density with precision
    Lambda_k[j] and mean Lambda_k[j]^-1 r_k[j]. The log integral of slice j is
    ``sum_k log p_k(0) - log p_*(0)``, where p_* has precision sum_k Lambda_k
    and shift sum_k r_k, and ``log p(0) = -1/2 (n log 2 pi + |L^-1 r|^2) +
    log|L|`` for the strict (unjittered) factor L of Lambda.

    Returns a ``(J,)`` array. A slice whose precision is not positive-definite
    is NaN; a non-finite precision yields a non-finite value.
    """
    if not components:
        raise ValueError("need at least one component")
    lams = [np.asarray(lam, dtype=float) for lam, _ in components]
    rs = [np.asarray(r, dtype=float) for _, r in components]
    shape = rs[0].shape  # (J, n)
    if len(shape) != 2 or any(lam.shape != shape + shape[1:] or r.shape != shape for lam, r in zip(lams, rs)):
        raise ValueError("components must be (J, n, n) precision and (J, n) shift stacks of one shape")
    lam = np.concatenate(lams + [sum(lams)])  # ((K + 1) J, n, n), the product's J last
    r = np.concatenate(rs + [sum(rs)])
    # no jitter, which would mask a rank-deficient precision
    factor = _cholesky_slices(0.5 * (lam + np.swapaxes(lam, 1, 2)), lambda mat: np.full_like(mat, np.nan))
    z = solve_lower(factor, r[..., None])[..., 0]
    log_diag = np.log(np.diagonal(factor, axis1=1, axis2=2))
    at_zero = -0.5 * (shape[1] * _LOG_2PI + np.sum(z * z, axis=-1)) + np.sum(log_diag, axis=-1)
    at_zero = at_zero.reshape(-1, shape[0])  # (K + 1, J)
    return np.sum(at_zero[:-1], axis=0) - at_zero[-1]


def maxent_linear_map_posterior(A, mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Information form of N(A^T x | mu, Sigma), normalized as a density over x.

    Takes stacks ``A`` ``(J, m, n)``, ``mu`` ``(J, n)`` and ``Sigma``
    ``(J, n, n)``; returns ``(Lambda, r)``, ``(J, m, m)`` and ``(J, m)``, with
    ``Lambda = A Sigma^-1 A^T`` and ``r = A Sigma^-1 mu``: slice j is the
    density N(x | Lambda^-1 r, Lambda^-1), proper only if ``A[j]`` has full
    row rank. :func:`log_product_integral` gives NaN for the singular Lambda
    of a rank-deficient map. A Sigma that :func:`chol_spd` cannot factor gives
    NaN in its slice.
    """
    A, mu, sigma = (np.asarray(v, dtype=float) for v in (A, mu, sigma))
    if A.ndim != 3 or mu.shape != (A.shape[0], A.shape[2]) or sigma.shape != mu.shape + mu.shape[1:]:
        raise ValueError("need a (J, m, n) map stack, (J, n) means and (J, n, n) covariances")
    m, n = A.shape[1:]
    if m > n:
        raise ValueError(f"map has more rows ({m}) than columns ({n}); cannot have full row rank")
    factor = chol_stack(sigma)
    # with B = L^-1 A^T and b = L^-1 mu: Lambda = B^T B and r = B^T b
    solved = solve_lower(factor, np.concatenate([np.swapaxes(A, -1, -2), mu[..., None]], axis=-1))
    b_map = np.swapaxes(solved[..., :m], -1, -2)
    return b_map @ solved[..., :m], (b_map @ solved[..., m:])[..., 0]
