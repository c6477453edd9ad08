"""Covariance kernels with log-space hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit


class KernelStructure(str, Enum):
    SQUARED_EXPONENTIAL = "se"
    RATIONAL_QUADRATIC = "rq"
    EXPONENTIAL = "exp"
    PERIODIC = "per"


# Natural-space parameter names, in the order stored in log_params.
PARAM_NAMES: dict[KernelStructure, tuple[str, ...]] = {
    KernelStructure.SQUARED_EXPONENTIAL: ("lengthscale", "signal"),
    KernelStructure.RATIONAL_QUADRATIC: ("lengthscale", "signal", "alpha"),
    KernelStructure.EXPONENTIAL: ("lengthscale", "signal"),
    KernelStructure.PERIODIC: ("lengthscale", "period", "signal"),
}


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel structure plus hyperparameters, all stored as natural logs.

    ``log_noise`` is log(sigma_n); sigma_n = 0 (log_noise = -inf) is allowed.
    """

    structure: KernelStructure
    log_params: np.ndarray
    log_noise: float

    def __post_init__(self):
        params = np.asarray(self.log_params, dtype=float).reshape(-1)
        object.__setattr__(self, "log_params", params)
        object.__setattr__(self, "structure", KernelStructure(self.structure))
        object.__setattr__(self, "log_noise", float(self.log_noise))
        expected = len(PARAM_NAMES[self.structure])
        if params.size != expected:
            raise ValueError(
                f"{self.structure.value} kernel takes {expected} log-parameters, got {params.size}"
            )
        if not np.all(np.isfinite(params)) or not np.all(np.isfinite(np.exp(params))):
            raise ValueError("log-parameters must exponentiate to positive finite values")
        if np.isnan(self.log_noise) or not np.isfinite(np.exp(self.log_noise)):
            raise ValueError("log-noise must exponentiate to a finite value")

    @classmethod
    def create(
        cls,
        structure: KernelStructure | str,
        *,
        lengthscale: float,
        signal: float,
        noise: float,
        alpha: float | None = None,
        period: float | None = None,
    ) -> "KernelSpec":
        """Build a spec from natural-space values (all positive; noise >= 0)."""
        structure = KernelStructure(structure)
        values = {"lengthscale": lengthscale, "signal": signal, "alpha": alpha, "period": period}
        logs = []
        for name in PARAM_NAMES[structure]:
            value = values[name]
            if value is None:
                raise ValueError(f"{structure.value} kernel requires parameter '{name}'")
            if not value > 0:
                raise ValueError(f"parameter '{name}' must be positive, got {value}")
            logs.append(np.log(value))
        if not noise >= 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        log_noise = np.log(noise) if noise > 0 else -np.inf
        return cls(structure, np.array(logs), log_noise)

    @property
    def noise_variance(self) -> float:
        return float(np.exp(2.0 * self.log_noise))

    def theta(self) -> np.ndarray:
        """Stacked optimizer coordinates: log kernel parameters then log noise."""
        return np.append(self.log_params, self.log_noise)

    def with_theta(self, theta: np.ndarray) -> "KernelSpec":
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.log_params.size + 1:
            raise ValueError(f"theta has length {theta.size}, expected {self.log_params.size + 1}")
        return KernelSpec(self.structure, theta[:-1], float(theta[-1]))

    def named_params(self) -> dict[str, float]:
        out = {
            name: float(np.exp(value))
            for name, value in zip(PARAM_NAMES[self.structure], self.log_params)
        }
        out["noise"] = float(np.exp(self.log_noise))
        return out


def pairwise_sq_dists(xa, xb) -> np.ndarray:
    """Squared Euclidean distances between two column-point sets (D x P and D x Q)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[0] != xb.shape[0]:
        raise ValueError(f"input dimensions differ: {xa.shape[0]} vs {xb.shape[0]}")
    # Accumulate one input dimension at a time: each term squares an exactly
    # antisymmetric difference, so the Gram matrix transposes bit-for-bit and
    # no (D, P, Q) temporary is built.
    out = np.zeros((xa.shape[1], xb.shape[1]))
    for d in range(xa.shape[0]):
        out += (xa[d][:, None] - xb[d][None, :]) ** 2
    return out


# Smallest normal float: a rational-quadratic scale 2 alpha ell^2 below it has underflowed.
_TINY = np.finfo(float).tiny


def _rq_log_u(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """log u, u = sq / (2 alpha ell^2), from the log-parameters; -inf where sq is 0."""
    log_ell, _, log_alpha = spec.log_params
    with np.errstate(divide="ignore"):
        return np.log(sq) - np.log(2.0) - log_alpha - 2.0 * log_ell


def gram_from_sq_dists(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Kernel values from a matrix of squared input distances."""
    params = np.exp(spec.log_params)
    if spec.structure is KernelStructure.SQUARED_EXPONENTIAL:
        ell, sf = params
        return sf**2 * np.exp(-0.5 * sq / ell**2)
    if spec.structure is KernelStructure.RATIONAL_QUADRATIC:
        ell, sf, alpha = params
        scale = 2.0 * alpha * ell**2
        if scale < _TINY:  # sq / scale would be 0/0 or overflow; work from log u
            return sf**2 * np.exp(-alpha * np.logaddexp(0.0, _rq_log_u(spec, sq)))
        return sf**2 * (1.0 + sq / scale) ** (-alpha)
    if spec.structure is KernelStructure.EXPONENTIAL:
        ell, sf = params
        return sf**2 * np.exp(-np.sqrt(sq) / ell)
    if spec.structure is KernelStructure.PERIODIC:
        ell, period, sf = params
        return sf**2 * np.exp(-2.0 * np.sin(np.pi * np.sqrt(sq) / period) ** 2 / ell**2)
    raise ValueError(f"unknown kernel structure {spec.structure!r}")


def gram_partials(spec: KernelSpec, sq: np.ndarray, gram: np.ndarray) -> list[np.ndarray]:
    """dK/d log(param) for each kernel parameter, in ``log_params`` order.

    ``gram`` must be ``gram_from_sq_dists(spec, sq)``; the noise term is not
    included. Where ``gram`` underflowed to 0, a factor that overflowed would
    make the product NaN; there the partial is its exact limit, 0.
    """
    params = np.exp(spec.log_params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.structure is KernelStructure.SQUARED_EXPONENTIAL:
            ell, _ = params
            partials = [gram * (sq / ell**2), 2.0 * gram]
        elif spec.structure is KernelStructure.RATIONAL_QUADRATIC:
            ell, _, alpha = params
            scale = 2.0 * alpha * ell**2
            if scale < _TINY:
                log_u = _rq_log_u(spec, sq)
                ratio, log1p_u = expit(log_u), np.logaddexp(0.0, log_u)
            else:
                u = sq / scale
                ratio, log1p_u = u / (1.0 + u), np.log1p(u)
            partials = [gram * (2.0 * alpha * ratio), 2.0 * gram, gram * (alpha * (ratio - log1p_u))]
        elif spec.structure is KernelStructure.EXPONENTIAL:
            ell, _ = params
            partials = [gram * (np.sqrt(sq) / ell), 2.0 * gram]
        elif spec.structure is KernelStructure.PERIODIC:
            ell, period, _ = params
            angle = np.pi * np.sqrt(sq) / period
            partials = [
                gram * (4.0 * np.sin(angle) ** 2 / ell**2),
                gram * ((2.0 * angle / ell**2) * np.sin(2.0 * angle)),
                2.0 * gram,
            ]
        else:
            raise ValueError(f"unknown kernel structure {spec.structure!r}")
    for partial in partials:
        nan = np.isnan(partial)
        if nan.any():
            partial[nan & (gram == 0.0)] = 0.0
    return partials


def kernel_matrix(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Gram matrix between two column-point sets (inputs are D x P and D x Q)."""
    return gram_from_sq_dists(spec, pairwise_sq_dists(xa, xb))


def noisy_kernel_matrix(spec: KernelSpec, x) -> np.ndarray:
    """Gram matrix of a point set plus sigma_n^2 on the diagonal."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return kernel_matrix(spec, x, x) + spec.noise_variance * np.eye(x.shape[1])

