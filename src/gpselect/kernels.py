"""Covariance kernels with log-space hyperparameters.

``_KERNELS`` holds each structure once. Its entry computes the Gram from the
squared input distances, with a callable that computes the log-parameter
partials only when a gradient is asked for. They reuse the Gram's
intermediates, which live only as long as that callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import expit


class KernelStructure(str, Enum):
    SQUARED_EXPONENTIAL = "se"
    RATIONAL_QUADRATIC = "rq"
    EXPONENTIAL = "exp"
    PERIODIC = "per"


# Smallest normal float: a rational-quadratic scale 2 alpha ell^2 below it has underflowed.
_TINY = np.finfo(float).tiny


def _se(sq, log_params):
    ell, sf = np.exp(log_params)
    gram = sf**2 * np.exp(-0.5 * sq / ell**2)
    return gram, lambda: [gram * (sq / ell**2), 2.0 * gram]


def _rq(sq, log_params):
    log_ell, _, log_alpha = log_params
    ell, sf, alpha = np.exp(log_params)
    scale = 2.0 * alpha * ell**2
    # terms(get_u()) is (u / (1 + u), log(1 + u)), u = sq / scale. Where the scale
    # underflowed, sq / scale would be 0/0 or overflow: get_u() gives log u there.
    if scale < _TINY:
        get_u = lambda: np.log(sq) - np.log(2.0) - log_alpha - 2.0 * log_ell  # -inf where sq is 0
        terms = lambda log_u: (expit(log_u), np.logaddexp(0.0, log_u))
        with np.errstate(divide="ignore"):
            gram = sf**2 * np.exp(-alpha * np.logaddexp(0.0, get_u()))
    else:
        get_u = lambda: sq / scale
        terms = lambda u: (u / (1.0 + u), np.log1p(u))
        gram = sf**2 * (1.0 + get_u()) ** (-alpha)

    def partials():
        ratio, log1p_u = terms(get_u())
        return [gram * (2.0 * alpha * ratio), 2.0 * gram, gram * (alpha * (ratio - log1p_u))]

    return gram, partials


def _exp(sq, log_params):
    ell, sf = np.exp(log_params)
    scaled = np.sqrt(sq) / ell
    gram = sf**2 * np.exp(-scaled)
    return gram, lambda: [gram * scaled, 2.0 * gram]


def _per(sq, log_params):
    ell, period, sf = np.exp(log_params)
    angle = np.pi * np.sqrt(sq) / period
    sin2 = np.sin(angle) ** 2
    gram = sf**2 * np.exp(-2.0 * sin2 / ell**2)
    return gram, lambda: [
        gram * (4.0 * sin2 / ell**2),
        gram * ((2.0 * angle / ell**2) * np.sin(2.0 * angle)),
        2.0 * gram,
    ]


# One entry per structure: its natural-space parameter names, in log_params
# order, and (sq, log_params) -> (Gram, callable giving its partials).
_KERNELS = {
    KernelStructure.SQUARED_EXPONENTIAL: (("lengthscale", "signal"), _se),
    KernelStructure.RATIONAL_QUADRATIC: (("lengthscale", "signal", "alpha"), _rq),
    KernelStructure.EXPONENTIAL: (("lengthscale", "signal"), _exp),
    KernelStructure.PERIODIC: (("lengthscale", "period", "signal"), _per),
}
PARAM_NAMES: dict[KernelStructure, tuple[str, ...]] = {s: names for s, (names, _) in _KERNELS.items()}


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
        # exp is monotone, so the extreme entries decide; NaN fails both comparisons
        if not (params.min() > -np.inf and np.exp(params.max()) < np.inf):
            raise ValueError("log-parameters must exponentiate to positive finite values")
        if not np.exp(self.log_noise) < np.inf:
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


def gram_and_partials(spec: KernelSpec, sq: np.ndarray) -> tuple[np.ndarray, Callable[[], list]]:
    """Kernel values from squared input distances, and a callable giving dK/d log(param)
    for each kernel parameter in ``log_params`` order, noise excluded. Where the Gram
    underflowed to 0, the partial is its exact limit 0, not the NaN of 0 * inf."""
    gram, entry_partials = _KERNELS[spec.structure][1](sq, spec.log_params)

    def partials() -> list[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = entry_partials()
        for partial in out:
            nan = np.isnan(partial)
            if nan.any():
                partial[nan & (gram == 0.0)] = 0.0
        return out

    return gram, partials


def kernel_matrix(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Gram matrix between two column-point sets (inputs are D x P and D x Q)."""
    return gram_and_partials(spec, pairwise_sq_dists(xa, xb))[0]


def noisy_kernel_matrix(spec: KernelSpec, x) -> np.ndarray:
    """Gram matrix of a point set plus sigma_n^2 on the diagonal."""
    gram = kernel_matrix(spec, x, x)
    gram.flat[:: gram.shape[0] + 1] += spec.noise_variance
    return gram

