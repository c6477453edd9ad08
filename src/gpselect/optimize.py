"""Quasi-Newton (L-BFGS) maximization of the selection criteria.

``optimize`` fits a kernel under one ``Criterion``. Its objective returns the
value and a thunk that gives the gradient at the same point, and
``lbfgs_minimize`` calls the thunk only where the line search needs a slope.
The evidence and leave-one-out thunks reuse the factorization of the value
(exact gradients); the agreement criteria's thunk takes central finite
differences over partitions that ``optimize`` samples once per fit. Failed
evaluations (singular covariances, all partitions failed) act as an infinite
penalty that the line search backs away from.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .criteria import AscConfig, AscScore, Criterion, average_log_eta, derived_seed, sample_partitions
from .errors import AllPartitionsFailed, OptimizationFailed, SingularCovariance
from .kernels import KernelSpec
from .regression import (
    Dataset,
    log_evidence,
    log_evidence_and_grad,
    loo_cv_and_grad,
    loo_cv_objective,
)

_NUMERICAL_FAILURES = (SingularCovariance, AllPartitionsFailed)

# Any |theta| beyond this would overflow/underflow exp(); treat as failed.
_THETA_BOUND = 300.0

# L-BFGS history length, gradient infinity-norm tolerance, and the relative
# objective change over a window of iterations that counts as a stall.
_HISTORY = 10
_GTOL = 1e-5
_STALL_RTOL = 1e-9
_STALL_WINDOW = 3

# Strong Wolfe line search: sufficient-decrease and curvature constants, the
# largest step, and the iteration caps of the bracketing and zoom phases.
_C1, _C2, _ALPHA_MAX = 1e-4, 0.9, 1e3
_SEARCH_ITERS, _ZOOM_ITERS = 25, 30


@dataclass(frozen=True)
class FitConfig:
    """How a kernel is fitted: criterion, L-BFGS restarts and, for an agreement
    criterion only, its partition layout. Constructing one is the only check of
    these settings; the rows they need are checked where the rows are used."""

    criterion: Criterion = Criterion.EVIDENCE
    restarts: int = 2
    asc: AscConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "criterion", Criterion(self.criterion))
        if self.restarts < 1:
            raise ValueError("need at least one optimizer restart")
        if self.criterion.is_asc != (self.asc is not None):
            raise ValueError(f"{self.criterion.value} fit with asc={self.asc}: agreement fits need one, others none")


@dataclass(frozen=True, eq=False)
class OptResult:
    theta: np.ndarray
    objective_value: float
    converged: bool
    failed_partition_fraction: float | None = None


def evaluate_criterion(
    criterion: Criterion,
    kernel: KernelSpec,
    data: Dataset,
    parts=None,
) -> tuple[float, AscScore | None]:
    """Raw criterion value at the kernel's current hyperparameters."""
    criterion = Criterion(criterion)
    if criterion is Criterion.EVIDENCE:
        return log_evidence(kernel, data), None
    if criterion is Criterion.LOO:
        return loo_cv_objective(kernel, data), None
    score = average_log_eta(kernel, data, parts, criterion)
    return score.value, score


def finite_diff_gradient(f, theta, h_rel: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative step.

    Coordinates whose probes are non-finite get gradient 0.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        h = h_rel * max(abs(theta[k]), 1.0)
        probe = theta.copy()
        probe[k] = theta[k] + h
        f_plus = f(probe)
        probe[k] = theta[k] - h
        f_minus = f(probe)
        if np.isfinite(f_plus) and np.isfinite(f_minus):
            grad[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    x: np.ndarray
    fun: float
    converged: bool
    n_iter: int


def _zoom(f_line, lo, hi, phi_lo, phi0, dphi0):
    """Refine a bracketing interval until the strong Wolfe conditions hold."""
    result = None
    for _ in range(_ZOOM_ITERS):
        alpha = 0.5 * (lo + hi)
        phi_a, slope = f_line(alpha)
        if not np.isfinite(phi_a) or phi_a > phi0 + _C1 * alpha * dphi0 or phi_a >= phi_lo:
            hi = alpha
        else:
            dphi_a, g_a = slope()
            if abs(dphi_a) <= -_C2 * dphi0:
                return alpha, phi_a, g_a
            if dphi_a * (hi - lo) >= 0:
                hi = lo
            lo, phi_lo = alpha, phi_a
            result = (alpha, phi_a, g_a)
        if abs(hi - lo) < 1e-14 * max(1.0, abs(lo)):
            break
    # settle for the best sufficient-decrease point found, if any
    return result


def _wolfe_search(f_line, phi0, dphi0):
    """Strong Wolfe line search; returns (alpha, f, gradient) or None.

    ``f_line(alpha)`` gives ``(phi, slope)``, and ``slope()`` gives
    ``(g @ direction, g)`` for the gradient g at that step.
    """
    alpha_prev, phi_prev = 0.0, phi0
    alpha = 1.0
    for i in range(_SEARCH_ITERS):
        phi_a, slope = f_line(alpha)
        if not np.isfinite(phi_a) or phi_a > phi0 + _C1 * alpha * dphi0 or (i > 0 and phi_a >= phi_prev):
            return _zoom(f_line, alpha_prev, alpha, phi_prev, phi0, dphi0)
        dphi_a, g_a = slope()
        if abs(dphi_a) <= -_C2 * dphi0:
            return alpha, phi_a, g_a
        if dphi_a >= 0:
            return _zoom(f_line, alpha, alpha_prev, phi_a, phi0, dphi0)
        alpha_prev, phi_prev = alpha, phi_a
        if alpha >= _ALPHA_MAX:
            return alpha, phi_a, g_a
        alpha = min(2.0 * alpha, _ALPHA_MAX)
    return None


def lbfgs_minimize(f, x0, *, maxiter: int = 200) -> MinimizeResult:
    """Minimize f with L-BFGS and strong Wolfe steps.

    ``f(x)`` returns ``(value, grad)``, where ``grad()`` gives the gradient of
    f at that x. It is called only where the value is finite: at the start
    point and at line-search points that passed the sufficient-decrease test.

    Stops on gradient infinity-norm below ``_GTOL``, on relative objective
    change below ``_STALL_RTOL`` over ``_STALL_WINDOW`` iterations, or after
    ``maxiter`` iterations (then ``converged`` is False).
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, grad_at = f(x)
    if not np.isfinite(fx):
        return MinimizeResult(x=x, fun=fx, converged=False, n_iter=0)
    grad = grad_at()
    s_hist: deque = deque(maxlen=_HISTORY)
    y_hist: deque = deque(maxlen=_HISTORY)
    rho_hist: deque = deque(maxlen=_HISTORY)
    trail = [fx]
    converged = False
    iterations = 0
    for iterations in range(1, maxiter + 1):
        if np.abs(grad).max() < _GTOL:
            converged = True
            break
        # two-loop recursion for the quasi-Newton direction
        q = grad.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * yv
        if s_hist:
            q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
        for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (yv @ q)
            q += (a - b) * s
        direction = -q
        if not np.isfinite(direction).all() or direction @ grad >= 0:
            s_hist.clear(), y_hist.clear(), rho_hist.clear()
            direction = -grad

        def f_line(alpha):
            phi, grad_at = f(x + alpha * direction)

            def slope():
                g_a = grad_at()
                return g_a @ direction, g_a

            return phi, slope

        step = _wolfe_search(f_line, fx, grad @ direction)
        if step is None:
            break
        alpha, f_new, g_new = step
        s = alpha * direction
        yv = g_new - grad
        sy = s @ yv
        if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(yv @ yv):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
        x = x + s
        fx, grad = f_new, g_new
        trail.append(fx)
        if len(trail) > _STALL_WINDOW and abs(trail[-1] - trail[-1 - _STALL_WINDOW]) < _STALL_RTOL * (
            1.0 + abs(fx)
        ):
            converged = True
            break
    return MinimizeResult(x=x, fun=fx, converged=converged, n_iter=iterations)


def optimize(fit: FitConfig, template: KernelSpec, data: Dataset, seed: int) -> OptResult:
    """Multi-restart L-BFGS over log-space hyperparameters.

    Initial points are uniform on [-2, 2] per coordinate, drawn from ``seed``.
    An agreement fit samples its partitions once, from ``derived_seed(seed,
    1)``, and holds them fixed so that the objective is deterministic. Raises
    InsufficientData if the data have too few rows for the criterion, and
    OptimizationFailed if no restart reaches a finite objective.
    """
    criterion = fit.criterion
    parts = sample_partitions(data.n, fit.asc, derived_seed(seed, 1)) if criterion.is_asc else None
    sign = -criterion.direction  # minimize sign * value
    dim = template.log_params.size + 1

    # exact gradients where there is a closed form; None: finite differences
    value_and_grad = {
        Criterion.EVIDENCE: log_evidence_and_grad,
        Criterion.LOO: loo_cv_and_grad,
    }.get(criterion)

    def f_min(theta):
        theta = np.asarray(theta, dtype=float)
        if not np.abs(theta).max() <= _THETA_BOUND:  # also NaN
            return np.inf, None
        try:
            if value_and_grad is not None:
                value, grad = value_and_grad(template.with_theta(theta), data)
                return sign * value, lambda: sign * grad()
            value, _ = evaluate_criterion(criterion, template.with_theta(theta), data, parts)
        except _NUMERICAL_FAILURES:
            return np.inf, None
        return sign * value, lambda: finite_diff_gradient(lambda t: f_min(t)[0], theta)

    rng = np.random.default_rng(seed)
    inits = rng.uniform(-2.0, 2.0, size=(fit.restarts, dim))
    best: MinimizeResult | None = None
    for i in range(fit.restarts):
        result = lbfgs_minimize(f_min, inits[i])
        if not np.isfinite(result.fun):
            continue
        if best is None or result.fun < best.fun - 1e-12:
            best = result
    if best is None:
        raise OptimizationFailed(f"no finite objective over {fit.restarts} restarts")
    value, asc = evaluate_criterion(criterion, template.with_theta(best.x), data, parts)
    return OptResult(
        theta=best.x,
        objective_value=value,
        converged=best.converged,
        failed_partition_fraction=asc.failed_fraction if asc is not None else None,
    )
