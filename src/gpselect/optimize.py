"""Limited-memory quasi-Newton maximization of the selection criteria.

The evidence and leave-one-out fits use exact gradients computed from the
same factorization as the value; the agreement criteria use central finite
differences. Failed evaluations (singular covariances, all partitions failed)
act as an infinite penalty that the line search backs away from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criteria import AscConfig, AscScore, AscVariant, average_log_eta, sample_partitions
from .errors import AllPartitionsFailed, OptimizationFailed, RankDeficient, SingularCovariance
from .kernels import KernelSpec
from .regression import (
    Dataset,
    log_evidence,
    log_evidence_and_grad,
    loo_cv_and_grad,
    loo_cv_objective,
)

_NUMERICAL_FAILURES = (SingularCovariance, RankDeficient, AllPartitionsFailed)

# Any |theta| beyond this would overflow/underflow exp(); treat as failed.
_THETA_BOUND = 300.0


class Criterion(str, Enum):
    EVIDENCE = "evidence"
    LOO = "loo"
    BAYESIAN_ASC = "basc"
    BETA_NOISE_ASC = "bnasc"


_ASC_VARIANTS = {
    Criterion.BAYESIAN_ASC: AscVariant.BAYESIAN,
    Criterion.BETA_NOISE_ASC: AscVariant.BETA_NOISE,
}

# +1: larger is better (maximize); -1: smaller is better (minimize).
_DIRECTION = {
    Criterion.EVIDENCE: 1.0,
    Criterion.LOO: -1.0,
    Criterion.BAYESIAN_ASC: 1.0,
    Criterion.BETA_NOISE_ASC: 1.0,
}


def criterion_direction(criterion: Criterion) -> float:
    return _DIRECTION[Criterion(criterion)]


@dataclass(frozen=True)
class ObjectiveSpec:
    criterion: Criterion
    asc_config: AscConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "criterion", Criterion(self.criterion))
        if self.criterion in _ASC_VARIANTS and self.asc_config is None:
            raise ValueError(f"criterion {self.criterion.value} requires an AscConfig")

    @property
    def direction(self) -> float:
        return criterion_direction(self.criterion)


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
    if parts is None:
        raise ValueError("agreement criteria need a list of partitions")
    score = average_log_eta(kernel, data, parts, _ASC_VARIANTS[criterion])
    return score.value, score


def finite_diff_gradient(f, theta, h_rel: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient with per-coordinate relative step.

    Coordinates whose probes are non-finite get gradient 0 and are flagged in
    the returned boolean mask.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(theta.size)
    degenerate = np.zeros(theta.size, dtype=bool)
    for k in range(theta.size):
        h = h_rel * max(abs(theta[k]), 1.0)
        probe = theta.copy()
        probe[k] = theta[k] + h
        f_plus = f(probe)
        probe[k] = theta[k] - h
        f_minus = f(probe)
        if np.isfinite(f_plus) and np.isfinite(f_minus):
            grad[k] = (f_plus - f_minus) / (2.0 * h)
        else:
            degenerate[k] = True
    return grad, degenerate


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    x: np.ndarray
    fun: float
    converged: bool
    n_iter: int


def _zoom(f, grad_dot, lo, hi, phi_lo, phi0, dphi0, c1, c2, max_iter=30):
    """Refine a bracketing interval until the strong Wolfe conditions hold."""
    result = None
    for _ in range(max_iter):
        alpha = 0.5 * (lo + hi)
        phi_a = f(alpha)
        if not np.isfinite(phi_a) or phi_a > phi0 + c1 * alpha * dphi0 or phi_a >= phi_lo:
            hi = alpha
        else:
            dphi_a, g_a = grad_dot(alpha)
            if abs(dphi_a) <= -c2 * dphi0:
                return alpha, phi_a, g_a
            if dphi_a * (hi - lo) >= 0:
                hi = lo
            lo, phi_lo = alpha, phi_a
            result = (alpha, phi_a, g_a)
        if abs(hi - lo) < 1e-14 * max(1.0, abs(lo)):
            break
    # settle for the best sufficient-decrease point found, if any
    return result


def _wolfe_search(f_line, grad_dot, phi0, dphi0, c1=1e-4, c2=0.9, alpha_max=1e3, max_iter=25):
    """Strong Wolfe line search; returns (alpha, f, gradient) or None."""
    alpha_prev, phi_prev = 0.0, phi0
    alpha = 1.0
    for i in range(max_iter):
        phi_a = f_line(alpha)
        if not np.isfinite(phi_a) or phi_a > phi0 + c1 * alpha * dphi0 or (i > 0 and phi_a >= phi_prev):
            return _zoom(f_line, grad_dot, alpha_prev, alpha, phi_prev, phi0, dphi0, c1, c2)
        dphi_a, g_a = grad_dot(alpha)
        if abs(dphi_a) <= -c2 * dphi0:
            return alpha, phi_a, g_a
        if dphi_a >= 0:
            return _zoom(f_line, grad_dot, alpha, alpha_prev, phi_a, phi0, dphi0, c1, c2)
        alpha_prev, phi_prev = alpha, phi_a
        if alpha >= alpha_max:
            return alpha, phi_a, g_a
        alpha = min(2.0 * alpha, alpha_max)
    return None


def lbfgs_minimize(
    f,
    x0,
    *,
    history: int = 10,
    gtol: float = 1e-5,
    stall_rtol: float = 1e-9,
    stall_window: int = 3,
    maxiter: int = 200,
    h_rel: float = 1e-5,
    jac=None,
) -> MinimizeResult:
    """Minimize f with L-BFGS and strong Wolfe steps.

    ``jac(x)`` returns the gradient of f at x; it is only asked for at points
    where f was just evaluated and found finite. Without it, gradients are
    central finite differences of f with relative step ``h_rel``.

    Stops on gradient infinity-norm below ``gtol``, on relative objective
    change below ``stall_rtol`` over ``stall_window`` iterations, or after
    ``maxiter`` iterations (then ``converged`` is False).
    """
    if jac is None:

        def jac(point):
            return finite_diff_gradient(f, point, h_rel)[0]

    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    if not np.isfinite(fx):
        return MinimizeResult(x=x, fun=fx, converged=False, n_iter=0)
    grad = jac(x)
    s_hist: deque = deque(maxlen=history)
    y_hist: deque = deque(maxlen=history)
    rho_hist: deque = deque(maxlen=history)
    trail = [fx]
    converged = False
    iterations = 0
    for iterations in range(1, maxiter + 1):
        if np.max(np.abs(grad)) < gtol:
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
        if not np.all(np.isfinite(direction)) or direction @ grad >= 0:
            s_hist.clear(), y_hist.clear(), rho_hist.clear()
            direction = -grad

        def f_line(alpha):
            return f(x + alpha * direction)

        def grad_dot(alpha):
            g_a = jac(x + alpha * direction)
            return g_a @ direction, g_a

        step = _wolfe_search(f_line, grad_dot, fx, grad @ direction)
        if step is None:
            break
        alpha, f_new, g_new = step
        s = alpha * direction
        yv = g_new - grad
        sy = s @ yv
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
        x = x + s
        fx, grad = f_new, g_new
        trail.append(fx)
        if len(trail) > stall_window and abs(trail[-1] - trail[-1 - stall_window]) < stall_rtol * (
            1.0 + abs(fx)
        ):
            converged = True
            break
    return MinimizeResult(x=x, fun=fx, converged=converged, n_iter=iterations)


def optimize(
    obj: ObjectiveSpec,
    template: KernelSpec,
    data: Dataset,
    restarts: int,
    seed,
) -> OptResult:
    """Multi-restart L-BFGS over log-space hyperparameters.

    Initial points are uniform on [-2, 2] per coordinate. Agreement criteria
    sample their partitions once up front and hold them fixed, keeping the
    objective deterministic. Raises OptimizationFailed if no restart reaches
    a finite objective.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    parts = None
    if obj.criterion in _ASC_VARIANTS:
        parts = sample_partitions(data.n, obj.asc_config)
    dim = template.log_params.size + 1

    # exact gradients where there is a closed form; None: finite differences
    value_and_grad = {
        Criterion.EVIDENCE: log_evidence_and_grad,
        Criterion.LOO: loo_cv_and_grad,
    }.get(obj.criterion)
    # One entry: the minimized gradient at the last point f_min evaluated. The
    # line search asks for a gradient only where it has just evaluated f.
    memo: dict[bytes, np.ndarray] = {}

    def f_min(theta):
        theta = np.asarray(theta, dtype=float)
        memo.clear()
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > _THETA_BOUND:
            return np.inf
        try:
            if value_and_grad is None:
                value, _ = evaluate_criterion(obj.criterion, template.with_theta(theta), data, parts)
            else:
                value, grad = value_and_grad(template.with_theta(theta), data)
                memo[theta.tobytes()] = -obj.direction * grad
        except _NUMERICAL_FAILURES:
            return np.inf
        return -obj.direction * value

    def jac(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if key not in memo:
            f_min(theta)
        return memo[key]

    rng = np.random.default_rng(seed)
    inits = rng.uniform(-2.0, 2.0, size=(restarts, dim))
    best: MinimizeResult | None = None
    for i in range(restarts):
        result = lbfgs_minimize(f_min, inits[i], jac=None if value_and_grad is None else jac)
        if not np.isfinite(result.fun):
            continue
        if best is None or result.fun < best.fun - 1e-12:
            best = result
    if best is None:
        raise OptimizationFailed(f"no finite objective over {restarts} restarts")
    value, asc = evaluate_criterion(obj.criterion, template.with_theta(best.x), data, parts)
    return OptResult(
        theta=best.x,
        objective_value=value,
        converged=best.converged,
        failed_partition_fraction=asc.failed_fraction if asc is not None else None,
    )
