"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the library's closed-form paths: densities
come from scipy.stats or explicit inverses, integrals from adaptive quadrature
or Gauss-Legendre tensor grids, posteriors from explicit ``np.linalg.solve``
on the kernel blocks. Only the data and kernel types and the kernel matrices
themselves come from gpselect.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from gpselect import Dataset, KernelSpec, KernelStructure, kernel_matrix
from gpselect.kernels import noisy_kernel_matrix

LOG_2PI = float(np.log(2.0 * np.pi))


def random_spd(rng, n, eig_lo=0.3, eig_hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(eig_lo, eig_hi, n)
    return (q * eigs) @ q.T


def mvn_logpdf(x, mean, cov) -> float:
    return float(multivariate_normal(mean=mean, cov=cov).logpdf(np.asarray(x, dtype=float)))


def normal_logpdf(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def gauss_legendre_axis(lo, hi, n_nodes):
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    w = 0.5 * (hi - lo) * weights
    return x, w


def log_integral_1d(log_f, lo, hi) -> float:
    """log of integral exp(log_f) over [lo, hi] by adaptive quadrature."""
    grid = np.linspace(lo, hi, 2001)
    vals = np.array([log_f(g) for g in grid])
    shift = float(vals.max())
    peak = float(grid[int(np.argmax(vals))])
    value, _ = quad(
        lambda t: np.exp(log_f(t) - shift),
        lo,
        hi,
        epsabs=1e-300,
        epsrel=1e-11,
        limit=400,
        points=[peak],
    )
    return shift + float(np.log(value))


def log_integral_2d(log_f_vec, lo, hi, n_nodes=400) -> float:
    """log of integral exp(log_f_vec) over a box by tensor Gauss-Legendre.

    ``log_f_vec`` takes a (2, G) array of points and returns (G,) log values.
    """
    x1, w1 = gauss_legendre_axis(lo[0], hi[0], n_nodes)
    x2, w2 = gauss_legendre_axis(lo[1], hi[1], n_nodes)
    p1, p2 = np.meshgrid(x1, x2, indexing="ij")
    pts = np.stack([p1.ravel(), p2.ravel()])
    logw = (np.log(w1)[:, None] + np.log(w2)[None, :]).ravel()
    vals = log_f_vec(pts) + logw
    shift = float(vals.max())
    return shift + float(np.log(np.exp(vals - shift).sum()))


# ---------------------------------------------------------------------------
# random GP instances


def random_kernel(rng, structure=None, noise_lo=0.2, noise_hi=0.7) -> KernelSpec:
    if structure is None:
        structure = rng.choice([s.value for s in KernelStructure])
    return KernelSpec.create(
        structure,
        lengthscale=float(rng.uniform(0.6, 1.6)),
        signal=float(rng.uniform(0.7, 1.4)),
        noise=float(rng.uniform(noise_lo, noise_hi)),
        alpha=float(rng.uniform(0.8, 2.5)),
        period=float(rng.uniform(1.5, 4.0)),
    )


def random_gp_instance(rng, n_lo=6, n_hi=12, structure=None, noise_lo=0.2, noise_hi=0.7):
    """Random model plus data drawn from it (1-D inputs)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    x = rng.uniform(0.0, 6.0, (1, n))
    kern = random_kernel(rng, structure, noise_lo, noise_hi)
    gram = kernel_matrix(kern, x, x)
    f = np.linalg.cholesky(gram + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = f + float(np.exp(kern.log_noise)) * rng.standard_normal(n)
    return kern, Dataset(x, y)


def split_partition_indices(rng, n):
    perm = rng.permutation(n)
    half = (n + 1) // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# ---------------------------------------------------------------------------
# agreement-integral oracles, each for row 0 of a Partitions set

def half_posterior(model, data, parts, which):
    """(mean, cov) of the anchor latents given one half's outputs, by explicit solve."""
    idx = (parts.idx1 if which == 0 else parts.idx2)[0]
    anchors = data.X[:, parts.anchors[0]]
    cross = kernel_matrix(model, data.X[:, idx], anchors)  # (n_i, M)
    gain = np.linalg.solve(noisy_kernel_matrix(model, data.X[:, idx]), cross)
    cov = kernel_matrix(model, anchors, anchors) - cross.T @ gain
    return gain.T @ data.y[idx], 0.5 * (cov + cov.T)


def _half_loglik_vec(kern, data, parts, which):
    """Vectorized half log-likelihood over (M, G) anchor-latent grids.

    Built from plain numpy inverses/Cholesky, independent of the library's
    factorization helpers and normalized-likelihood closed forms.
    """
    idx = (parts.idx1 if which == 0 else parts.idx2)[0]
    y_i = data.y[idx]
    anchors = data.X[:, parts.anchors[0]]
    cov_anchor = kernel_matrix(kern, anchors, anchors)
    cross = kernel_matrix(kern, data.X[:, idx], anchors)  # (n_i, M)
    cov_half = noisy_kernel_matrix(kern, data.X[:, idx])
    coeff = cross @ np.linalg.inv(cov_anchor)  # conditional-mean coefficient
    res_cov = cov_half - coeff @ cross.T
    res_cov = 0.5 * (res_cov + res_cov.T)
    factor = np.linalg.cholesky(res_cov)
    half_logdet = float(np.sum(np.log(np.diag(factor))))
    n_i = y_i.size

    def loglik(pts):
        pts = np.atleast_2d(pts)
        dev = y_i[:, None] - coeff @ pts
        z = solve_triangular(factor, dev, lower=True)
        return -0.5 * (n_i * LOG_2PI + np.sum(z**2, axis=0)) - half_logdet

    return loglik


def _half_loglik_1d(model, data, parts, which):
    """Scalar wrapper over the vectorized half likelihood (single anchor)."""
    loglik_vec = _half_loglik_vec(model, data, parts, which)

    def loglik(f):
        return float(loglik_vec(np.array([[f]]))[0])

    loglik.vec = loglik_vec
    return loglik


def _log_normalizer_1d(loglik, scale) -> float:
    """log integral of exp(loglik) over the real line, widening until covered."""
    loglik_vec = getattr(loglik, "vec", None)
    radius = 50.0 * scale
    grid = vals = None
    for _ in range(20):
        grid = np.linspace(-radius, radius, 4001)
        if loglik_vec is not None:
            vals = loglik_vec(grid.reshape(1, -1))
        else:
            vals = np.array([loglik(g) for g in grid])
        peak_i = int(np.argmax(vals))
        interior = 0 < peak_i < grid.size - 1
        covered = vals[0] < vals[peak_i] - 40 and vals[-1] < vals[peak_i] - 40
        if interior and covered:
            break
        radius *= 4.0
    shift = float(vals.max())
    peak = float(grid[int(np.argmax(vals))])
    value, _ = quad(
        lambda f: np.exp(loglik(f) - shift),
        -radius,
        radius,
        epsabs=1e-300,
        epsrel=1e-11,
        limit=400,
        points=[peak],
    )
    return shift + float(np.log(value))


def oracle_log_eta_bayesian_1d(model, data, parts) -> float:
    anchors = data.X[:, parts.anchors[0]]
    prior_var = float(kernel_matrix(model, anchors, anchors)[0, 0])
    comps = []
    for which in (0, 1):
        mean, cov = half_posterior(model, data, parts, which)
        comps.append((float(mean[0]), float(cov[0, 0])))
    comps.append((0.0, prior_var))

    def log_f(f):
        return float(sum(normal_logpdf(f, m, v) for m, v in comps))

    sds = [np.sqrt(v) for _, v in comps]
    lo = min(m - 12 * s for (m, _), s in zip(comps, sds))
    hi = max(m + 12 * s for (m, _), s in zip(comps, sds))
    return log_integral_1d(log_f, lo, hi)


def oracle_log_eta_beta_noise_1d(model, data, parts) -> float:
    anchors = data.X[:, parts.anchors[0]]
    prior_var = float(kernel_matrix(model, anchors, anchors)[0, 0])
    sd = float(np.sqrt(prior_var))
    logliks = [_half_loglik_1d(model, data, parts, w) for w in (0, 1)]
    log_zs = [_log_normalizer_1d(ll, sd) for ll in logliks]

    def log_f(f):
        total = normal_logpdf(f, 0.0, prior_var)
        for ll, lz in zip(logliks, log_zs):
            total += ll(f) - lz
        return float(total)

    return log_integral_1d(log_f, -12 * sd, 12 * sd)


def _scan_peak_2d(loglik, sd, radius=40.0, zooms=8):
    """Locate the peak of a smooth 2-D log function by iterative grid zoom."""
    center = np.zeros(2)
    r = radius * sd
    for _ in range(zooms):
        ax = np.linspace(-r, r, 81)
        p1, p2 = np.meshgrid(center[0] + ax, center[1] + ax, indexing="ij")
        pts = np.stack([p1.ravel(), p2.ravel()])
        vals = loglik(pts)
        best = int(np.argmax(vals))
        center = pts[:, best]
        r = r / 4.0
    return center


def _log_normalizer_2d(loglik, sd) -> float:
    peak = _scan_peak_2d(loglik, sd)
    # local widths from second differences at the peak
    widths = []
    for k in range(2):
        h = 1e-3 * sd
        e = np.zeros(2)
        e[k] = h
        pts = np.stack([peak - e, peak, peak + e], axis=1)
        v = loglik(pts)
        curv = max((2 * v[1] - v[0] - v[2]) / h**2, 1e-12 / sd**2)
        widths.append(1.0 / np.sqrt(curv))
    lo = [peak[k] - 12 * widths[k] for k in range(2)]
    hi = [peak[k] + 12 * widths[k] for k in range(2)]
    coarse = log_integral_2d(loglik, lo, hi, n_nodes=300)
    fine = log_integral_2d(loglik, lo, hi, n_nodes=450)
    assert abs(coarse - fine) < 1e-8, "2-D normalizer did not converge"
    return fine


def oracle_log_eta_beta_noise_2d(model, data, parts) -> float:
    anchors = data.X[:, parts.anchors[0]]
    prior_cov = kernel_matrix(model, anchors, anchors)
    prior = multivariate_normal(mean=np.zeros(2), cov=prior_cov)
    sd = float(np.sqrt(np.max(np.diag(prior_cov))))
    logliks = [_half_loglik_vec(model, data, parts, w) for w in (0, 1)]
    log_zs = [_log_normalizer_2d(ll, sd) for ll in logliks]
    peaks = [_scan_peak_2d(ll, sd) for ll in logliks]

    def log_f(pts):
        total = prior.logpdf(pts.T)
        for ll, lz in zip(logliks, log_zs):
            total = total + ll(pts) - lz
        return total

    prior_sds = np.sqrt(np.diag(prior_cov))
    centers = [np.zeros(2)] + peaks
    spreads = [prior_sds] * (1 + len(peaks))
    lo = [min(c[k] - 8 * s[k] for c, s in zip(centers, spreads)) for k in range(2)]
    hi = [max(c[k] + 8 * s[k] for c, s in zip(centers, spreads)) for k in range(2)]
    return log_integral_2d(log_f, lo, hi, n_nodes=400)


def oracle_log_eta_bayesian_2d(model, data, parts) -> float:
    anchors = data.X[:, parts.anchors[0]]
    prior_cov = kernel_matrix(model, anchors, anchors)
    comps = [(np.zeros(2), prior_cov)]
    for which in (0, 1):
        comps.append(half_posterior(model, data, parts, which))
    mvns = [multivariate_normal(mean=m, cov=c) for m, c in comps]

    def log_f(pts):
        return sum(mvn.logpdf(pts.T) for mvn in mvns)

    lo = [min(m[k] - 8 * np.sqrt(c[k, k]) for m, c in comps) for k in range(2)]
    hi = [max(m[k] + 8 * np.sqrt(c[k, k]) for m, c in comps) for k in range(2)]
    return log_integral_2d(log_f, lo, hi, n_nodes=400)


def maxent_half_moments(model, data, parts, which):
    """(mean, cov) of one half's likelihood N(A^T f | y_i, Sigma_i), normalized over f.

    A = K_aa^-1 K_ai and Sigma_i = K_ii + sigma_n^2 I - K_ia A, all by explicit
    inverses.
    """
    idx = (parts.idx1 if which == 0 else parts.idx2)[0]
    anchors = data.X[:, parts.anchors[0]]
    cross = kernel_matrix(model, anchors, data.X[:, idx])  # (M, n_i)
    a_map = np.linalg.inv(kernel_matrix(model, anchors, anchors)) @ cross
    sigma_inv = np.linalg.inv(noisy_kernel_matrix(model, data.X[:, idx]) - cross.T @ a_map)
    cov = np.linalg.inv(a_map @ sigma_inv @ a_map.T)
    return cov @ a_map @ sigma_inv @ data.y[idx], 0.5 * (cov + cov.T)


def dense_log_eta(model, data, parts, bayesian: bool) -> float:
    """log agreement of one partition in moment form, by explicit inverses.

    The half posteriors over the anchor latents are :func:`half_posterior`
    (Bayesian) or :func:`maxent_half_moments` (maximum entropy). The integral
    of both halves times the prior then factors into two scipy densities:
    N(m1 | m2, S1 + S2) N(m12 | 0, S12 + K_aa), where (m12, S12) are the
    moments of the normalized product of the halves.
    """
    anchors = data.X[:, parts.anchors[0]]
    half = half_posterior if bayesian else maxent_half_moments
    (m1, s1), (m2, s2) = (half(model, data, parts, which) for which in (0, 1))
    p1, p2 = np.linalg.inv(s1), np.linalg.inv(s2)
    s12 = np.linalg.inv(p1 + p2)
    m12 = s12 @ (p1 @ m1 + p2 @ m2)
    prior_cov = kernel_matrix(model, anchors, anchors)
    second = mvn_logpdf(m12, np.zeros(m12.size), 0.5 * (s12 + s12.T) + prior_cov)
    return mvn_logpdf(m1, m2, s1 + s2) + second


# ---------------------------------------------------------------------------
# evidence and LOO by explicit inverse, with their analytic gradients

def gram_partials_oracle(kern: KernelSpec, data: Dataset) -> list[np.ndarray]:
    """dK/dtheta in log-parameter space, noise last, from explicit distance formulas."""
    x = data.X
    diff = x[:, :, None] - x[:, None, :]
    sq = np.maximum(np.einsum("dpq,dpq->pq", diff, diff), 0.0)
    dist = np.sqrt(sq)
    gram = kernel_matrix(kern, x, x)
    params = np.exp(kern.log_params)
    structure = kern.structure
    if structure is KernelStructure.SQUARED_EXPONENTIAL:
        ell, _ = params
        partials = [gram * sq / ell**2, 2.0 * gram]
    elif structure is KernelStructure.RATIONAL_QUADRATIC:
        ell, _, alpha_p = params
        u = sq / (2.0 * alpha_p * ell**2)
        partials = [
            gram * 2.0 * alpha_p * u / (1.0 + u),
            2.0 * gram,
            alpha_p * gram * (u / (1.0 + u) - np.log1p(u)),
        ]
    elif structure is KernelStructure.EXPONENTIAL:
        ell, _ = params
        partials = [gram * dist / ell, 2.0 * gram]
    elif structure is KernelStructure.PERIODIC:
        ell, period, _ = params
        angle = np.pi * dist / period
        partials = [
            gram * 4.0 * np.sin(angle) ** 2 / ell**2,
            gram * (2.0 * np.pi * dist / (ell**2 * period)) * np.sin(2.0 * angle),
            2.0 * gram,
        ]
    else:  # pragma: no cover
        raise ValueError(structure)
    partials.append(2.0 * kern.noise_variance * np.eye(data.n))
    return partials


def evidence_gradient_oracle(kern: KernelSpec, data: Dataset, cov=None) -> np.ndarray:
    """d log p(y|X) / d theta in log-parameter space, via the trace identity.

    ``cov`` replaces the output covariance K + sigma_n^2 I, e.g. by the
    jittered matrix a factorization actually used.
    """
    cov = noisy_kernel_matrix(kern, data.X) if cov is None else cov
    inv = np.linalg.inv(cov)
    alpha = inv @ data.y
    trace_mat = np.outer(alpha, alpha) - inv
    return np.array([0.5 * float(np.sum(trace_mat * p)) for p in gram_partials_oracle(kern, data)])


def log_evidence_oracle(cov, y) -> float:
    """log N(y | 0, cov) by explicit inverse and slogdet."""
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * (y @ np.linalg.inv(cov) @ y + logdet + y.size * LOG_2PI))


def loo_oracle(kern: KernelSpec, data: Dataset, cov=None) -> tuple[float, np.ndarray]:
    """Negative mean LOO log predictive density and its gradient, by explicit inverse.

    The value is GPML eqs. 5.10-5.12; the gradient is eq. 5.13 summed fold by
    fold, with Z_j = K^-1 dK/dtheta_j. ``cov`` as in ``evidence_gradient_oracle``.
    """
    cov = noisy_kernel_matrix(kern, data.X) if cov is None else cov
    inv = np.linalg.inv(cov)
    q = np.diag(inv)
    alpha = inv @ data.y
    value = -float(np.mean(normal_logpdf(data.y, data.y - alpha / q, 1.0 / q)))
    grad = []
    for partial in gram_partials_oracle(kern, data):
        z = inv @ partial
        per_fold = (alpha * (z @ alpha) - 0.5 * (1.0 + alpha**2 / q) * np.diag(z @ inv)) / q
        grad.append(-float(np.sum(per_fold)) / data.n)
    return value, np.array(grad)


# ---------------------------------------------------------------------------
# bit-for-bit references: the same arithmetic written another way


def old_params_accepted(log_params) -> bool:
    """KernelSpec's log-parameter test written over whole arrays: every entry
    finite and exponentiating to a finite value."""
    p = np.asarray(log_params, dtype=float)
    return bool(np.all(np.isfinite(p)) and np.all(np.isfinite(np.exp(p))))


def old_noise_accepted(log_noise) -> bool:
    """KernelSpec's log-noise test written out: not NaN, and exp finite (so -inf passes)."""
    return not (np.isnan(log_noise) or not np.isfinite(np.exp(log_noise)))


def closed_form_kernel(structure, log_params, xa, xb) -> np.ndarray:
    """Each structure's Gram written out as the benchmark's independent output
    check writes it: squared distances summed one input dimension at a time,
    natural parameters from one exp, one closed form per structure (rq without
    its underflow branch)."""
    sq = np.zeros((xa.shape[1], xb.shape[1]))
    for d in range(xa.shape[0]):
        sq += (xa[d][:, None] - xb[d][None, :]) ** 2
    p = np.exp(np.asarray(log_params, dtype=float))
    structure = KernelStructure(structure)
    if structure is KernelStructure.SQUARED_EXPONENTIAL:
        ell, sf = p
        return sf**2 * np.exp(-0.5 * sq / ell**2)
    if structure is KernelStructure.RATIONAL_QUADRATIC:
        ell, sf, alpha = p
        return sf**2 * (1.0 + sq / (2.0 * alpha * ell**2)) ** (-alpha)
    if structure is KernelStructure.EXPONENTIAL:
        ell, sf = p
        return sf**2 * np.exp(-np.sqrt(sq) / ell)
    ell, period, sf = p
    return sf**2 * np.exp(-2.0 * np.sin(np.pi * np.sqrt(sq) / period) ** 2 / ell**2)
