"""Independent output check for one ``gpselect rank`` op.

Nothing here imports gpselect. The replicate data are regenerated from the
program's documented seeding (numpy ``SeedSequence`` children, uniform 1-D
teacher inputs, a jitter-ladder Cholesky draw, CSV standardization), and every
score is recomputed at the reported hyperparameters by a different route than
the program takes: the evidence through ``scipy.stats.multivariate_normal``,
LOO by explicit per-fold conditioning, MSLL from the marginal predictive via
``numpy.linalg.solve``, and the two agreement criteria with explicit inverses
and a pairwise reduction of the Gaussian product integral.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, rankdata

from workloads import TEACHERS

RTOL = 1e-6
# At a covariance worse conditioned than this a score is dominated by round-off
# (two routes differ in the second digit), so only its finiteness is checked.
COND_STRICT = 1e8
LOG_2PI = math.log(2.0 * math.pi)
STUDENTS = ("se", "rq", "exp", "per")
HIGHER_BETTER = {"evidence": True, "loo": False, "basc": True, "bnasc": True, "msll": False}
_JITTER_SCALES = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_INPUT_RANGE = (0.0, 10.0)
_ASC_M, _ASC_J = 2, 32


def derived_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    out = np.zeros((xa.shape[1], xb.shape[1]))
    for d in range(xa.shape[0]):
        out += (xa[d][:, None] - xb[d][None, :]) ** 2
    return out


def kernel(structure: str, log_params, xa, xb) -> np.ndarray:
    sq = sq_dists(xa, xb)
    p = np.exp(np.asarray(log_params, dtype=float))
    if structure == "se":
        ell, sf = p
        return sf**2 * np.exp(-0.5 * sq / ell**2)
    if structure == "rq":
        ell, sf, alpha = p
        return sf**2 * (1.0 + sq / (2.0 * alpha * ell**2)) ** (-alpha)
    if structure == "exp":
        ell, sf = p
        return sf**2 * np.exp(-np.sqrt(sq) / ell)
    if structure == "per":
        ell, period, sf = p
        return sf**2 * np.exp(-2.0 * np.sin(np.pi * np.sqrt(sq) / period) ** 2 / ell**2)
    raise ValueError(f"unknown kernel {structure!r}")


def ladder(mat: np.ndarray):
    """(factor, matrix factored, rung) under the program's documented jitter ladder, or None."""
    sym = 0.5 * (mat + mat.T)
    n = sym.shape[0]
    base = np.trace(sym) / n
    if not np.isfinite(base) or base <= 0.0:
        base = 1.0
    for rung, scale in enumerate(_JITTER_SCALES):
        used = sym if scale == 0.0 else sym + (scale * base) * np.eye(n)
        try:
            return np.linalg.cholesky(used), used, rung
        except np.linalg.LinAlgError:
            continue
    return None


def teacher_log_params(group: int) -> tuple[str, np.ndarray, float]:
    name, extra = TEACHERS[group]
    natural = {"lengthscale": 1.0, "signal": 1.0, "alpha": None, "period": None}
    for flag, value in zip(extra[::2], extra[1::2]):
        natural[flag.lstrip("-")] = float(value)
    order = {
        "se": ("lengthscale", "signal"),
        "rq": ("lengthscale", "signal", "alpha"),
        "exp": ("lengthscale", "signal"),
        "per": ("lengthscale", "period", "signal"),
    }[name]
    return name, np.array([np.log(natural[k]) for k in order]), float(np.log(0.1))


def synthetic_replicate(group: int, seed: int, r: int, n_train: int, n_test: int):
    """Teacher draw of replicate r, or None when the teacher covariance does not factor."""
    name, log_params, log_noise = teacher_log_params(group)
    rng = np.random.default_rng(derived_seed(seed, r, 0))
    total = n_train + n_test
    x = rng.uniform(_INPUT_RANGE[0], _INPUT_RANGE[1], size=(1, total))
    factored = ladder(kernel(name, log_params, x, x))
    if factored is None:
        return None
    f = np.zeros(total) + factored[0] @ rng.standard_normal(total)
    y = f + float(np.exp(log_noise)) * rng.standard_normal(total)
    return x[:, :n_train], y[:n_train], x[:, n_train:], y[n_train:]


def load_standardized(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    raw, y = values[:, :-1].T, values[:, -1]
    scale = raw.std(axis=1)
    scale[scale == 0.0] = 1.0
    return (raw - raw.mean(axis=1)[:, None]) / scale[:, None], y


def csv_replicate(X: np.ndarray, y: np.ndarray, seed: int, r: int, n_train: int, n_test: int):
    perm = np.random.default_rng(derived_seed(seed, r, 0)).permutation(y.size)
    tr, te = perm[:n_train], perm[n_train : n_train + min(n_test, y.size - n_train)]
    return X[:, tr], y[tr], X[:, te], y[te]


def _noisy(structure, theta, X) -> np.ndarray:
    return kernel(structure, theta[:-1], X, X) + np.exp(2.0 * theta[-1]) * np.eye(X.shape[1])


def log_evidence(cov: np.ndarray, y: np.ndarray) -> float:
    if np.linalg.cond(cov) <= COND_STRICT:
        return float(multivariate_normal(mean=np.zeros(y.size), cov=cov).logpdf(y))
    # multivariate_normal rejects such matrices as singular; use an LU solve instead
    return float(-0.5 * (y @ np.linalg.solve(cov, y) + np.linalg.slogdet(cov)[1] + y.size * LOG_2PI))


def loo(cov: np.ndarray, y: np.ndarray) -> float:
    """Negative mean LOO log predictive density, conditioning each fold explicitly."""
    n = y.size
    log_pred = np.empty(n)
    for k in range(n):
        rest = np.arange(n) != k
        cross = cov[rest, k]
        sol = np.linalg.solve(cov[np.ix_(rest, rest)], np.column_stack([y[rest], cross]))
        mean = cross @ sol[:, 0]
        var = cov[k, k] - cross @ sol[:, 1]
        log_pred[k] = -0.5 * (LOG_2PI + np.log(var) + (y[k] - mean) ** 2 / var)
    return float(-np.mean(log_pred))


def msll(cov: np.ndarray, cross: np.ndarray, prior_var: np.ndarray, ytr, yte) -> float:
    """MSLL from the marginal predictive at each test point."""
    sol = np.linalg.solve(cov, np.column_stack([ytr, cross]))
    mean = cross.T @ sol[:, 0]
    var = prior_var - np.einsum("np,np->p", cross, sol[:, 1:])
    base_mean, base_var = float(np.mean(ytr)), float(np.var(ytr))
    loss_model = 0.5 * (LOG_2PI + np.log(var) + (yte - mean) ** 2 / var)
    loss_base = 0.5 * (LOG_2PI + np.log(base_var) + (yte - base_mean) ** 2 / base_var)
    return float(np.mean(loss_model - loss_base))


def expected_scores(structure, theta, Xtr, ytr, Xte, yte, columns) -> dict:
    """Column -> (expected value, strict) for evidence, LOO and MSLL at ``theta``.

    The value is None where the program must report NaN because a covariance
    it factors exhausts the jitter ladder. ``strict`` is False where the
    matrices are too ill-conditioned for the value to be reproducible.
    """
    factored = ladder(_noisy(structure, theta, Xtr))
    if factored is None:
        return {col: (None, True) for col in ("evidence", "loo", "msll") if col in columns}
    cov = factored[1]
    strict = np.linalg.cond(cov) <= COND_STRICT
    out = {}
    if "evidence" in columns:
        out["evidence"] = (log_evidence(cov, ytr), strict)
    if "loo" in columns:
        out["loo"] = (loo(cov, ytr), strict)
    cross = kernel(structure, theta[:-1], Xtr, Xte)
    test_cov = _noisy(structure, theta, Xte)
    # predict factors the full test covariance although msll reads only its diagonal
    predictive = ladder(test_cov - cross.T @ np.linalg.solve(cov, cross))
    if predictive is None:
        out["msll"] = (None, True)
    else:
        value = msll(cov, cross, np.diag(test_cov), ytr, yte)
        out["msll"] = (value, bool(strict and predictive[2] == 0))
    return out


def partitions(n: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(_ASC_J):
        perm = rng.permutation(n)
        half = (n + 1) // 2
        anchors = rng.choice(n, size=_ASC_M, replace=False)
        out.append((np.sort(perm[:half]), np.sort(perm[half:]), np.sort(anchors)))
    return out


class IllPosed(Exception):
    """A matrix the dense route must invert is too ill-conditioned to compare at RTOL."""


def _inv(mat: np.ndarray) -> np.ndarray:
    if np.linalg.cond(mat) > COND_STRICT:
        raise IllPosed
    return np.linalg.inv(mat)


def _log_pair(m1, s1, m2, s2):
    """log of integral N(x|m1,s1) N(x|m2,s2) dx, and the normalized product's moments."""
    value = multivariate_normal(mean=m2, cov=s1 + s2).logpdf(m1)
    p1, p2 = _inv(s1), _inv(s2)
    cov = _inv(p1 + p2)
    return float(value), cov @ (p1 @ m1 + p2 @ m2), 0.5 * (cov + cov.T)


def log_eta_dense(variant: str, structure: str, theta, X, y, part) -> float:
    gram = kernel(structure, theta[:-1], X, X)
    noise = np.exp(2.0 * theta[-1])
    idx1, idx2, a = part
    k_aa = gram[np.ix_(a, a)]
    k_aa_inv = _inv(k_aa)
    comps = []
    for idx in (idx1, idx2):
        k_i = gram[np.ix_(idx, idx)] + noise * np.eye(idx.size)
        cross = gram[np.ix_(idx, a)]
        if variant == "basc":
            k_i_inv = _inv(k_i)
            mean = cross.T @ k_i_inv @ y[idx]
            cov = k_aa - cross.T @ k_i_inv @ cross
        else:
            amap = k_aa_inv @ cross.T
            sigma_inv = _inv(k_i - cross @ amap)
            cov = _inv(amap @ sigma_inv @ amap.T)
            mean = cov @ (amap @ sigma_inv @ y[idx])
        comps.append((mean, 0.5 * (cov + cov.T)))
    (m1, s1), (m2, s2) = comps
    first, m12, s12 = _log_pair(m1, s1, m2, s2)
    second, _, _ = _log_pair(m12, s12, np.zeros(a.size), k_aa)
    return first + second


def asc_dense(variant, structure, theta, X, y, parts) -> float:
    """Partition-averaged agreement; raises IllPosed if any partition is ill-conditioned."""
    values = np.array([log_eta_dense(variant, structure, theta, X, y, p) for p in parts])
    return float(logsumexp(values) - np.log(values.size))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def midranks(values, higher_better: bool) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr = np.where(np.isnan(arr), -np.inf if higher_better else np.inf, arr)
    return rankdata(-arr if higher_better else arr, method="average")


@dataclass
class OpCheck:
    problems: list = field(default_factory=list)
    fits_failed: int = 0
    asc_checked: int = 0
    asc_unchecked: int = 0  # agreement scores with failed partitions or IllPosed matrices
    unverified: int = 0  # finite scores at covariances worse conditioned than COND_STRICT
    regret: float = 0.0  # largest shortfall below the golden fit value, clipped at 0
    # fit-criterion value per surviving replicate and student; None where the
    # fit failed or its value is not reproducible (see COND_STRICT)
    fit_values: list = field(default_factory=list)


def _num(v) -> float:
    return float("nan") if v is None else float(v)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_rank_report(report, workload, op, csv_data, golden, check_asc: bool) -> OpCheck:
    """Check one rank report against independent recomputation.

    ``csv_data`` is the standardized (X, y) of the op's dataset (rank_csv) or
    None (rank_synth); ``golden`` is the op's entry of ``golden_<workload>.json``
    (or None), whose ``fit`` values the achieved ones are held against.
    """
    out = OpCheck()
    bad = out.problems.append
    columns = list(workload.criteria) + ["msll"]
    if report.get("students") != list(STUDENTS) or report.get("columns") != columns:
        bad(f"students/columns {report.get('students')}/{report.get('columns')}")
        return out
    R = workload.replicates
    if csv_data is None:
        draws = [synthetic_replicate(op.group, op.seed, r, workload.n_train, workload.n_test) for r in range(R)]
    else:
        draws = [csv_replicate(*csv_data, op.seed, r, workload.n_train, workload.n_test) for r in range(R)]
    survivors = [(r, d) for r, d in enumerate(draws) if d is not None]
    reps = report.get("replicates", [])
    if len(reps) != len(survivors) or report.get("failed_replicates") != R - len(survivors):
        bad(f"{len(reps)} replicates reported, {len(survivors)} expected")
        return out
    out.fits_failed += (R - len(survivors)) * len(STUDENTS)
    direction = 1.0 if HIGHER_BETTER[workload.fit_criterion] else -1.0
    for i, ((r, (Xtr, ytr, Xte, yte)), rep) in enumerate(zip(survivors, reps)):
        scores = {col: {s: _num(v) for s, v in rep["scores"][col].items()} for col in columns}
        failures = set(rep["fit_failures"])
        out.fits_failed += len(failures)
        out.fit_values.append([None] * len(STUDENTS))
        parts = None
        for s_idx, s in enumerate(STUDENTS):
            theta = rep["theta"][s]
            if (theta is None) != (s in failures):
                bad(f"rep {r} {s}: theta/fit_failures disagree")
                continue
            if theta is None:
                if not all(math.isnan(scores[c][s]) for c in columns):
                    bad(f"rep {r} {s}: failed fit has scores")
                continue
            theta = np.asarray(theta, dtype=float)
            for col, (want, strict) in expected_scores(s, theta, Xtr, ytr, Xte, yte, columns).items():
                got = scores[col][s]
                if want is None or math.isnan(got):
                    if want is not None or not math.isnan(got):
                        bad(f"rep {r} {s} {col}: {got!r}, but the covariance {'fails' if want is None else 'factors'}")
                    continue
                if not strict:
                    out.unverified += 1
                    continue
                if not close(got, want):
                    bad(f"rep {r} {s} {col}: {got!r} != {want!r}")
                if col == workload.fit_criterion:
                    out.fit_values[-1][s_idx] = got
                    g = golden["fit"][i][s_idx] if golden is not None else None
                    if g is not None:
                        out.regret = max(out.regret, direction * (g - got))
            for col in ("basc", "bnasc"):
                if not check_asc or col not in columns:
                    continue
                if rep["asc_failed_fraction"].get(col, {}).get(s) or math.isnan(scores[col][s]):
                    out.asc_unchecked += 1
                    continue
                if parts is None:
                    parts = partitions(ytr.size, derived_seed(derived_seed(op.seed, r), 1))
                try:
                    want = asc_dense(col, s, theta, Xtr, ytr, parts)
                except IllPosed:
                    out.asc_unchecked += 1
                    continue
                out.asc_checked += 1
                if not close(scores[col][s], want):
                    bad(f"rep {r} {s} {col}: {scores[col][s]!r} != {want!r}")
        if any(not _same(_num(rep["test_msll"][s]), scores["msll"][s]) for s in STUDENTS):
            bad(f"rep {r}: test_msll differs from the msll column")
        for col in columns:
            ranks = midranks([scores[col][s] for s in STUDENTS], HIGHER_BETTER[col])
            for s, want_rank in zip(STUDENTS, ranks):
                if rep["ranks"][col][s] != float(want_rank):
                    bad(f"rep {r} {col} {s}: rank {rep['ranks'][col][s]} != {want_rank}")
    for col in columns:
        for s in STUDENTS:
            vals = np.array([rep["ranks"][col][s] for rep in reps])
            agg = report["aggregate"][col][s]
            ci = 1.96 * np.std(vals, ddof=1) / np.sqrt(vals.size) if vals.size > 1 else 0.0
            if not (close(agg["mean_rank"], float(np.mean(vals))) and close(agg["ci_halfwidth"], float(ci))):
                bad(f"aggregate {col} {s}: {agg} from ranks {vals.tolist()}")
    return out
