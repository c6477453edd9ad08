"""Experiment orchestration: synthetic teachers, kernel ranking, CSV ingestion.

A ranking experiment fits every student kernel on the training half of each
replicate under one designated criterion, then scores the fitted models under
all requested criteria plus held-out test loss, and aggregates per-criterion
mean ranks with normal-approximation confidence intervals. Each replicate's
data, partitions and restarts are seeded from the master seed and the
replicate index alone, so a report is deterministic for a given seed.

The rank report is one JSON-ready dict, built by ``run_ranking`` from the
``ExperimentConfig`` that ran; ``write_report`` and ``write_rank_csv`` write
it as it is.

``run_ranking`` draws every replicate's data and partitions, then maps one
task per (replicate, student) pair (fit, score, predict) over a pool of one
forked worker per CPU this process may run on, opened and joined within the
call. Fork, because spawn and forkserver import numpy and scipy again in each
worker: a one-worker pool running one task took about 0.4-0.5 s that way on a
2-core machine, against 0.01 s forked. With one usable CPU (say under
``taskset -c 0``) or no fork start method, the same tasks run in-process.
Either way the results are put back in (replicate, student) order, so the
report bytes are the same.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

from .criteria import AscConfig, Criterion, derived_seed, sample_partitions
from .errors import EmptyData, GpSelectError, OptimizationFailed, SchemaError
from .gaussian import chol_spd
from .kernels import PARAM_NAMES, KernelSpec, KernelStructure, kernel_matrix
from .optimize import FitConfig, evaluate_criterion, optimize
from .regression import Dataset, msll, predict

MSLL_COLUMN = "msll"

# Ranking columns where a larger score is better.
_HIGHER_BETTER = {c.value: c.direction > 0 for c in Criterion} | {MSLL_COLUMN: False}


def kernel_template(structure: KernelStructure | str) -> KernelSpec:
    """Placeholder spec for a structure; the optimizer overwrites the values."""
    structure = KernelStructure(structure)
    return KernelSpec(structure, np.zeros(len(PARAM_NAMES[structure])), 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    students: tuple[KernelStructure, ...]
    criteria: tuple[Criterion, ...]
    replicates: int = 16
    n_train: int = 64
    n_test: int = 256
    asc: AscConfig = field(default_factory=AscConfig)
    seed: int = 0
    teacher: KernelSpec | None = None
    data: Dataset | None = None
    fit: FitConfig = field(default_factory=FitConfig)
    input_range: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        object.__setattr__(self, "students", tuple(KernelStructure(s) for s in self.students))
        object.__setattr__(self, "criteria", tuple(Criterion(c) for c in self.criteria))
        if not self.students:
            raise ValueError("need at least one student kernel")
        for name, entries in (("students", self.students), ("criteria", self.criteria)):
            if len(set(entries)) != len(entries):
                raise ValueError(f"duplicate {name}: {', '.join(e.value for e in entries)}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n_test < 1:
            raise ValueError(f"n_test={self.n_test}, need at least one test point")
        if self.n_train < 1:
            raise ValueError(f"n_train={self.n_train}, need at least one training point")
        if self.n_train < 2 and Criterion.LOO in (*self.criteria, self.fit.criterion):
            raise ValueError(f"n_train={self.n_train} too small for leave-one-out")
        if any(c.is_asc for c in self.criteria) and self.n_train < 2 * self.asc.M:
            raise ValueError(f"n_train={self.n_train} too small for M={self.asc.M}")
        if self.fit.criterion.is_asc:
            raise ValueError("hyperparameters are fitted by evidence or leave-one-out only")
        if (self.teacher is None) == (self.data is None):
            raise ValueError("exactly one of teacher (synthetic) or data (real) must be set")
        if self.data is not None and self.data.n < self.n_train + self.n_test:
            raise ValueError(f"dataset has {self.data.n} rows, need n_train + n_test = {self.n_train + self.n_test}")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(c.value for c in self.criteria) + (MSLL_COLUMN,)


def sample_function_values(kernel: KernelSpec, x, rng) -> np.ndarray:
    """One joint draw of zero-mean latent function values at the given inputs."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    factor, _ = chol_spd(kernel_matrix(kernel, x, x), "prior covariance")
    return factor @ rng.standard_normal(x.shape[1])


def sample_synthetic(
    teacher: KernelSpec,
    n_train: int,
    n_test: int,
    input_range: tuple[float, float] = (0.0, 10.0),
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Teacher draw: uniform 1-D inputs, joint latent sample, additive noise."""
    rng = np.random.default_rng(seed)
    total = n_train + n_test
    x = rng.uniform(input_range[0], input_range[1], size=(1, total))
    f = sample_function_values(teacher, x, rng)
    sigma_n = float(np.exp(teacher.log_noise))
    y = f + sigma_n * rng.standard_normal(total)
    train = Dataset(x[:, :n_train], y[:n_train])
    test = Dataset(x[:, n_train:], y[n_train:])
    return train, test


def _midranks(values, higher_better: bool) -> np.ndarray:
    """Best-first average ranks: a tie group shares the mean of its first and
    last 1-based sorted positions, exact in float64. Missing scores count as worst."""
    arr = np.asarray(values, dtype=float)
    worst = -np.inf if higher_better else np.inf
    arr = np.where(np.isnan(arr), worst, arr)
    keys = -arr if higher_better else arr
    s = np.sort(keys)
    return 0.5 * (np.searchsorted(s, keys, "left") + np.searchsorted(s, keys, "right") + 1)


def _replicate_partitions(cfg: ExperimentConfig, train: Dataset, base: int):
    """The replicate's scoring partitions, drawn only if an agreement criterion is scored."""
    if any(c.is_asc for c in cfg.criteria):
        return sample_partitions(train.n, cfg.asc, derived_seed(base, 1))
    return None


def _fit_and_score(cfg: ExperimentConfig, train: Dataset, test: Dataset, parts, base: int, si: int):
    """One (replicate, student) task: fit student ``si``, score it under every
    column. Returns ``(theta, {column: score}, {criterion: failed partition
    fraction})``; theta is None, and every score NaN, if the fit failed."""
    template = kernel_template(cfg.students[si])
    try:
        fit = optimize(cfg.fit, template, train, derived_seed(base, 2, si))
    except OptimizationFailed:
        return None, dict.fromkeys(cfg.columns, float("nan")), {}
    kernel = template.with_theta(fit.theta)
    scores: dict = {}
    asc_fracs: dict = {}
    for crit in cfg.criteria:
        try:
            value, _, asc = evaluate_criterion(crit, kernel, train, parts)
        except GpSelectError:
            value, asc = float("nan"), None
        scores[crit.value] = float(value)
        if asc is not None:
            asc_fracs[crit.value] = asc.failed_fraction
    try:
        scores[MSLL_COLUMN] = msll(*predict(kernel, train, test.X), test.y, train.y)
    except GpSelectError:
        scores[MSLL_COLUMN] = float("nan")
    return [float(v) for v in fit.theta], scores, asc_fracs


def _replicate_entry(cfg: ExperimentConfig, results: list) -> dict:
    """A replicate's report entry from its ``_fit_and_score`` results, in student order."""
    names = [s.value for s in cfg.students]
    scores = {col: {n: res[1][col] for n, res in zip(names, results)} for col in cfg.columns}
    asc_fracs: dict = {}
    for name, (_, _, fracs) in zip(names, results):
        for crit, frac in fracs.items():
            asc_fracs.setdefault(crit, {})[name] = frac
    thetas = {n: res[0] for n, res in zip(names, results)}
    ranks = {}
    for col, col_scores in scores.items():
        col_ranks = _midranks(list(col_scores.values()), _HIGHER_BETTER[col])
        ranks[col] = {n: float(r) for n, r in zip(col_scores, col_ranks)}
    return {
        "scores": scores,
        "ranks": ranks,
        "test_msll": dict(scores[MSLL_COLUMN]),
        "theta": thetas,
        "fit_failures": [n for n, theta in thetas.items() if theta is None],
        "asc_failed_fraction": asc_fracs,
    }


def rank_students(cfg: ExperimentConfig, train: Dataset, test: Dataset, seed=None) -> dict:
    """Fit and score all student kernels on one train/test replicate, in-process.

    Returns the replicate's report entry: ``scores`` and ``ranks`` as
    ``{column: {student: value}}``, and ``test_msll``, ``theta`` (fitted log
    parameters, None where the fit failed), ``fit_failures`` and
    ``asc_failed_fraction`` (``{criterion: {student: fraction}}``).
    """
    base = cfg.seed if seed is None else seed
    parts = _replicate_partitions(cfg, train, base)
    results = [_fit_and_score(cfg, train, test, parts, base, si) for si in range(len(cfg.students))]
    return _replicate_entry(cfg, results)


def aggregate_ranks(replicates: list[dict]) -> dict:
    """Mean rank and 95% half-width (1.96 * sd / sqrt(R)) of ``_replicate_entry``
    entries, as ``{column: {student: {"mean_rank": ..., "ci_halfwidth": ...}}}``."""
    if not replicates:
        raise ValueError("need at least one replicate")
    r = len(replicates)
    aggregate: dict = {}
    for col, col_ranks in replicates[0]["ranks"].items():
        aggregate[col] = {}
        for name in col_ranks:
            vals = np.array([rep["ranks"][col][name] for rep in replicates])
            aggregate[col][name] = {
                "mean_rank": float(np.mean(vals)),
                "ci_halfwidth": float(1.96 * np.std(vals, ddof=1) / np.sqrt(r)) if r > 1 else 0.0,
            }
    return aggregate


def _replicate_datasets(cfg: ExperimentConfig, r: int) -> tuple[Dataset, Dataset]:
    data_seed = derived_seed(cfg.seed, r, 0)
    if cfg.teacher is not None:
        return sample_synthetic(cfg.teacher, cfg.n_train, cfg.n_test, cfg.input_range, data_seed)
    perm = np.random.default_rng(data_seed).permutation(cfg.data.n)
    splits = perm[: cfg.n_train], perm[cfg.n_train : cfg.n_train + cfg.n_test]
    return tuple(Dataset(cfg.data.X[:, idx], cfg.data.y[idx]) for idx in splits)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tasks(fn, tasks: list) -> list:
    """``[fn(task) for task in tasks]``, on a fork pool of one worker per usable CPU."""
    workers = min(_cpu_count(), len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(fn, tasks))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, tasks))


def _rank_task(task: tuple):
    """``_fit_and_score(*task)``, with a library error returned rather than raised."""
    try:
        return _fit_and_score(*task)
    except GpSelectError as err:
        return err


def run_ranking(cfg: ExperimentConfig) -> dict:
    """Full replicated ranking experiment; deterministic for a given seed.

    A replicate that fails wholesale (e.g. its teacher draw is numerically
    singular, or one of its tasks raises a library error) is dropped and
    counted; the run only fails if no replicate survives. Returns the
    report: ``students``, ``columns``, the ``aggregate_ranks`` table, the
    surviving ``replicates`` entries, ``failed_replicates``, package
    ``versions`` and the ``config`` that ran.
    """
    replicates = []
    for r in range(cfg.replicates):
        try:
            train, test = _replicate_datasets(cfg, r)
            base = derived_seed(cfg.seed, r)
            replicates.append((train, test, _replicate_partitions(cfg, train, base), base))
        except GpSelectError:
            continue
    n = len(cfg.students)
    results = _map_tasks(_rank_task, [(cfg, *rep, si) for rep in replicates for si in range(n)])
    survivors = []
    for start in range(0, len(results), n):
        chunk = results[start : start + n]
        if not any(isinstance(res, GpSelectError) for res in chunk):
            survivors.append(_replicate_entry(cfg, chunk))
    if not survivors:
        raise OptimizationFailed(f"all {cfg.replicates} replicates failed")
    students = [s.value for s in cfg.students]
    teacher = cfg.teacher
    return {
        "students": students,
        "columns": list(cfg.columns),
        "aggregate": aggregate_ranks(survivors),
        "replicates": survivors,
        "failed_replicates": cfg.replicates - len(survivors),
        "versions": package_versions(),
        "config": {
            "command": "rank",
            "students": students,
            "criteria": [c.value for c in cfg.criteria],
            "fit_criterion": cfg.fit.criterion.value,
            "replicates": cfg.replicates,
            "n_train": cfg.n_train,
            "n_test": cfg.n_test,
            "asc": {"J": cfg.asc.J, "M": cfg.asc.M},
            "seed": cfg.seed,
            "restarts": cfg.fit.restarts,
            "teacher": None
            if teacher is None
            else {"kernel": teacher.structure.value, "params": teacher.named_params()},
            "data": None if cfg.data is None else cfg.data.meta,
        },
    }


def load_csv_dataset(path, input_columns, output_column, *, shift=None, scale=None) -> Dataset:
    """Read a header CSV into a Dataset with standardized inputs.

    ``input_columns=None`` takes every column but the output. SchemaError if
    the header names a column twice, if no input is left, if one is the
    output or repeats, or if one is missing.

    Rows with missing or non-numeric requested fields are skipped and counted.
    Inputs are shifted/scaled to zero mean and unit variance per dimension
    (columns with zero spread pass through unscaled); outputs stay raw. The
    affine transform and skip count land in the dataset metadata. A given
    ``shift`` and ``scale`` are applied instead, as ``eval`` reads a test file
    with its training file's column choice and transform. SchemaError if only
    one is given, if their width is not the inputs', or if a shift or scale,
    given or computed, is not finite or a scale is not positive.
    """
    if (shift is None) != (scale is None):
        raise SchemaError(f"input transform for {path} gives {'scale' if shift is None else 'shift'} alone")
    if shift is not None:
        try:
            shift, scale = (np.asarray(v, dtype=float).reshape(-1) for v in (shift, scale))
        except (TypeError, ValueError) as err:
            raise SchemaError(f"input transform for {path} is not numeric: {err}") from err
    rows_x: list[list[float]] = []
    rows_y: list[float] = []
    skipped = 0
    # utf-8-sig drops a leading byte-order mark, which would otherwise prefix the first column's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        repeated = sorted({c for c in fields if fields.count(c) > 1})
        if repeated:
            raise SchemaError(f"header of {path} names {repeated} more than once")
        if input_columns is None:
            input_columns = [c for c in fields if c != output_column]
        input_columns = list(input_columns)
        if not input_columns:
            raise SchemaError(f"no input columns in {path} (header: {fields})")
        if output_column in input_columns:
            raise SchemaError(f"output column {output_column!r} is also an input column")
        if len(set(input_columns)) != len(input_columns):
            raise SchemaError(f"input columns {input_columns} repeat a column")
        missing = [c for c in [*input_columns, output_column] if c not in fields]
        if missing:
            raise SchemaError(f"columns {missing} not found in {path} (header: {fields})")
        for row in reader:
            try:
                xs = [float(row[c]) for c in input_columns]
                yv = float(row[output_column])
            except (TypeError, ValueError):
                skipped += 1
                continue
            if not (np.all(np.isfinite(xs)) and np.isfinite(yv)):
                skipped += 1
                continue
            rows_x.append(xs)
            rows_y.append(yv)
    if not rows_y:
        raise EmptyData(f"no usable rows in {path} ({skipped} skipped)")
    raw = np.asarray(rows_x, dtype=float).T  # (D, N)
    if shift is None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned about
            shift = raw.mean(axis=1)
            scale = raw.std(axis=1)
        scale[scale == 0.0] = 1.0
    elif shift.size != raw.shape[0] or scale.size != raw.shape[0]:
        raise SchemaError(f"{path} has {raw.shape[0]} input columns, but the input transform has "
                          f"{shift.size} shifts and {scale.size} scales")
    bad = [c for c, ok in zip(input_columns, np.isfinite(shift) & np.isfinite(scale) & (scale > 0)) if not ok]
    if bad:
        raise SchemaError(f"input transform for {path} needs finite shifts and positive finite scales, got shift "
                          f"{shift.tolist()} and scale {scale.tolist()}: columns {bad}")
    standardized = (raw - shift[:, None]) / scale[:, None]
    meta = {
        "input_shift": shift.tolist(),
        "input_scale": scale.tolist(),
        "skipped_rows": skipped,
        "source": str(path),
        "input_columns": input_columns,
        "output_column": output_column,
    }
    return Dataset(standardized, np.asarray(rows_y), meta)


def package_versions() -> dict:
    try:
        own = metadata.version("gpselect")
    except metadata.PackageNotFoundError:
        own = "unknown"
    import scipy

    return {"gpselect": own, "numpy": np.__version__, "scipy": scipy.__version__}


def write_report(report: dict, path) -> None:
    """Stable machine-parseable report: sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rank_csv(report: dict, path) -> None:
    """One row per (criterion, kernel) cell of the report's aggregate table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["criterion", "kernel", "mean_rank", "ci_halfwidth"])
        for col, cells in report["aggregate"].items():
            for name, cell in cells.items():
                writer.writerow([col, name, repr(cell["mean_rank"]), repr(cell["ci_halfwidth"])])
