"""Command-line entry point: synth, fit, rank and eval subcommands.

Exit codes: 0 success, 2 usage/validation error, 3 numerical or optimization
failure. Diagnostics go to stderr, data to stdout; all randomness flows from
--seed (omitting it picks a random seed which is echoed in the report).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .criteria import AscConfig, Criterion
from .errors import EmptyData, GpSelectError, InsufficientData, OptimizationFailed, SchemaError
from .harness import (
    ExperimentConfig,
    kernel_template,
    load_csv_dataset,
    package_versions,
    run_ranking,
    sample_synthetic,
    write_rank_csv,
    write_report,
)
from .kernels import KernelSpec, KernelStructure
from .optimize import FitConfig, optimize
from .regression import Dataset, msll, predict

_KERNEL_CHOICES = [k.value for k in KernelStructure]
_CRITERION_CHOICES = [c.value for c in Criterion]


class UsageError(Exception):
    pass


def _teacher_from_flags(args, kernel) -> KernelSpec:
    """The teacher kernel, once the teacher flags (input range included) are checked."""
    lo, hi = args.input_lo, args.input_hi
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise UsageError(f"--input-lo {lo} and --input-hi {hi} must be finite, with lo below hi")
    try:
        return KernelSpec.create(kernel, lengthscale=args.ell, signal=args.sf, noise=args.sn, alpha=args.alpha,
                                 period=args.period)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _fit_config(args, criterion) -> FitConfig:
    """The fit flags as one FitConfig; --J and --M count only for an agreement criterion."""
    try:
        asc = AscConfig(M=args.M, J=args.J) if Criterion(criterion).is_asc else None
        return FitConfig(criterion, args.restarts, asc)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _check_out(*paths, inputs=()) -> None:
    """Fail before any work if an output could not be written to one of ``paths`` or is one of ``inputs``."""
    read = [Path(path) for path in inputs if path is not None and Path(path).is_file()]
    for path in paths:
        if path is None:
            continue
        parent = Path(path).parent
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise UsageError(f"cannot write {path}: {parent} is not a writable directory")
        if Path(path).is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")
        if Path(path).is_file() and any(Path(path).samefile(other) for other in read):
            raise UsageError(f"cannot write {path}: it is one of the command's input files")


def _resolve_seed(seed) -> int:
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**63))
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")
    return int(seed)


def _split_csv_list(raw: str | None, flag: str) -> list[str] | None:
    if raw is None:
        return None
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise UsageError(f"{flag} is empty")
    return items


def _load(path, input_cols, output_col, shift=None, scale=None) -> Dataset:
    if not Path(path).is_file():
        raise UsageError(f"file not found: {path}")
    try:
        return load_csv_dataset(path, input_cols, output_col, shift=shift, scale=scale)
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err


def _write_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = data.X.shape[0]
        writer.writerow([f"x{i + 1}" for i in range(dim)] + ["y"])
        for j in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[:, j]] + [repr(float(data.y[j]))])


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    teacher = _teacher_from_flags(args, args.kernel)
    out = Path(args.out)
    train_path = out.with_name(out.stem + "_train" + (out.suffix or ".csv"))
    test_path = out.with_name(out.stem + "_test" + (out.suffix or ".csv"))
    _check_out(train_path, test_path)
    if args.n_train < 1 or args.n_test < 0:
        raise UsageError("--n-train must be >= 1 and --n-test >= 0")
    train, test = sample_synthetic(
        teacher, args.n_train, args.n_test, (args.input_lo, args.input_hi), seed
    )
    _write_dataset_csv(train, train_path)
    _write_dataset_csv(test, test_path)
    print(train_path)
    print(test_path)
    print(f"seed={seed}", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    seed = _resolve_seed(args.seed)
    _check_out(args.out, inputs=(args.train,))
    fit = _fit_config(args, args.criterion)
    train = _load(args.train, _split_csv_list(args.input_cols, "--input-cols"), args.output_col)
    template = kernel_template(args.kernel)
    report = {
        "command": "fit",
        "criterion": fit.criterion.value,
        "kernel": args.kernel,
        "train": str(args.train),
        "n_train": train.n,
        "skipped_rows": train.meta.get("skipped_rows", 0),
        "input_columns": train.meta.get("input_columns"),
        "output_column": train.meta.get("output_column"),
        "input_standardization": {
            "shift": train.meta.get("input_shift"),
            "scale": train.meta.get("input_scale"),
        },
        "restarts": fit.restarts,
        "seed": seed,
        "asc": None if fit.asc is None else {"J": fit.asc.J, "M": fit.asc.M},
        "versions": package_versions(),
    }
    try:
        result = optimize(fit, template, train, seed)
        fitted = template.with_theta(result.theta)
        report.update(
            {
                "theta_log": [float(v) for v in result.theta],
                "params": fitted.named_params(),
                "kernel_spec": {
                    "structure": fitted.structure.value,
                    "log_params": [float(v) for v in fitted.log_params],
                    "log_noise": float(fitted.log_noise),
                },
                "objective_value": result.objective_value,
                "converged": result.converged,
                "failed_partition_fraction": result.failed_partition_fraction,
            }
        )
    except OptimizationFailed as err:
        report["error"] = str(err)
    if args.out:
        write_report(report, args.out)
    if "error" in report:
        print(f"optimization failed: {report['error']}", file=sys.stderr)
        return 3
    print(json.dumps({"criterion": fit.criterion.value, "objective_value": result.objective_value}))
    return 0


def cmd_rank(args) -> int:
    seed = _resolve_seed(args.seed)
    out = Path(args.out)
    json_path = out.with_suffix(".json")
    csv_path = out.with_suffix(".csv")
    _check_out(json_path, csv_path, inputs=(args.data,))
    # ExperimentConfig requires exactly one of the two
    input_cols = _split_csv_list(args.input_cols, "--input-cols")
    data = None if args.data is None else _load(args.data, input_cols, args.output_col)
    teacher = None if args.teacher_kernel is None else _teacher_from_flags(args, args.teacher_kernel)
    try:
        cfg = ExperimentConfig(
            students=tuple(_split_csv_list(args.students, "--students")),
            criteria=tuple(_split_csv_list(args.criteria, "--criteria")),
            replicates=args.replicates,
            n_train=args.n_train,
            n_test=args.n_test,
            asc=AscConfig(M=args.M, J=args.J),
            seed=seed,
            teacher=teacher,
            data=data,
            fit=_fit_config(args, args.fit_criterion),
            input_range=(args.input_lo, args.input_hi),
        )
    except ValueError as err:
        raise UsageError(str(err)) from err
    report = run_ranking(cfg)
    write_report(report, json_path)
    write_rank_csv(report, csv_path)
    print(json_path)
    print(csv_path)
    return 0


def cmd_eval(args) -> int:
    if (args.model is None) == (not args.trivial):
        raise UsageError("give exactly one of --model or --trivial")
    _check_out(args.out, inputs=(args.model, args.train, args.test))
    input_cols = _split_csv_list(args.input_cols, "--input-cols")
    output_col = args.output_col or "y"
    std = {}
    if not args.trivial:
        if not Path(args.model).is_file():
            raise UsageError(f"file not found: {args.model}")
        try:
            with open(args.model, encoding="utf-8") as fh:
                fitted = json.load(fh)
            kernel = KernelSpec(**fitted["kernel_spec"])
        except (KeyError, TypeError, ValueError) as err:
            raise UsageError(f"{args.model} does not contain a valid fitted kernel: {err}") from err
        recorded = fitted.get("input_columns")
        if input_cols is None:
            input_cols = recorded
        elif recorded is not None and input_cols != recorded:
            raise UsageError(f"--input-cols {input_cols} differ from the model's input columns {recorded}")
        recorded = fitted.get("output_column")
        output_col = args.output_col or recorded or "y"
        if recorded is not None and output_col != recorded:
            raise UsageError(f"--output-col {output_col!r} differs from the model's output column {recorded!r}")
        std = fitted.get("input_standardization") or {}
    # the test inputs go through the training file's transform, whether recorded or computed here
    train = _load(args.train, input_cols, output_col, shift=std.get("shift"), scale=std.get("scale"))
    test = _load(args.test, input_cols, output_col, shift=train.meta["input_shift"], scale=train.meta["input_scale"])
    if args.trivial:
        predictive = np.full(test.n, float(np.mean(train.y))), np.full(test.n, float(np.var(train.y)))
    else:
        predictive = predict(kernel, train, test.X)
    value = msll(*predictive, test.y, train.y)
    print(repr(value))
    if args.out:
        write_report(
            {
                "command": "eval",
                "model": args.model or "trivial",
                "msll": value,
                "n_train": train.n,
                "n_test": test.n,
                "versions": package_versions(),
            },
            args.out,
        )
    return 0


def _add_teacher_flags(parser, kernel_flag: str, required: bool):
    parser.add_argument(kernel_flag, choices=_KERNEL_CHOICES, required=required)
    parser.add_argument("--ell", type=float, default=1.0, help="lengthscale")
    parser.add_argument("--sf", type=float, default=1.0, help="signal std")
    parser.add_argument("--sn", type=float, default=0.1, help="noise std")
    parser.add_argument("--alpha", type=float, default=None, help="rq shape")
    parser.add_argument("--period", type=float, default=None, help="per period")
    parser.add_argument("--input-lo", type=float, default=0.0)
    parser.add_argument("--input-hi", type=float, default=10.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="draw a teacher dataset to CSV files")
    _add_teacher_flags(p, "--kernel", required=True)
    p.add_argument("--n-train", type=int, default=64)
    p.add_argument("--n-test", type=int, default=256)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("fit", help="optimize one kernel under one criterion")
    p.add_argument("--train", required=True)
    p.add_argument("--kernel", choices=_KERNEL_CHOICES, required=True)
    p.add_argument("--criterion", choices=_CRITERION_CHOICES, required=True)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--J", type=int, default=32)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input-cols", default=None, help="comma-separated input columns")
    p.add_argument("--output-col", default="y")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("rank", help="teacher-student or real-data kernel ranking")
    _add_teacher_flags(p, "--teacher-kernel", required=False)
    p.add_argument("--data", default=None, help="real dataset CSV")
    p.add_argument("--input-cols", default=None)
    p.add_argument("--output-col", default="y")
    p.add_argument("--students", default="se,rq,exp,per")
    p.add_argument("--criteria", default="evidence,loo,basc,bnasc")
    p.add_argument("--fit-criterion", choices=_CRITERION_CHOICES, default="evidence")
    p.add_argument("--replicates", type=int, default=16)
    p.add_argument("--n-train", type=int, default=64)
    p.add_argument("--n-test", type=int, default=256)
    p.add_argument("--J", type=int, default=32)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix for .json/.csv")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("eval", help="mean standardized log loss of a fitted model")
    test_read = "; --test is read with --train's columns and input transform"
    p.add_argument("--model", default=None, help="fit report JSON; its columns and transform read --train" + test_read)
    p.add_argument("--trivial", action="store_true", help="score the trivial baseline" + test_read)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--input-cols", default=None)
    p.add_argument("--output-col", default=None, help="default: the model's, or y with --trivial")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.handler(args)
    except (UsageError, SchemaError, EmptyData, InsufficientData) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OptimizationFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (GpSelectError, ValueError) as err:
        # arguments are validated into UsageError above; a ValueError that
        # gets this far was raised inside the numerical code
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
