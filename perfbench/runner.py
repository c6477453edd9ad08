"""Running ops in-process through ``gpselect.cli.main`` and checking their outputs."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
from workloads import CSV_COUNT, Op, Workload, csv_path


def import_cli(src: Path):
    """Import gpselect from the checkout's ``src`` directory, never from elsewhere."""
    if not (src / "gpselect" / "__init__.py").is_file():
        raise SystemExit(f"error: no gpselect package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("gpselect")
    if src.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"error: gpselect imported from {pkg.__file__}, not from {src}")
    return importlib.import_module("gpselect.cli")


@dataclass
class OpRun:
    op: Op
    code: int | None  # None: main raised instead of returning an exit code
    seconds: float
    report: dict | None
    stderr: str


def execute(cli, workload: Workload, op: Op, inputs: Path, out_prefix: Path) -> OpRun:
    """One closed-loop op: ``cli.main(argv)`` timed on the wall clock, then its report read back."""
    argv = workload.argv(op, inputs, out_prefix)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an escaped exception is a failed op, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    report = None
    if code == 0:
        with open(out_prefix.with_suffix(".json"), encoding="utf-8") as fh:
            report = json.load(fh)
    return OpRun(op, code, seconds, report, err.getvalue())


@dataclass
class CheckSummary:
    failed_ops: int = 0
    fits_attempted: int = 0
    fits_failed: int = 0
    regret_max: float = 0.0
    asc_checked: int = 0
    asc_unchecked: int = 0
    unverified: int = 0
    problems: list = field(default_factory=list)
    fit_values: list = field(default_factory=list)  # per op: oracle.OpCheck.fit_values, or None


def load_csv_data(workload: Workload, inputs: Path) -> list | None:
    if workload.name != "rank_csv":
        return None
    return [oracle.load_standardized(csv_path(inputs, c)) for c in range(CSV_COUNT)]


def check_runs(
    runs: list[OpRun], workload: Workload, inputs: Path, golden: dict | None, asc_ops: int = 1
) -> CheckSummary:
    """Check every op; the agreement scores are recomputed densely for the first ``asc_ops`` ops."""
    csv_data = load_csv_data(workload, inputs)
    out = CheckSummary()
    fits_per_op = workload.replicates * len(oracle.STUDENTS)
    for i, run in enumerate(runs):
        out.fits_attempted += fits_per_op
        if run.code != 0:
            out.fit_values.append(None)
            out.failed_ops += 1
            out.fits_failed += fits_per_op
            out.problems.append(f"op {i} (entry {run.op.entry}): exit {run.code}: {run.stderr.strip()[-300:]}")
            continue
        result = oracle.check_rank_report(
            run.report,
            workload,
            run.op,
            None if csv_data is None else csv_data[run.op.group],
            None if golden is None else golden[str(run.op.entry)],
            check_asc=i < asc_ops,
        )
        out.fits_failed += result.fits_failed
        out.regret_max = max(out.regret_max, result.regret)
        out.asc_checked += result.asc_checked
        out.asc_unchecked += result.asc_unchecked
        out.unverified += result.unverified
        out.fit_values.append(result.fit_values)
        if result.problems:
            out.failed_ops += 1
            out.problems.extend(f"op {i} (entry {run.op.entry}): {p}" for p in result.problems)
    return out
