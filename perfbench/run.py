"""gpselect benchmark: closed-loop ``gpselect rank`` ops driven in-process.

    python3 perfbench/run.py --workload rank_synth --seed 1 --seconds 40 --trace 0

One client runs ops back to back through ``gpselect.cli.main(argv)`` for
``--seconds``, then every op's report is checked independently (oracle.py).
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay. A fuller record with the environment
lands in ``.perfbench_work/``. See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# a traced op's root span may miss only the wrapper's own overhead of the op's wall time
ROOT_SPAN_SLACK_S, ROOT_SPAN_SLACK_FRAC = 1e-3, 0.01


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; refuse a conflicting setting."""
    for var in PINNED:
        os.environ.setdefault(var, "1")
    wrong = {var: os.environ[var] for var in PINNED if os.environ[var] != "1"}
    if wrong:
        raise SystemExit(f"error: refusing to run with {wrong}; the benchmark needs each set to 1")


def setup_child(workload_name: str, seed: int, into: Path) -> None:
    """Timed set-up in a fresh interpreter: import gpselect, then write the run's inputs."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import gpselect  # noqa: F401  (importing is part of what set-up measures)

    from workloads import WORKLOADS

    WORKLOADS[workload_name].write_inputs(into, seed)
    print(repr(perf_counter() - start))


def timed_setups(args, run_dir: Path) -> tuple[list[float], Path]:
    times = []
    dirs = [run_dir / f"setup{k}" for k in range(SETUP_REPEATS)]
    for into in dirs:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-into", str(into)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if child.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{child.stderr}")
        times.append(float(child.stdout.strip().splitlines()[-1]))
    first = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    for other in dirs[1:]:
        for rel in first:
            if (dirs[0] / rel).read_bytes() != (other / rel).read_bytes():
                raise SystemExit(f"error: set-up is not deterministic: {rel} differs")
    return times, dirs[0]


def environment() -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in PINNED},
    }


def closed_loop(run_op, ops, seconds):
    """Run ops back to back until ``seconds`` have passed; returns (runs, elapsed seconds)."""
    runs = []
    start = perf_counter()
    for op in ops:
        if runs and perf_counter() - start >= seconds:
            break
        runs.append(run_op(op))
    return runs, perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description="gpselect closed-loop benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    pin_threads()
    if args.setup_into is not None:
        setup_child(args.workload, args.seed, args.setup_into)
        return 0

    import runner
    from workloads import WORKLOADS, load_golden

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cli = runner.import_cli(SRC)
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times, inputs = timed_setups(args, run_dir)
        golden = load_golden(workload.name)
        ops = cycle(workload.read_ops(inputs))
        out_prefix = run_dir / "op"

        def run_op(op):
            return runner.execute(cli, workload, op, inputs, out_prefix)

        env = environment()
        print(json.dumps({"environment": env}), file=sys.stderr)
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "environment": env}
        metrics = {}
        if args.trace == 0:
            runs, elapsed = closed_loop(run_op, ops, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = metric(statistics.median(setup_times), "s")
            metrics["ops_per_s"] = metric(len(runs) / elapsed, "1/s")
            metrics["op_s_p50"] = metric(statistics.median(r.seconds for r in runs), "s")
            metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
            trace_problems = []
        else:
            import tracing

            # each op runs untraced, then again traced, so drift in machine speed cancels in the overhead
            tracer = tracing.Tracer()
            plain, traced = [], []
            start = perf_counter()
            for op in ops:
                if plain and perf_counter() - start >= args.seconds:
                    break
                plain.append(run_op(op))
                tracer.op = len(traced)
                tracer.install()
                try:
                    traced.append(run_op(op))
                finally:
                    tracer.uninstall()
            runs = plain + traced
            roots = tracer.root_spans()
            trace_problems = [
                f"traced op {i}: root span {roots.get(i)} vs wall {run.seconds}"
                for i, run in enumerate(traced)
                if not (0.0 <= run.seconds - roots.get(i, -1.0) <= max(ROOT_SPAN_SLACK_S, ROOT_SPAN_SLACK_FRAC * run.seconds))
            ]
            tracer.write(WORK / f"spans_{workload.name}_seed{args.seed}.csv")
            for name, (value, unit) in tracer.layer_metrics(len(traced)).items():
                metrics[name] = metric(value, unit)
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
            metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        summary = runner.check_runs(runs, workload, inputs, golden)
        quality = {
            "fail_frac": metric(summary.failed_ops / len(runs), "ratio"),
            "fit_fail_frac": metric(summary.fits_failed / summary.fits_attempted, "ratio"),
            "fit_regret_max": metric(summary.regret_max, "nats"),
        }
        if args.trace == 1:
            metrics.update(quality)
        problems = summary.problems + trace_problems
        result = {
            "correct": not problems,
            "attempted": len(runs),
            "failed": summary.failed_ops,
            "metrics": metrics,
        }
        record.update(
            result=result,
            quality=quality,
            checks={"asc_checked": summary.asc_checked, "asc_unchecked": summary.asc_unchecked,
                    "unverified_scores": summary.unverified, "problems": problems},
            ops=[{"entry": r.op.entry, "exit": r.code, "seconds": r.seconds} for r in runs],
            setup_s=setup_times,
        )
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
