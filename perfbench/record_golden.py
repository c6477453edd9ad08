"""Record the golden fit-criterion values of a workload's whole op pool.

Runs every pool op once through ``gpselect.cli.main``, checks it like a
benchmark run does, and writes ``golden_<workload>.json`` next to this file:
for each pool entry, its op time in seconds (which ``Workload.ops`` uses to
balance the cost mix of a run) and the achieved fit-criterion value per
surviving replicate and student (null where the fit failed or its value is
round-off dominated, see ``oracle.COND_STRICT``). ``fit_regret_max`` in a
benchmark run measures shortfalls below these values, so re-record them only
at a commit whose fits are known to be at least as good.

    python3 perfbench/record_golden.py --workload rank_synth
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import pin_threads

pin_threads()  # before numpy is first imported

import runner  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cli = runner.import_cli(ROOT / "src")
    work = ROOT / ".perfbench_work" / f"golden-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_data(work)
    runs = []
    for op in (workload.op(entry) for entry in range(POOL_SIZE)):
        run = runner.execute(cli, workload, op, work, work / "op")
        runs.append(run)
        print(f"entry {op.entry}: exit {run.code} in {run.seconds:.2f} s", file=sys.stderr, flush=True)
    summary = runner.check_runs(runs, workload, work, None, asc_ops=len(runs))
    for problem in summary.problems:
        print(problem, file=sys.stderr)
    print(f"{summary.failed_ops} of {len(runs)} ops failed; "
          f"{summary.fits_failed} of {summary.fits_attempted} fits failed", file=sys.stderr)
    shutil.rmtree(work)
    if summary.failed_ops:
        return 1
    golden = {
        str(run.op.entry): {"seconds": round(run.seconds, 3), "fit": fit}
        for run, fit in zip(runs, summary.fit_values)
    }
    with open(HERE / f"golden_{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
