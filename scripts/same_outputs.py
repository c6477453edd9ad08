"""Check that two checkouts write byte-identical outputs for the same commands.

    python3 scripts/same_outputs.py --parent ../parent --change .

The commands: every pool entry of the two benchmark workloads once (argv from
``perfbench/workloads.py``), ``synth --kernel se --seed 5``, ``fit --kernel se
--seed 0 --J 8`` on that data for each of the four criteria, and ``eval`` of
each fit and of ``--trivial``. Each checkout runs them in its own subprocess,
with ``PYTHONPATH=<checkout>/src`` and ``OPENBLAS_NUM_THREADS=1``, through
``gpselect.cli.main`` and into its own directory. That directory's name is
masked, then every output file, stdout, stderr and exit code is compared.
Exits 1 with a list of what differs; the outputs are then kept for a look.
A full run takes about two minutes, the two checkouts side by side on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = ("evidence", "loo", "basc", "bnasc")
MANIFEST = "commands.json"
MASK = b"<OUT>"


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, writing under ``out``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import POOL_SIZE, WORKLOADS

    cmds = []
    for name, workload in WORKLOADS.items():
        inputs = out / name / "inputs"
        workload.write_inputs(inputs, seed=0)
        ops = workload.ops(0)
        if sorted(op.entry for op in ops) != list(range(POOL_SIZE)):
            raise SystemExit(f"error: {name}'s op order is not one pass over its pool")
        cmds += [(f"{name}/{op.entry}", workload.argv(op, inputs, out / name / f"op{op.entry}")) for op in ops]
    data = out / "fit"
    data.mkdir()
    train, test = str(data / "d_train.csv"), str(data / "d_test.csv")
    cmds.append(("synth", ["synth", "--kernel", "se", "--seed", "5", "--out", str(data / "d.csv")]))
    for crit in CRITERIA:
        fit = str(data / f"fit_{crit}.json")
        fit_argv = ["fit", "--train", train, "--kernel", "se", "--criterion", crit, "--seed", "0", "--J", "8"]
        cmds.append((f"fit/{crit}", [*fit_argv, "--out", fit]))
        cmds.append((f"eval/{crit}", ["eval", "--model", fit, "--train", train, "--test", test,
                                      "--out", str(data / f"eval_{crit}.json")]))
    cmds.append(("eval/trivial", ["eval", "--trivial", "--train", train, "--test", test,
                                  "--out", str(data / "eval_trivial.json")]))
    return cmds


def run_all(out: Path) -> None:
    """Run every command in this process; write their exit codes and streams to the manifest."""
    import gpselect
    from gpselect.cli import main

    results = {}
    for name, argv in commands(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        results[name] = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    manifest = {"gpselect": gpselect.__file__, "commands": results}
    (out / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n")


def masked_files(side: Path) -> dict[str, bytes]:
    token = str(side).encode()
    files = sorted(p for p in side.rglob("*") if p.is_file())
    return {str(p.relative_to(side)): p.read_bytes().replace(token, MASK) for p in files}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--run-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_into is not None:
        run_all(args.run_into)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    work = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    procs = {}
    for label, checkout in (("parent", args.parent), ("change", args.change)):
        env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
        (work / label).mkdir()
        procs[label] = subprocess.Popen([sys.executable, __file__, "--run-into", str(work / label)], env=env)
    if any(proc.wait() != 0 for proc in procs.values()):
        raise SystemExit(f"error: a checkout's run failed; its outputs are in {work}")
    sides = {label: masked_files(work / label) for label in procs}
    runs = {label: json.loads(files.pop(MANIFEST)) for label, files in sides.items()}
    for label, checkout in (("parent", args.parent), ("change", args.change)):
        if not Path(runs[label]["gpselect"]).is_relative_to(checkout.resolve() / "src"):
            raise SystemExit(f"error: the {label} run imported gpselect from {runs[label]['gpselect']}")
    before, after = runs["parent"]["commands"], runs["change"]["commands"]
    differ = [f"file {name}" for name in sorted(set(sides["parent"]) | set(sides["change"]))
              if sides["parent"].get(name) != sides["change"].get(name)]
    for name in before:
        differ += [f"{key} of {name}" for key in ("code", "stdout", "stderr")
                   if before[name][key] != after.get(name, {}).get(key)]
    if differ:
        print("\n".join(["differs:", *differ, f"outputs kept in {work}"]))
        return 1
    shutil.rmtree(work)
    codes = sorted({entry["code"] for entry in before.values()})
    print(f"identical: {len(before)} commands (exit codes {codes}), {len(sides['parent'])} files, every stdout and stderr")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
