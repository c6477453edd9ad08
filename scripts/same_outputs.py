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
A full run takes about 90 s on a 2-core machine, the two checkouts side by side.
A checkout whose ``rank`` uses a worker per CPU shares those cores with the other.

    python3 scripts/same_outputs.py --parent ../parent --change . --numeric

With ``--numeric``, outputs may differ in their numbers only. For those that
differ it prints the largest relative change of any number, split by the
condition number of K + sigma_n^2 I at the fit the number belongs to (at the
fitted parameters of both sides, whichever is worse; see ``COND_SPLIT``), and
every rank in a rank report that moved. A number that belongs to no one fit
(an aggregate, the rank CSV, a rank report whose dropped replicates hide the
replicate index) is counted apart. It exits 1 if anything but numbers
differs: an exit code, a string or the layout of an output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = ("evidence", "loo", "basc", "bnasc")
MANIFEST = "commands.json"
MASK = b"<OUT>"
# Above this condition number a score is dominated by round-off (perfbench/oracle.py).
COND_SPLIT = 1e8
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity)")


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


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def text_numbers(before: str, after: str, mismatches: list[str]) -> list[tuple[str, float, float]]:
    """(position, before, after) of every number in two texts; notes in ``mismatches``
    if anything else differs."""
    p_parts, c_parts = NUMBER.split(before), NUMBER.split(after)
    if p_parts[0::2] != c_parts[0::2]:
        mismatches.append("text between the numbers")
        return []
    return [(f"number {i}", float(a), float(b)) for i, (a, b) in enumerate(zip(p_parts[1::2], c_parts[1::2]))]


def json_numbers(before, after, mismatches: list[str], path: str = "") -> list[tuple[str, float, float]]:
    """(path, before, after) of every number in two JSON values; the path of anything
    else that differs goes to ``mismatches``."""
    if isinstance(before, dict) and isinstance(after, dict) and list(before) == list(after):
        return [item for k in before for item in json_numbers(before[k], after[k], mismatches, f"{path}/{k}")]
    if isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        pairs = (json_numbers(a, b, mismatches, f"{path}/{i}") for i, (a, b) in enumerate(zip(before, after)))
        return [item for p in pairs for item in p]
    numeric = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after)]
    if all(numeric):
        return [(path, float(before), float(after))]
    if before != after or any(numeric):
        mismatches.append(path or "/")
    return []


def fit_cond(structure: str, theta, train_x) -> float:
    """Condition number of K + sigma_n^2 I as factored, with the jitter it needs; inf if none will do."""
    from oracle import _noisy, ladder

    factored = ladder(_noisy(structure, np.asarray(theta, dtype=float), train_x))
    return math.inf if factored is None else float(np.linalg.cond(factored[1]))


def train_inputs(report: dict, r: int):
    """Training inputs of replicate ``r`` of a rank report, regenerated from its config."""
    from oracle import _INPUT_RANGE, derived_seed, load_standardized

    cfg = report["config"]
    rng_seed = derived_seed(cfg["seed"], r, 0)
    if cfg["data"] is None:
        total = cfg["n_train"] + cfg["n_test"]
        return np.random.default_rng(rng_seed).uniform(*_INPUT_RANGE, size=(1, total))[:, : cfg["n_train"]]
    x, y = load_standardized(cfg["data"]["source"])
    return x[:, np.random.default_rng(rng_seed).permutation(y.size)[: cfg["n_train"]]]


def conds(reports: list[dict]) -> dict[str, float]:
    """JSON path prefix -> condition number of K + sigma_n^2 I at the fit it belongs to,
    the worse of the two sides' fitted parameters."""
    from oracle import load_standardized

    first = reports[0]
    if first.get("command") == "eval" and first["model"] != "trivial":
        return conds([json.loads(Path(rep["model"]).read_text()) for rep in reports])
    if first.get("command") == "fit" and "theta_log" in first:
        x, _ = load_standardized(first["train"])
        return {"": max(fit_cond(rep["kernel"], rep["theta_log"], x) for rep in reports)}
    if "replicates" not in first or first["failed_replicates"] != 0:
        return {}  # without dropped replicates, entry r is replicate r
    out = {}
    for r, entry in enumerate(first["replicates"]):
        x = train_inputs(first, r)
        for student in entry["theta"]:
            thetas = [rep["replicates"][r]["theta"][student] for rep in reports]
            cond = math.inf if None in thetas else max(fit_cond(student, t, x) for t in thetas)
            for key in ("scores", "ranks", "asc_failed_fraction"):
                for col in entry[key]:
                    out[f"/replicates/{r}/{key}/{col}/{student}"] = cond
            for key in ("test_msll", "theta"):
                out[f"/replicates/{r}/{key}/{student}"] = cond
    return out


def moved_ranks(name: str, reports: list[dict]) -> list[str]:
    moved = []
    for r, entry in enumerate(reports[0].get("replicates", [])):
        for col, ranks in entry["ranks"].items():
            after = reports[1]["replicates"][r]["ranks"][col]
            moved += [f"{name} replicate {r} {col} {student}: {rank} -> {after[student]}"
                      for student, rank in ranks.items() if after[student] != rank]
    return moved


def numeric_differences(work: Path, differ: list[str], before: dict, after: dict) -> list[str]:
    """Print how the numbers of the differing outputs changed; return what differs in more than numbers."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sides = (work / "parent", work / "change")
    groups = {"cond <= 1e8": [], "cond > 1e8": [], "not one fit's (aggregates, CSV tables, streams)": []}
    moved, rest = [], []
    for item in differ:
        key, _, name = item.partition(" of ") if " of " in item else item.partition(" ")
        if key == "file":
            paths = [side / name for side in sides]
            if not all(path.is_file() for path in paths):
                rest.append(item)
                continue
            raw = [path.read_text() for path in paths]
        elif key in ("stdout", "stderr"):
            raw = [before[name][key], after[name][key]]
        else:
            rest.append(item)
            continue
        texts = [text.replace(str(side), "<OUT>") for text, side in zip(raw, sides)]
        by_prefix, mismatches = {}, []
        if name.endswith(".json") and key == "file":
            reports = [json.loads(text) for text in texts]
            pairs = json_numbers(*reports, mismatches)
            if not mismatches:
                by_prefix = conds([json.loads(text) for text in raw])
                moved += moved_ranks(name, reports)
        else:
            pairs = text_numbers(*texts, mismatches)
        if mismatches:
            rest.append(f"{item}: {', '.join(mismatches)}")
            continue
        for path, a, b in pairs:
            cond = next((c for prefix, c in by_prefix.items() if path.startswith(prefix)), None)
            group = list(groups)[2 if cond is None else 0 if cond <= COND_SPLIT else 1]
            groups[group].append((relative_change(a, b), f"{item}{path}", a, b))
    print(f"numbers differ in {len(differ) - len(rest)} outputs")
    for group, changes in groups.items():
        changed = [c for c in changes if c[0] > 0.0]
        finite = [c for c in changed if math.isfinite(c[0])]
        line = f"  {group}: {len(changed)} of {len(changes)} numbers changed"
        line += f" ({len(changed) - len(finite)} to or from a non-finite value)"
        if finite:
            rel, where, a, b = max(finite)
            line += f"; largest relative change {rel:.3g} at {where} ({a!r} -> {b!r})"
        print(line)
    print(f"ranks moved: {len(moved)}")
    for line in moved:
        print(f"  {line}")
    return rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--numeric", action="store_true", help="allow and summarize numeric differences")
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
    codes = sorted({entry["code"] for entry in before.values()})
    if differ and args.numeric:
        rest = numeric_differences(work, differ, before, after)
        if not rest:
            print(f"only numbers differ: {len(before)} commands (exit codes {codes}), outputs kept in {work}")
            return 0
        differ = rest
    if differ:
        print("\n".join(["differs:", *differ, f"outputs kept in {work}"]))
        return 1
    shutil.rmtree(work)
    print(f"identical: {len(before)} commands (exit codes {codes}), {len(sides['parent'])} files, every stdout and stderr")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
