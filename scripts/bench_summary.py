"""Summarize paired perfbench runs of two checkouts into one BENCH_<n>.json.

Each checkout's ``.perfbench_work/result_<workload>_seed<s>_trace<t>.json``
files are paired by workload and seed. For every end-to-end metric that
BENCHMARK.json declares, the summary records both sides' median and
quartiles, the relative change of the medians, and how many pairs the change
won. Traced runs (``--trace 1``), where present on both sides, contribute the
medians of their per-layer metrics. The environment (Python, numpy, scipy,
thread pinning) is copied from the records, which must agree on it.

    python3 scripts/bench_summary.py --parent ../parent --change . --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(checkout: Path, trace: int) -> dict[tuple[str, int], dict]:
    out = {}
    for path in sorted((checkout / ".perfbench_work").glob(f"result_*_trace{trace}.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], int(record["seed"]))] = record
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def side(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def environment(records: list[dict]) -> dict:
    keys = ("python", "numpy", "scipy", "nproc", "threads")
    envs = [{k: r["environment"].get(k) for k in keys} for r in records]
    if any(env != envs[0] for env in envs[1:]):
        raise SystemExit("error: the runs were made in different environments")
    return envs[0]


def summarize(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    workloads = {}
    for name in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == name and (w, s) in change)
        pairs = [(parent[(name, s)], change[(name, s)]) for s in seeds]
        entry = {
            "seeds": seeds,
            "all_correct": all(
                r["result"]["correct"] and r["result"]["failed"] == 0 for pair in pairs for r in pair
            ),
            "metrics": {},
        }
        for spec in end_to_end:
            metric = spec["name"]
            before = [p["result"]["metrics"][metric]["value"] for p, _ in pairs]
            after = [c["result"]["metrics"][metric]["value"] for _, c in pairs]
            higher = spec["better"] == "higher"
            wins = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
            p_side, c_side = side(before), side(after)
            entry["metrics"][metric] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "parent": p_side,
                "change": c_side,
                "relative_change": c_side["median"] / p_side["median"] - 1.0,
                "parent_iqr_fraction": (p_side["q3"] - p_side["q1"]) / p_side["median"],
                "wins": wins,
                "pairs": len(pairs),
            }
        workloads[name] = entry
    return workloads


def layer_medians(parent: dict, change: dict) -> dict:
    out = {}
    for key in sorted(set(parent) & set(change)):
        name, seed = key
        p_metrics, c_metrics = parent[key]["result"]["metrics"], change[key]["result"]["metrics"]
        out.setdefault(name, {"seeds": []})["seeds"].append(seed)
        for metric in sorted(set(p_metrics) & set(c_metrics)):
            row = out[name].setdefault(metric, {"parent": [], "change": []})
            row["parent"].append(p_metrics[metric]["value"])
            row["change"].append(c_metrics[metric]["value"])
    for rows in out.values():
        for metric, row in rows.items():
            if metric != "seeds":
                row["parent"] = statistics.median(row["parent"])
                row["change"] = statistics.median(row["change"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_results(args.parent, 0), load_results(args.change, 0)
    if not set(parent) & set(change):
        raise SystemExit("error: no workload and seed was run on both sides")
    summary = {
        "environment": environment(list(parent.values()) + list(change.values())),
        "workloads": summarize(parent, change, end_to_end),
    }
    traced = layer_medians(load_results(args.parent, 1), load_results(args.change, 1))
    if traced:
        summary["traced_layer_medians"] = traced
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
