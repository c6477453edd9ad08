"""Workload definitions: the fixed op pools, their inputs and their op order.

Every workload draws its ops from a fixed pool of 48 entries whose golden
fit-criterion values and baseline op times are recorded in
``golden_<workload>.json``. The workload seed only chooses the order in which
a run visits the pool (a run cycles through the pool if the program is fast
enough to exhaust it), so the same seed always gives the same inputs and
every op has a golden value.

Only numpy and the standard library are used here, so set-up can be timed
from before ``import gpselect``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL_SIZE = 48
# Each group's entries are dealt into this many cost-balanced columns (see Workload.ops).
COLUMNS = 2
HERE = Path(__file__).resolve().parent

# rank_synth: the four teachers of the paper's teacher-student experiment,
# rotated op by op so every run sees the same teacher mix.
TEACHERS = (
    ("se", ()),
    ("rq", ("--alpha", "1")),
    ("exp", ()),
    ("per", ("--period", "3")),
)

# rank_csv: four pool datasets, rotated op by op like the teachers.
CSV_COUNT = 4
CSV_ROWS = 1024
CSV_DIM = 6
CSV_NOISE = 0.1


@dataclass(frozen=True)
class Op:
    entry: int  # index into the workload's pool; also the op's --seed
    group: int  # teacher index (rank_synth) or dataset index (rank_csv)

    @property
    def seed(self) -> int:
        return self.entry


@dataclass(frozen=True)
class Workload:
    name: str
    groups: int
    fit_criterion: str
    criteria: tuple[str, ...]
    replicates: int
    n_train: int
    n_test: int

    def argv(self, op: Op, inputs: Path, out_prefix: Path) -> list[str]:
        common = ["--replicates", str(self.replicates), "--seed", str(op.seed), "--out", str(out_prefix)]
        if self.name == "rank_synth":
            kernel, extra = TEACHERS[op.group]
            return ["rank", "--teacher-kernel", kernel, *extra, *common]
        return [
            "rank",
            "--data",
            str(csv_path(inputs, op.group)),
            "--n-train",
            str(self.n_train),
            "--n-test",
            str(self.n_test),
            "--fit-criterion",
            self.fit_criterion,
            "--criteria",
            ",".join(self.criteria),
            *common,
        ]

    def ops(self, seed: int) -> list[Op]:
        """One cycle through the pool for a workload seed.

        Groups rotate op by op. Within a group, entries are ranked by their
        recorded baseline op time and dealt round-robin into COLUMNS columns,
        each spanning the whole cost range; the seed shuffles the columns, and
        each group walks a column starting at a cost level offset by the
        group. So every seed's run sees a similar cost mix (stratified
        sampling) while its entries still differ.
        """
        seconds = {int(e): g["seconds"] for e, g in load_golden(self.name).items()}
        per_group = POOL_SIZE // self.groups
        rng = np.random.default_rng(seed)
        sequences = []
        for group in range(self.groups):
            ranked = sorted(range(group, POOL_SIZE, self.groups), key=lambda e: (seconds[e], e))
            columns = [ranked[c::COLUMNS] for c in range(COLUMNS)]
            order = rng.permutation(COLUMNS)
            sequences.append(
                [columns[c][(j + group) % len(columns[c])] for c in order for j in range(len(columns[c]))]
            )
        return [self.op(sequences[i % self.groups][i // self.groups]) for i in range(per_group * self.groups)]

    def op(self, entry: int) -> Op:
        return Op(entry, entry % self.groups)

    def write_inputs(self, inputs: Path, seed: int) -> None:
        """Write the run's inputs: the op order and the pool datasets."""
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "ops.json").write_text(json.dumps([op.entry for op in self.ops(seed)]) + "\n")
        self.write_data(inputs)

    def write_data(self, inputs: Path) -> None:
        if self.name == "rank_csv":
            for c in range(CSV_COUNT):
                write_csv_dataset(csv_path(inputs, c), c)

    def read_ops(self, inputs: Path) -> list[Op]:
        return [self.op(entry) for entry in json.loads((inputs / "ops.json").read_text())]


WORKLOADS = {
    w.name: w
    for w in (
        # CLI defaults: students se,rq,exp,per; all four criteria; fit by evidence.
        Workload("rank_synth", len(TEACHERS), "evidence", ("evidence", "loo", "basc", "bnasc"), 4, 64, 256),
        Workload("rank_csv", CSV_COUNT, "loo", ("evidence", "loo"), 1, 128, 512),
    )
}


def load_golden(name: str) -> dict:
    """Pool entry -> {"seconds": baseline op time, "fit": golden fit values}; see record_golden.py."""
    return json.loads((HERE / f"golden_{name}.json").read_text())


def csv_path(inputs: Path, index: int) -> Path:
    return inputs / f"data{index}.csv"


def csv_dataset(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool dataset ``index``: a smooth nonlinear function of 6 inputs plus noise."""
    rng = np.random.default_rng([1610, 907, index])
    x = rng.uniform(-2.0, 2.0, size=(CSV_ROWS, CSV_DIM))
    f = (
        np.sin(1.5 * x[:, 0])
        + 0.5 * x[:, 1] * x[:, 2]
        + np.exp(-(x[:, 3] ** 2))
        + 0.3 * np.cos(2.0 * x[:, 4])
        + 0.2 * x[:, 5]
    )
    y = f + CSV_NOISE * rng.standard_normal(CSV_ROWS)
    return x, y


def write_csv_dataset(path: Path, index: int) -> None:
    x, y = csv_dataset(index)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d + 1}" for d in range(CSV_DIM)] + ["y"])
        for row, target in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
