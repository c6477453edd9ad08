"""Self-tests of the benchmark's own machinery (run: python3 -m pytest perfbench -q)."""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

import runner  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli = runner.import_cli(ROOT / "src")


@pytest.fixture(scope="module")
def csv_op(tmp_path_factory):
    """One rank_csv op, run once: its inputs, the op run and the dataset it used."""
    workload = WORKLOADS["rank_csv"]
    inputs = tmp_path_factory.mktemp("inputs")
    workload.write_inputs(inputs, 3)
    op = workload.read_ops(inputs)[0]
    run = runner.execute(cli, workload, op, inputs, inputs / "op")
    assert run.code == 0, run.stderr
    data = runner.load_csv_data(workload, inputs)[op.group]
    return workload, op, run, data


def _check(workload, op, report, data):
    return oracle.check_rank_report(report, workload, op, data, None, check_asc=False)


def test_checker_accepts_the_programs_report(csv_op):
    workload, op, run, data = csv_op
    assert _check(workload, op, run.report, data).problems == []


def test_checker_rejects_each_verifiable_score_perturbed_by_1e_3(csv_op):
    workload, op, run, data = csv_op
    rep = run.report["replicates"][0]
    split = oracle.csv_replicate(*data, op.seed, 0, workload.n_train, workload.n_test)
    cells = [
        (col, s)
        for s in oracle.STUDENTS
        if rep["theta"][s] is not None
        for col, (want, strict) in oracle.expected_scores(
            s, np.asarray(rep["theta"][s]), *split, list(rep["scores"])
        ).items()
        if want is not None and strict
    ]
    assert cells
    for col, student in cells:
        bent = copy.deepcopy(run.report)
        value = bent["replicates"][0]["scores"][col][student]
        bent["replicates"][0]["scores"][col][student] = value + 1e-3 * max(1.0, abs(value))
        assert _check(workload, op, bent, data).problems, (col, student)


def test_checker_rejects_a_wrong_rank(csv_op):
    workload, op, run, data = csv_op
    bent = copy.deepcopy(run.report)
    ranks = bent["replicates"][0]["ranks"]["loo"]
    first, second = list(ranks)[:2]
    ranks[first], ranks[second] = ranks[second], ranks[first] + 0.5
    assert _check(workload, op, bent, data).problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workload = WORKLOADS[name]
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        workload.write_inputs(tmp_path / sub, seed)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "ops.json").read_bytes() != (tmp_path / "c" / "ops.json").read_bytes()


def test_one_cycle_visits_every_pool_entry_once():
    for workload in WORKLOADS.values():
        entries = [op.entry for op in workload.ops(11)]
        assert sorted(entries) == list(range(len(entries)))


def test_span_self_times_sum_to_the_root_span(tmp_path):
    argv = ["rank", "--teacher-kernel", "se", "--replicates", "1", "--restarts", "1",
            "--students", "se,exp", "--criteria", "evidence,bnasc", "--J", "4",
            "--seed", "2", "--out", str(tmp_path / "r")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        start = perf_counter()
        assert cli.main(argv) == 0
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    roots = tracer.root_spans()
    assert list(roots) == [0]
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(roots[0], rel=1e-9)
    assert 0.0 <= wall - roots[0] <= 1e-3
    names = {span[0] for span in tracer.spans}
    for expected in ("gaussian.chol_spd", "gaussian.from_moments", "optimize.finite_diff_gradient",
                     "criteria.average_log_eta", "harness.write_report"):
        assert expected in names


def test_tracer_wraps_every_binding_site_and_restores_it():
    modules = [sys.modules["gpselect"]] + [sys.modules[f"gpselect.{m}"] for m in tracing.MODULES]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    from_moments = sys.modules["gpselect.gaussian"].GaussianDist.__dict__["from_moments"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        chol = sys.modules["gpselect.gaussian"].chol_spd
        for mod in ("gpselect.criteria", "gpselect.harness", "gpselect.regression"):
            assert sys.modules[mod].chol_spd is chol
        assert hasattr(chol, "__wrapped__")
        assert sys.modules["gpselect.optimize"].log_evidence is sys.modules["gpselect.regression"].log_evidence
        assert hasattr(sys.modules["gpselect"].log_evidence, "__wrapped__")
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert sys.modules["gpselect.gaussian"].GaussianDist.__dict__["from_moments"] is from_moments
