"""The package root exports what a caller puts an experiment together from,
and each engine stage has one import path: its home module."""

import importlib

import pytest

import gpselect

ROOT_EXPORTS = [
    "AllPartitionsFailed",
    "AscConfig",
    "AscScore",
    "Criterion",
    "Dataset",
    "DegenerateBaseline",
    "EmptyData",
    "ExperimentConfig",
    "FitConfig",
    "GpSelectError",
    "InsufficientData",
    "KernelSpec",
    "KernelStructure",
    "OptResult",
    "OptimizationFailed",
    "Partitions",
    "SchemaError",
    "SingularCovariance",
    "average_log_eta",
    "kernel_matrix",
    "load_csv_dataset",
    "log_evidence",
    "loo_cv_objective",
    "msll",
    "optimize",
    "predict",
    "run_ranking",
    "sample_partitions",
    "sample_synthetic",
]

ENGINE_STAGES = [
    ("harness", "rank_students"),
    ("harness", "aggregate_ranks"),
    ("optimize", "evaluate_criterion"),
    ("optimize", "finite_diff_gradient"),
    ("gaussian", "maxent_linear_map_posterior"),
    ("gaussian", "log_product_integral"),
    ("kernels", "noisy_kernel_matrix"),
]


def test_root_exports_the_declared_names():
    assert sorted(gpselect.__all__) == ROOT_EXPORTS
    for name in ROOT_EXPORTS:
        assert getattr(gpselect, name) is not None


@pytest.mark.parametrize("module,name", ENGINE_STAGES, ids=[name for _, name in ENGINE_STAGES])
def test_engine_stage_resolves_in_its_home_module_only(module, name):
    assert callable(getattr(importlib.import_module(f"gpselect.{module}"), name))
    assert not hasattr(gpselect, name)
