"""Gaussian-process regression with evidence, cross-validation and
posterior-agreement model selection."""

from .criteria import (
    AscConfig,
    AscScore,
    Criterion,
    Partitions,
    average_log_eta,
    sample_partitions,
)
from .errors import (
    AllPartitionsFailed,
    DegenerateBaseline,
    EmptyData,
    GpSelectError,
    InsufficientData,
    OptimizationFailed,
    SchemaError,
    SingularCovariance,
)
from .gaussian import log_product_integral, maxent_linear_map_posterior
from .harness import (
    ExperimentConfig,
    aggregate_ranks,
    load_csv_dataset,
    rank_students,
    run_ranking,
    sample_synthetic,
)
from .kernels import KernelSpec, KernelStructure, kernel_matrix, noisy_kernel_matrix
from .optimize import FitConfig, OptResult, evaluate_criterion, finite_diff_gradient, optimize
from .regression import Dataset, log_evidence, loo_cv_objective, msll, predict

__all__ = [
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
    "aggregate_ranks",
    "average_log_eta",
    "evaluate_criterion",
    "finite_diff_gradient",
    "kernel_matrix",
    "load_csv_dataset",
    "log_evidence",
    "log_product_integral",
    "loo_cv_objective",
    "maxent_linear_map_posterior",
    "msll",
    "noisy_kernel_matrix",
    "optimize",
    "predict",
    "rank_students",
    "run_ranking",
    "sample_partitions",
    "sample_synthetic",
]
