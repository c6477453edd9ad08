"""Gaussian-process regression with evidence, cross-validation and
posterior-agreement model selection.

The root exports what a caller builds an experiment from; engine stages are
imported from their home modules. ``log_evidence`` (the benchmark's tracer
test reads it here) and its LOO twin ``loo_cv_objective`` stay too.
"""

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
from .harness import ExperimentConfig, load_csv_dataset, run_ranking, sample_synthetic
from .kernels import KernelSpec, KernelStructure, kernel_matrix
from .optimize import FitConfig, OptResult, optimize
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
