"""Exception hierarchy for numerical and data failures."""

from __future__ import annotations


class GpSelectError(Exception):
    """Base class for all library-specific failures."""


class SingularCovariance(GpSelectError):
    """A covariance matrix failed Cholesky factorization even after jitter."""

    def __init__(self, message: str, smallest_pivot: float | None = None):
        if smallest_pivot is not None:
            message = f"{message} (smallest pivot {smallest_pivot:.3e})"
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class InsufficientData(GpSelectError):
    """Too few data points for the requested partition layout."""


class AllPartitionsFailed(GpSelectError):
    """Every data partition failed numerically; the objective is undefined."""

    def __init__(self, n_partitions: int):
        super().__init__(f"all {n_partitions} partitions failed numerically")
        self.n_partitions = n_partitions


class OptimizationFailed(GpSelectError):
    """No restart produced a finite objective value."""


class SchemaError(GpSelectError):
    """A requested column is missing from an input file."""


class EmptyData(GpSelectError):
    """No usable rows remained after parsing an input file."""


class DegenerateBaseline(GpSelectError):
    """Training outputs have zero variance; the trivial predictor is undefined."""
