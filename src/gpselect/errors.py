"""Exception hierarchy for numerical and data failures."""

from __future__ import annotations

from functools import cached_property
from typing import Callable


class GpSelectError(Exception):
    """Base class for all library-specific failures."""


class SingularCovariance(GpSelectError):
    """A covariance matrix failed Cholesky factorization even after jitter.

    ``pivot`` computes the failed matrix's smallest pivot. Most such failures
    are caught unread, so it runs only when ``smallest_pivot`` or the message is read.
    """

    def __init__(self, message: str, pivot: Callable[[], float | None] | None = None):
        super().__init__(message)
        self._pivot = pivot

    @cached_property
    def smallest_pivot(self) -> float | None:
        return None if self._pivot is None else self._pivot()

    def __str__(self) -> str:
        pivot = self.smallest_pivot
        return super().__str__() + ("" if pivot is None else f" (smallest pivot {pivot:.3e})")


class InsufficientData(GpSelectError, ValueError):
    """Too few data points for the requested criterion or partition layout."""


class AllPartitionsFailed(GpSelectError):
    """Every data partition failed numerically; the objective is undefined."""

    def __init__(self, n_partitions: int):
        super().__init__(n_partitions)
        self.n_partitions = n_partitions

    def __str__(self) -> str:
        return f"all {self.n_partitions} partitions failed numerically"


class OptimizationFailed(GpSelectError):
    """No restart produced a finite objective value."""


class SchemaError(GpSelectError):
    """An input file's columns do not fit the request: its header names a column
    twice, no input is left, a requested column is missing, an input repeats or
    is the output, or an input transform overflows or is half, malformed or of another width."""


class EmptyData(GpSelectError):
    """No usable rows remained after parsing an input file."""


class DegenerateBaseline(GpSelectError):
    """Training outputs have zero variance; the trivial predictor is undefined."""
