"""Exception types shared across the package."""

from __future__ import annotations


class RecselectError(Exception):
    """Base class for all package-specific errors.

    An error pickles as its arguments and attributes and unpickles without
    calling ``__init__``, so a subclass whose ``__init__`` takes its own fields
    comes back intact from a worker process.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls, args):
    return cls.__new__(cls, *args)  # sets ``args``; pickle then restores the attributes


class SchemaError(RecselectError):
    """Raised when an input table is missing required columns."""


class RowParseError(RecselectError):
    """Raised when a data row cannot be converted; carries the row index."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class EmptyDatasetError(RecselectError):
    """Raised when an operation receives or produces a dataset with no interactions."""


class ColdStartError(RecselectError):
    """Raised when recommendations are requested for a user absent from training."""


class DivergenceError(RecselectError):
    """Raised when iterative training produces non-finite values."""


class MatrixInversionError(RecselectError):
    """Raised when a closed-form solve fails on an ill-conditioned Gram matrix."""


class SourceMetricError(RecselectError):
    """Raised when source code cannot be tokenized or parsed for metrics."""


class ConfigError(RecselectError):
    """Raised for invalid or inconsistent configuration values."""


class SearchError(RecselectError):
    """Raised when hyperparameter search finds no candidate with a finite score."""


class WorkerExitError(RecselectError):
    """Raised when a worker process exits during a job; names the job index and the exit code."""

    def __init__(self, job_index: int, exit_code: int):
        how = f"was killed by signal {-exit_code}" if exit_code < 0 else f"exited with status {exit_code}"
        super().__init__(f"the worker process running job {job_index} {how} before returning a result")
        self.job_index = job_index
        self.exit_code = exit_code


class NonFiniteScoresError(RecselectError):
    """Raised when a recommender scores some item NaN or infinite; names the algorithm and user."""

    def __init__(self, algorithm: str, user: str):
        super().__init__(f"{algorithm} produced non-finite scores for user {user!r}")
        self.algorithm = algorithm
        self.user = user
