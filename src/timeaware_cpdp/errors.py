"""Exception types shared across the package.

Dataset and configuration problems abort a run (CLI exit code 1). An
UnusableDataError, or one of its subclasses, skips only the affected
(pair, technique) combination; any other exception fails the run.
"""


class DatasetError(Exception):
    """Base class for problems with the input dataset."""


class ParseError(DatasetError):
    """Malformed dataset content. Carries the 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConflictError(ParseError):
    """Contradictory rows, e.g. one project version with two release dates."""


class EmptyDatasetError(DatasetError):
    """No data rows at all."""


class ConfigError(Exception):
    """Invalid experiment configuration."""


class UnusableDataError(ValueError):
    """Input a treatment or the tree cannot use; skips one (pair, technique)."""


class DegenerateTreatmentError(UnusableDataError):
    """A treatment removed everything it was given; skips its (pair, technique)."""


class BalancingError(UnusableDataError):
    """Under-sampling is impossible, e.g. a single-class training set."""
