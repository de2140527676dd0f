"""Exception taxonomy shared by every ddoscast module.

Each class declares the exit code the command line gives it, and
subclasses inherit it; an error with no code of its own exits 1. A
MemoryError, which is Python's rather than a domain error, exits
OUT_OF_MEMORY_EXIT_CODE.
"""

import copyreg

OUT_OF_MEMORY_EXIT_CODE = 9


class DdoscastError(Exception):
    """Base class for all domain errors raised by this package.

    Errors pickle with their type, message and attributes, so an error
    raised in a worker process reaches the parent intact.
    """

    exit_code = 1

    def __reduce__(self):
        # Exception.__reduce__ rebuilds by calling cls(*args), and args holds
        # only the message, which breaks subclasses whose __init__ takes
        # (location, reason) or (window, message). Rebuild without __init__.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidConfigError(DdoscastError, ValueError):
    """A hyperparameter or grid setting is out of range (also a ValueError)."""

    exit_code = 2


class ReplayRefusedError(DdoscastError):
    """A manifest does not describe a run that can be replayed as it was recorded."""

    exit_code = 7


class InputChangedError(ReplayRefusedError):
    """A replayed run's input no longer has the SHA-256 its manifest recorded."""


# --- ingest ---------------------------------------------------------------


class NotJsonError(DdoscastError):
    """Input is neither a JSON array of objects nor NDJSON."""

    exit_code = 2


class SchemaViolationError(DdoscastError):
    """Strict-mode parse abort: first malformed entry, with its location."""

    exit_code = 2

    def __init__(self, location, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"entry {location}: {reason}")


class UnknownSubclassError(SchemaViolationError):
    """Strict-mode parse abort on a subclass outside the known taxonomy."""


class EmptyDateRangeError(DdoscastError):
    """Synthetic spec date range is empty (end before start)."""

    exit_code = 2


class AllZeroWeightsError(DdoscastError):
    """Synthetic spec subclass weights are all zero (or negative weights given)."""

    exit_code = 2


# --- preprocess / analytics ----------------------------------------------


class SubclassAbsentError(DdoscastError):
    """Requested subclass never occurs in the aggregate table."""


class EmptyDatasetError(DdoscastError):
    """Operation requires at least one record."""

    exit_code = 3


class YearAbsentError(DdoscastError):
    """Requested comparison year has no records."""


# --- dataset --------------------------------------------------------------


class TooFewValuesError(DdoscastError):
    """Standard deviation needs at least two values."""


class DegenerateSigmaError(DdoscastError):
    """Constant series: sigma is zero, normalization undefined."""


class SeriesTooShortError(DdoscastError):
    """Series shorter than 10 values cannot be split 50/20/30 with all parts non-empty."""

    exit_code = 4


# --- neural ---------------------------------------------------------------


class NonFiniteStateError(DdoscastError):
    """A value is not finite or overflows float64.

    Raised for LSTM state during a step, a prediction multiplied back by
    sigma, and chart values that are not finite or span too far to scale.
    """


class LengthMismatchError(DdoscastError):
    """Paired vectors (targets/predictions, series/labels) differ in length."""


class EmptyInputError(DdoscastError):
    """Metric over zero points is undefined."""


class CacheMismatchError(DdoscastError):
    """Backward called with a cache that does not match the targets batch."""


class DivergedNonFiniteError(DdoscastError):
    """Training loss became non-finite; aborted with partial history."""

    exit_code = 5

    def __init__(self, message: str, history=None):
        self.history = history
        super().__init__(message)


class VersionMismatchError(DdoscastError):
    """Checkpoint was written by an incompatible format version."""

    exit_code = 6


class CorruptCheckpointError(DdoscastError):
    """Checkpoint bytes are truncated or structurally invalid."""

    exit_code = 6


# --- evalgrid -------------------------------------------------------------


class SeriesTooShortForWindowError(DdoscastError):
    """A window size does not fit in every split of the series (each needs W+1 values)."""

    exit_code = 4

    def __init__(self, window: int, message: str):
        self.window = window
        super().__init__(message)


class EmptyGridError(DdoscastError):
    """Grid result holds no cells."""


class WorkerLostError(DdoscastError):
    """A ``pool`` worker process ended without returning its result (e.g. killed by a signal).

    Raised by the command whose worker it was, ``grid`` or ``ingest``; the
    message names that command ("a grid worker process ended abruptly ...").
    """

    exit_code = 8


# --- chart ----------------------------------------------------------------


class EmptySeriesError(DdoscastError):
    """Chart needs at least one series of at least two points."""
