"""Domain errors: their exit codes, and crossing process boundaries (grid workers) by pickle."""

import pickle

import pytest

from conftest import readme_exit_codes
from ddoscast import errors
from ddoscast.errors import (
    DdoscastError,
    DivergedNonFiniteError,
    SchemaViolationError,
    SeriesTooShortForWindowError,
)
from ddoscast.lstm import TrainHistory


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ALL_ERRORS = sorted({DdoscastError, *_subclasses(DdoscastError)}, key=lambda c: c.__name__)


def _instance(cls) -> DdoscastError:
    if issubclass(cls, SchemaViolationError):
        return cls(12, "stop before start")
    if issubclass(cls, SeriesTooShortForWindowError):
        return cls(32, "window 32 does not fit the test split")
    if issubclass(cls, DivergedNonFiniteError):
        return cls("non-finite gradients", history=TrainHistory([1.5, 0.25], [2.5, 0.75]))
    return cls("something went wrong")


def test_every_error_class_is_covered():
    declared = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, DdoscastError)
    }
    assert declared == set(ALL_ERRORS)


@pytest.mark.parametrize("cls", ALL_ERRORS, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_attributes(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
    assert back.exit_code == exc.exit_code


def test_named_attributes_survive():
    schema = pickle.loads(pickle.dumps(errors.UnknownSubclassError(4, "unknown subclass 'x'")))
    assert (schema.location, schema.reason) == (4, "unknown subclass 'x'")
    short = pickle.loads(pickle.dumps(SeriesTooShortForWindowError(32, "too short")))
    assert short.window == 32
    diverged = pickle.loads(pickle.dumps(DivergedNonFiniteError("boom", history=None)))
    assert diverged.history is None and str(diverged) == "boom"


# The exit code of every domain error, and of MemoryError, as the README documents it.
EXIT_CODES = {
    errors.DdoscastError: 1,
    errors.InvalidConfigError: 2,
    errors.ReplayRefusedError: 7,
    errors.InputChangedError: 7,
    errors.NotJsonError: 2,
    errors.SchemaViolationError: 2,
    errors.UnknownSubclassError: 2,
    errors.EmptyDateRangeError: 2,
    errors.AllZeroWeightsError: 2,
    errors.SubclassAbsentError: 1,
    errors.EmptyDatasetError: 3,
    errors.YearAbsentError: 1,
    errors.TooFewValuesError: 1,
    errors.DegenerateSigmaError: 1,
    errors.SeriesTooShortError: 4,
    errors.NonFiniteStateError: 1,
    errors.LengthMismatchError: 1,
    errors.EmptyInputError: 1,
    errors.CacheMismatchError: 1,
    errors.DivergedNonFiniteError: 5,
    errors.VersionMismatchError: 6,
    errors.CorruptCheckpointError: 6,
    errors.SeriesTooShortForWindowError: 4,
    errors.EmptyGridError: 1,
    errors.WorkerLostError: 8,
    errors.EmptySeriesError: 1,
    MemoryError: 9,
}


def test_every_error_class_has_its_exit_code():
    codes = {cls: cls.exit_code for cls in ALL_ERRORS}
    assert codes | {MemoryError: errors.OUT_OF_MEMORY_EXIT_CODE} == EXIT_CODES


def test_readme_table_lists_exactly_the_exit_codes():
    # 0 is success, 130 SIGINT and 143 SIGTERM
    assert readme_exit_codes() == set(EXIT_CODES.values()) | {0, 130, 143}
