"""Domain errors cross process boundaries (grid workers) by pickle."""

import pickle

import pytest

from ddoscast import errors
from ddoscast.cli import _exit_code_for
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
    assert _exit_code_for(back) == _exit_code_for(exc)


def test_named_attributes_survive():
    schema = pickle.loads(pickle.dumps(errors.UnknownSubclassError(4, "unknown subclass 'x'")))
    assert (schema.location, schema.reason) == (4, "unknown subclass 'x'")
    short = pickle.loads(pickle.dumps(SeriesTooShortForWindowError(32, "too short")))
    assert short.window == 32
    diverged = pickle.loads(pickle.dumps(DivergedNonFiniteError("boom", history=None)))
    assert diverged.history is None and str(diverged) == "boom"
