"""The settings of a run that the command line's option tables name, without numpy.

``cli`` builds its options from these when it is imported, before it knows
which command runs; a command that computes nothing with numpy (``ingest``)
then starts without loading it. Each name is also read from the module that
computes with it, where it was defined before: ``preprocess.Metric``,
``windowing.NormSource``, ``lstm.TrainConfig`` and ``grid``'s default sizes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidConfigError


class Metric(enum.Enum):
    COUNT = "count"
    DURATION_MIN = "duration_min"
    MAX_GBPS = "max_gbps"


class NormSource(enum.Enum):
    FULL_SERIES = "full_series"
    TRAIN_ONLY = "train_only"


@dataclass(frozen=True)
class TrainConfig:
    window_size: int
    hidden_size: int
    learning_rate: float = 0.0002
    epochs: int = 100
    batch_size: int = 32
    rho: float = 0.9
    epsilon: float = 1e-7
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("window_size", "hidden_size", "epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        # written as "not ok" so that NaN fails every check
        for ok, name, rule in (
            (self.window_size >= 1, "window_size", ">= 1"),
            (self.hidden_size >= 1, "hidden_size", ">= 1"),
            (0 < self.learning_rate < math.inf, "learning_rate", "positive and finite"),
            (self.epochs >= 1, "epochs", ">= 1"),
            (self.batch_size >= 1, "batch_size", ">= 1"),
            (0.0 <= self.rho < 1.0, "rho", "in [0, 1)"),
            (self.epsilon > 0, "epsilon", "positive"),
            (self.clip_norm > 0, "clip_norm", "positive"),
            (self.seed >= 0, "seed", ">= 0"),
        ):
            if not ok:
                raise InvalidConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


# The window and hidden sizes a grid sweeps when none are given.
DEFAULT_WINDOW_SIZES = (8, 16, 24, 32)
DEFAULT_HIDDEN_SIZES = (32, 64, 128)
