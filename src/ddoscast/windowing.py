"""Normalization, chronological splitting and sliding-window sampling.

A daily series becomes supervised one-step-ahead samples: normalize by the
sample standard deviation (the mean is computed alongside but deliberately
not subtracted), split 50/20/30 in time order, then window each split
independently so no sample straddles a split boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSigmaError,
    InvalidConfigError,
    SeriesTooShortError,
    SeriesTooShortForWindowError,
    TooFewValuesError,
)


class NormSource(enum.Enum):
    FULL_SERIES = "full_series"
    TRAIN_ONLY = "train_only"


@dataclass(frozen=True)
class NormalizationStats:
    sigma: float
    mu: float
    source: NormSource


@dataclass(frozen=True)
class SplitSeries:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class WindowSet:
    """Supervised samples of one split: row i is (x=X[i], y=y[i])."""

    x: np.ndarray  # (n_samples, window_size)
    y: np.ndarray  # (n_samples,)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class WindowedDataset:
    window_size: int
    normalization: NormalizationStats
    splits: SplitSeries  # normalized value slices
    train: WindowSet
    validation: WindowSet
    test: WindowSet

    def split(self, name: str) -> WindowSet:
        return {"train": self.train, "validation": self.validation, "test": self.test}[name]


def std_dev(values) -> float:
    """Sample standard deviation: sqrt(sum((x - mu)^2) / (N - 1))."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise TooFewValuesError(f"need at least 2 values, got {n}")
    mu = arr.sum() / n
    dev = arr - mu
    return math.sqrt(float(np.dot(dev, dev)) / (n - 1))


def normalization_stats(values, source: NormSource = NormSource.FULL_SERIES) -> NormalizationStats:
    """Sigma and mu over the declared source slice of the series."""
    arr = np.asarray(values, dtype=np.float64)
    if source is NormSource.TRAIN_ONLY:
        arr = arr[: arr.size // 2]
    if arr.size < 2:
        raise TooFewValuesError("source slice shorter than 2 values")
    return NormalizationStats(
        sigma=std_dev(arr), mu=float(arr.sum() / arr.size), source=source
    )


def normalize(values, stats: NormalizationStats) -> np.ndarray:
    """Divide by sigma. The mean is not subtracted."""
    if stats.sigma == 0.0:
        raise DegenerateSigmaError("constant series cannot be normalized")
    return np.asarray(values, dtype=np.float64) / stats.sigma


def _split_sizes(n: int) -> tuple[int, int, int]:
    """Train, validation and test lengths of an n-value series."""
    return n // 2, n // 5, n - n // 2 - n // 5


def split(values) -> SplitSeries:
    """Chronological 50/20/30 split, floor rule, remainder to test."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 10:
        raise SeriesTooShortError(f"need at least 10 values to split, got {n}")
    n_train, n_val, _ = _split_sizes(n)
    return SplitSeries(
        train=arr[:n_train],
        validation=arr[n_train : n_train + n_val],
        test=arr[n_train + n_val :],
    )


def check_window_fits(n_values: int, window_size: int) -> None:
    """Raise unless every split of an n-value series holds window_size + 1 values.

    W+1 values are the fewest that give a split one (window, next value)
    sample, so a window that passes yields samples in train, validation
    and test alike.
    """
    shortest = min(_split_sizes(n_values))
    if shortest < window_size + 1:
        raise SeriesTooShortForWindowError(
            window_size,
            f"shortest split has {shortest} values; window {window_size} "
            f"needs at least W+1 = {window_size + 1}",
        )


def make_windows(values, window_size: int) -> WindowSet:
    """All (window, next value) samples of one split; max(0, L - W) of them."""
    if window_size < 1:
        raise InvalidConfigError("window_size must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    n_samples = max(0, arr.size - window_size)
    x = np.empty((n_samples, window_size), dtype=np.float64)
    y = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        x[i] = arr[i : i + window_size]
        y[i] = arr[i + window_size]
    return WindowSet(x=x, y=y)


def build_windowed(
    values, window_size: int, source: NormSource = NormSource.FULL_SERIES
) -> WindowedDataset:
    """Full pipeline: normalize, split, window each split independently."""
    stats = normalization_stats(values, source)
    normed = normalize(values, stats)
    parts = split(normed)
    return WindowedDataset(
        window_size=window_size,
        normalization=stats,
        splits=parts,
        train=make_windows(parts.train, window_size),
        validation=make_windows(parts.validation, window_size),
        test=make_windows(parts.test, window_size),
    )
