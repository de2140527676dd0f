import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddoscast.errors import (
    DegenerateSigmaError,
    InvalidConfigError,
    SeriesTooShortError,
    SeriesTooShortForWindowError,
    TooFewValuesError,
)
from ddoscast.windowing import (
    NormalizationStats,
    NormSource,
    SplitSeries,
    WindowedDataset,
    build_windowed,
    check_window_fits,
    make_windows,
    normalization_stats,
    normalize,
    split,
    std_dev,
)


class TestStdDev:
    def test_constant_series(self):
        assert std_dev([5, 5, 5]) == 0.0

    def test_hand_evaluation(self):
        # deviations (-1, 0, 1): sqrt((1 + 0 + 1) / 2) = 1
        assert std_dev([1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2024)
        values = rng.normal(100.0, 37.0, size=1000)
        assert std_dev(values) == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)

    def test_too_few_values(self):
        with pytest.raises(TooFewValuesError):
            std_dev([1.0])


class TestNormalize:
    def test_identity_when_sigma_one(self):
        stats = normalization_stats([0.0, 1.0, 2.0])  # sigma == 1
        assert stats.sigma == pytest.approx(1.0, abs=1e-15)
        out = normalize([5.0, 6.0], stats)
        assert out.tolist() == [5.0, 6.0]

    def test_hand_division(self):
        stats = normalization_stats([2.0, 4.0, 6.0])
        assert stats.sigma == pytest.approx(2.0, abs=1e-12)
        assert normalize([2.0, 4.0, 6.0], stats).tolist() == pytest.approx([1.0, 2.0, 3.0])

    def test_algebraic_inverse(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-50, 50, size=200)
        stats = normalization_stats(values)
        back = normalize(values, stats) * stats.sigma
        assert np.allclose(back, values, rtol=1e-12, atol=0)

    def test_mean_is_computed_but_not_subtracted(self):
        values = np.array([10.0, 20.0, 30.0])
        stats = normalization_stats(values)
        assert stats.mu == 20.0
        out = normalize(values, stats)
        assert out[0] > 0  # no centering happened

    def test_argmax_preserved(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 3, size=500)
        out = normalize(values, normalization_stats(values))
        assert np.argmax(out) == np.argmax(values)
        assert np.argmin(out) == np.argmin(values)

    def test_degenerate_sigma(self):
        stats = normalization_stats([3.0, 3.0, 3.0])
        with pytest.raises(DegenerateSigmaError):
            normalize([3.0, 3.0], stats)


class TestSplit:
    @pytest.mark.parametrize(
        "n,expected",
        [(100, (50, 20, 30)), (101, (50, 20, 31)), (10, (5, 2, 3)), (99, (49, 19, 31))],
    )
    def test_floor_rule(self, n, expected):
        parts = split(np.arange(n, dtype=float))
        assert (parts.train.size, parts.validation.size, parts.test.size) == expected

    def test_chronological_no_shuffle(self):
        parts = split(np.arange(20, dtype=float))
        assert parts.train.tolist() == list(range(10))
        assert parts.validation.tolist() == [10.0, 11.0, 12.0, 13.0]
        assert parts.test.tolist() == [14.0, 15.0, 16.0, 17.0, 18.0, 19.0]

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            split(np.arange(9, dtype=float))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=10, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_lossless(self, values):
        parts = split(values)
        rejoined = np.concatenate([parts.train, parts.validation, parts.test])
        assert rejoined.tolist() == [float(v) for v in values]


class TestMakeWindows:
    def test_counting(self):
        assert len(make_windows(np.arange(100.0), 24)) == 76

    def test_boundary_zero_samples(self):
        assert len(make_windows(np.arange(8.0), 8)) == 0

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_is_refused(self, window):
        with pytest.raises(InvalidConfigError, match="window_size must be >= 1"):
            make_windows(np.arange(30.0), window)

    def test_index_enumeration(self):
        ws = make_windows(np.arange(10.0), 8)
        assert len(ws) == 2
        assert ws.x[0].tolist() == list(range(8))
        assert ws.y[0] == 8.0
        assert ws.x[1].tolist() == list(range(1, 9))
        assert ws.y[1] == 9.0

    def test_equals_per_sample_loop_for_every_window(self):
        values = np.random.default_rng(5).normal(size=12)
        for window in range(1, values.size + 2):
            n_samples = max(0, values.size - window)
            x = np.empty((n_samples, window))
            y = np.empty(n_samples)
            for i in range(n_samples):
                x[i] = values[i : i + window]
                y[i] = values[i + window]
            ws = make_windows(values, window)
            assert ws.x.shape == x.shape and ws.y.shape == y.shape
            assert ws.x.tobytes() == x.tobytes() and ws.y.tobytes() == y.tobytes()

    def test_windows_are_read_only_views(self):
        values = np.arange(10.0)
        ws = make_windows(values, 4)
        assert np.shares_memory(ws.x, values) and np.shares_memory(ws.y, values)
        for column in (ws.x, ws.y):
            with pytest.raises(ValueError):
                column[0] = -1.0
        values[9] = 99.0  # the caller's array stays writable
        assert ws.y[-1] == 99.0

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_shift_consistency(self, window, length):
        values = np.arange(length, dtype=float) * 1.5 - 3.0
        ws = make_windows(values, window)
        assert len(ws) == max(0, length - window)
        for i in range(len(ws) - 1):
            assert ws.x[i + 1].tolist() == ws.x[i][1:].tolist() + [ws.y[i]]


class TestBuildWindowed:
    def test_full_series_sigma_normalizes_to_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(40, 11, size=500)
        ds = build_windowed(values, 8)
        rejoined = np.concatenate([ds.splits.train, ds.splits.validation, ds.splits.test])
        assert float(np.std(rejoined, ddof=1)) == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(1, 9, size=300)
        base = build_windowed(values, 8)
        scaled = build_windowed(values * 137.0, 8)
        assert np.allclose(base.splits.train, scaled.splits.train, rtol=1e-12, atol=1e-12)
        assert np.allclose(base.test.x, scaled.test.x, rtol=1e-12, atol=1e-12)

    def test_windows_never_cross_split_boundaries(self):
        values = np.arange(100.0)
        ds = build_windowed(values, 8)
        parts = ds.splits
        assert len(ds.train) == parts.train.size - 8
        assert len(ds.validation) == parts.validation.size - 8
        assert len(ds.test) == parts.test.size - 8
        # first test window is made of test values only
        assert ds.test.x[0].tolist() == parts.test[:8].tolist()

    def test_train_only_source_uses_first_half(self):
        rng = np.random.default_rng(9)
        values = rng.normal(0, 4, size=200)
        ds = build_windowed(values, 8, NormSource.TRAIN_ONLY)
        assert ds.normalization.sigma == pytest.approx(std_dev(values[:100]), rel=1e-12)
        assert ds.normalization.source is NormSource.TRAIN_ONLY

    @pytest.mark.parametrize("values", [[7.0], [3.0] * 5], ids=["one-value", "constant"])
    def test_too_short_fails_for_its_length_before_sigma(self, values):
        # sigma of these is undefined or zero, but the length check comes first
        with pytest.raises(SeriesTooShortForWindowError) as err:
            build_windowed(values, 3)
        assert err.value.window == 3

    @pytest.mark.parametrize("empty", ["train", "validation", "test"])
    def test_empty_split(self, empty):
        windows = make_windows(np.arange(5.0), 4)
        parts = {name: make_windows(np.empty(0), 4) if name == empty else windows
                 for name in ("train", "validation", "test")}
        stats = NormalizationStats(sigma=1.0, mu=0.0, source=NormSource.FULL_SERIES)
        no_values = SplitSeries(train=np.empty(0), validation=np.empty(0), test=np.empty(0))
        with pytest.raises(SeriesTooShortForWindowError, match=empty) as err:
            WindowedDataset(window_size=4, normalization=stats, splits=no_values,
                            raw_splits=no_values, **parts)
        assert err.value.window == 4


class TestCheckWindowFits:
    def test_boundary(self):
        # n=50 splits 25/10/15: validation is the shortest, so W=9 is the largest fit
        check_window_fits(50, 9)
        with pytest.raises(SeriesTooShortForWindowError) as err:
            check_window_fits(50, 10)
        assert err.value.window == 10

    @pytest.mark.parametrize("part", ["train", "validation", "test"])
    @pytest.mark.parametrize("n", [10, 11, 17, 24, 33, 49, 50, 99, 128])
    def test_fits_iff_every_split_has_a_sample(self, n, part):
        parts = split(np.arange(float(n)))
        for window in range(1, n):
            samples = {
                name: len(make_windows(getattr(parts, name), window))
                for name in ("train", "validation", "test")
            }
            try:
                check_window_fits(n, window)
            except SeriesTooShortForWindowError:
                assert min(samples.values()) == 0
            else:
                assert samples[part] >= 1
