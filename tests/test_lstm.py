import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ddoscast.errors import (
    CacheMismatchError,
    CorruptCheckpointError,
    DivergedNonFiniteError,
    EmptyInputError,
    EmptySplitError,
    InvalidConfigError,
    LengthMismatchError,
    NonFiniteStateError,
    TrainSetEmptyError,
    VersionMismatchError,
)
from ddoscast.lstm import (
    LstmParams,
    RmsPropState,
    TrainConfig,
    backward,
    clip_gradients,
    forward_batch,
    init_model,
    load_checkpoint,
    mse,
    predict_batch,
    predict_series,
    rmsprop_update,
    save_checkpoint,
    train,
)
from ddoscast.windowing import (
    NormalizationStats,
    NormSource,
    SplitSeries,
    WindowedDataset,
    build_windowed,
    make_windows,
)
from lstm_oracle import LstmState, forward, lstm_step, mae


def zero_params(h: int) -> LstmParams:
    return LstmParams.zeros(h)


def params_equal(a: LstmParams, b: LstmParams) -> bool:
    return a.hidden_size == b.hidden_size and np.array_equal(a.flat, b.flat)


def manual_dataset(x: np.ndarray, y: np.ndarray, window: int, sigma=1.0) -> WindowedDataset:
    """Dataset with hand-made train windows and empty val/test."""
    empty = make_windows(np.empty(0), window)
    stats = NormalizationStats(sigma=sigma, mu=0.0, source=NormSource.FULL_SERIES)
    from ddoscast.windowing import WindowSet

    return WindowedDataset(
        window_size=window,
        normalization=stats,
        splits=SplitSeries(
            train=np.empty(0), validation=np.empty(0), test=np.empty(0)
        ),
        train=WindowSet(x=x, y=y),
        validation=empty,
        test=empty,
    )


class TestInit:
    def test_deterministic(self):
        assert params_equal(init_model(16, seed=3), init_model(16, seed=3))
        assert not params_equal(init_model(16, seed=3), init_model(16, seed=4))

    def test_parameter_count_h64(self):
        # 4*(H + H^2 + H) + H + 1 for H=64
        assert init_model(64, seed=0).flat.size == 4 * (64 + 64 * 64 + 64) + 64 + 1 == 16961

    def test_views_partition_the_vector_in_order(self):
        h = 3
        params = LstmParams(np.arange(4 * h * h + 9 * h + 1, dtype=np.float64), h)
        views = (params.W, params.U, params.b, params.wy, params.by)
        assert [v.shape for v in views] == [(4 * h,), (4 * h, h), (4 * h,), (h,), (1,)]
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), params.flat)
        params.U[2 * h, 1] = -1.0  # views write through to the vector
        assert params.flat[4 * h + 2 * h * h + 1] == -1.0

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            LstmParams(np.zeros(10), 3)

    def test_forget_bias_ones_other_biases_zero(self):
        h = 12
        params = init_model(h, seed=1)
        assert np.all(params.b[h : 2 * h] == 1.0)  # forget gate
        assert np.all(params.b[:h] == 0.0)
        assert np.all(params.b[2 * h :] == 0.0)
        assert np.all(params.by == 0.0)

    def test_input_weights_in_glorot_bounds(self):
        h = 30
        params = init_model(h, seed=2)
        lim = math.sqrt(6.0 / (1 + h))
        for w in (params.W, params.wy):
            assert np.all(np.abs(w) <= lim)

    def test_recurrent_weights_orthogonal(self):
        params = init_model(24, seed=5)
        for u in params.U.reshape(4, 24, 24):
            assert np.allclose(u.T @ u, np.eye(24), atol=1e-10)


class TestStep:
    def test_zero_params_fixed_point(self):
        h = 4
        state = lstm_step(zero_params(h), 3.7, LstmState(h=np.zeros(h), c=np.zeros(h)))
        assert np.all(state.h == 0.0)
        assert np.all(state.c == 0.0)

    def test_matches_direct_gate_equations(self):
        # H=2, hand-picked small weights evaluated with math.* directly
        wi, wf, wo, wg = [0.1, -0.2], [0.3, 0.05], [-0.15, 0.25], [0.4, -0.1]
        ui = np.array([[0.05, -0.02], [0.03, 0.07]])
        uf = np.array([[0.02, 0.01], [-0.06, 0.04]])
        uo = np.array([[0.08, -0.03], [0.02, 0.09]])
        ug = np.array([[-0.04, 0.06], [0.05, -0.07]])
        bi, bf, bo, bg = [0.01, -0.01], [1.0, 1.0], [0.02, 0.03], [-0.02, 0.04]
        p = zero_params(2)
        p.W[:] = wi + wf + wo + wg
        p.U[:] = np.vstack([ui, uf, uo, ug])
        p.b[:] = bi + bf + bo + bg
        x = 0.7
        h0 = np.array([0.1, -0.3])
        c0 = np.array([0.2, 0.5])

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        expect_h, expect_c = [], []
        for k in range(2):
            a_i = wi[k] * x + ui[k, 0] * h0[0] + ui[k, 1] * h0[1] + bi[k]
            a_f = wf[k] * x + uf[k, 0] * h0[0] + uf[k, 1] * h0[1] + bf[k]
            a_o = wo[k] * x + uo[k, 0] * h0[0] + uo[k, 1] * h0[1] + bo[k]
            a_g = wg[k] * x + ug[k, 0] * h0[0] + ug[k, 1] * h0[1] + bg[k]
            c_new = sig(a_f) * c0[k] + sig(a_i) * math.tanh(a_g)
            expect_c.append(c_new)
            expect_h.append(sig(a_o) * math.tanh(c_new))

        state = lstm_step(p, x, LstmState(h=h0, c=c0))
        assert state.c == pytest.approx(expect_c, rel=1e-14)
        assert state.h == pytest.approx(expect_h, rel=1e-14)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            h = int(rng.integers(1, 9))
            params = init_model(h, seed=trial)
            state = LstmState(h=rng.uniform(-0.99, 0.99, h), c=rng.normal(0, 10, h))
            out = lstm_step(params, float(rng.normal(0, 5)), state)
            assert np.all(np.abs(out.h) < 1.0)

    def test_non_finite_state_guard(self):
        h = 3
        params = init_model(h, seed=0)
        bad = LstmState(h=np.zeros(h), c=np.array([np.inf, 0.0, 0.0]))
        with pytest.raises(NonFiniteStateError):
            lstm_step(params, 1.0, bad)


class TestForward:
    def test_zero_params_predict_zero(self):
        pred, _ = forward_batch(zero_params(5), np.array([[1.0, -2.0, 3.0]]))
        assert pred[0] == 0.0

    def test_matches_chained_steps_plus_dot(self):
        params = init_model(1, seed=21)
        window = np.array([0.5, -1.0, 2.0])
        state = LstmState(h=np.zeros(1), c=np.zeros(1))
        for x_t in window:
            state = lstm_step(params, float(x_t), state)
        expected = float(params.wy @ state.h + params.by[0])
        pred, _ = forward_batch(params, window[np.newaxis, :])
        assert pred[0] == pytest.approx(expected, rel=1e-14)

    def test_state_resets_between_samples(self):
        params = init_model(6, seed=2)
        window = np.linspace(-1, 1, 10)
        lone = forward(params, window)
        batch = np.vstack([np.full(10, 99.0), window])
        preds, _ = forward_batch(params, batch)
        # BLAS kernels differ across batch shapes; equality is up to rounding
        assert preds[1] == pytest.approx(lone, rel=1e-12)

    def test_batch_agrees_with_single(self):
        params = init_model(7, seed=3)
        rng = np.random.default_rng(0)
        windows = rng.normal(0, 1, size=(5, 12))
        preds, _ = forward_batch(params, windows)
        for i in range(5):
            single = forward(params, windows[i])
            assert single == pytest.approx(preds[i], rel=1e-14)


class TestBatchLoop:
    @pytest.mark.parametrize("hidden", [1, 3, 64])
    @pytest.mark.parametrize("batch", [1, 7, 32, 1361])
    def test_predict_equals_cached_forward_bit_for_bit(self, batch, hidden):
        params = init_model(hidden, seed=hidden)
        x = np.random.default_rng(batch).normal(0, 2, size=(batch, 8))
        preds, cache = forward_batch(params, x)
        assert np.array_equal(predict_batch(params, x), preds)
        assert cache.gates.shape == (8, 4 * hidden, batch)
        assert cache.h.shape == cache.c.shape == cache.tc.shape == (8, hidden, batch)

    @staticmethod
    def saturating_params() -> LstmParams:
        # |W| = 1 everywhere, so inputs of 800 push half of the gate
        # pre-activations below -709, where exp(-a) overflows
        params = init_model(3, seed=0)
        params.W[:] = np.resize([1.0, -1.0], params.W.size)
        return params

    @pytest.mark.parametrize("value", [800.0, -800.0, np.inf, -np.inf])
    def test_saturating_inputs_give_finite_predictions_without_warnings(self, value):
        params = self.saturating_params()
        x = np.full((4, 5), value)
        x[1, 2] = 0.5
        ds = manual_dataset(x, np.zeros(4), window=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds = predict_batch(params, x)
            _, series_preds = predict_series(params, ds, "train", denormalized=True)
        assert np.isfinite(preds).all()
        assert np.array_equal(series_preds, preds)

    def test_nan_input_is_a_non_finite_state(self):
        x = np.zeros((3, 5))
        x[1, 3] = np.nan
        with pytest.raises(NonFiniteStateError):
            predict_batch(init_model(3, seed=0), x)
        with pytest.raises(NonFiniteStateError):
            forward_batch(init_model(3, seed=0), x)


class TestMetrics:
    def test_mse_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_hand_value(self):
        assert mse([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5, abs=1e-15)

    def test_mae_hand_value(self):
        assert mae([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5, abs=1e-15)

    def test_loop_oracle(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=100)
        yhat = rng.normal(size=100)
        mse_loop = sum((a - b) ** 2 for a, b in zip(y, yhat)) / 100
        mae_loop = sum(abs(a - b) for a, b in zip(y, yhat)) / 100
        assert mse(y, yhat) == pytest.approx(mse_loop, rel=1e-12)
        assert mae(y, yhat) == pytest.approx(mae_loop, rel=1e-12)

    def test_mae_at_most_rms(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = rng.normal(size=30)
            yhat = rng.normal(size=30)
            assert mae(y, yhat) <= math.sqrt(mse(y, yhat)) + 1e-15

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInputError):
            mse([], [])
        with pytest.raises(LengthMismatchError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInputError):
            mae([], [])


def finite_difference_check(params, x, y, step=1e-5, floor=1e-8):
    """Max relative disagreement between BPTT and central differences.

    Perturbs ``params.flat`` in place, one entry at a time, and restores it.
    """
    _, cache = forward_batch(params, x)
    analytic = backward(params, cache, y).flat
    flat = params.flat

    worst = 0.0
    for k in range(flat.size):
        original = flat[k]
        flat[k] = original + step
        loss_up = mse(y, predict_batch(params, x))
        flat[k] = original - step
        loss_down = mse(y, predict_batch(params, x))
        flat[k] = original
        fd = (loss_up - loss_down) / (2 * step)
        rel = abs(fd - analytic[k]) / max(abs(fd), abs(analytic[k]), floor)
        worst = max(worst, rel)
    return worst


class TestBackward:
    def test_zero_gradient_at_exact_fit(self):
        params = init_model(4, seed=6)
        x = np.random.default_rng(1).normal(size=(3, 5))
        preds, cache = forward_batch(params, x)
        grads = backward(params, cache, preds)  # targets == predictions
        assert np.all(grads.flat == 0.0)

    def test_head_gradient_closed_form(self):
        params = init_model(5, seed=7)
        window = np.array([0.2, -0.4, 0.9, 1.5])
        target = np.array([2.0])
        pred, cache = forward_batch(params, window[np.newaxis, :])
        grads = backward(params, cache, target)
        residual = 2.0 * (pred[0] - target[0])
        assert grads.wy == pytest.approx(residual * cache.h[-1, :, 0], rel=1e-12)
        assert grads.by[0] == pytest.approx(residual, rel=1e-12)

    def test_finite_differences_random_instance(self):
        rng = np.random.default_rng(17)
        params = init_model(4, seed=17)
        x = rng.normal(0, 1.5, size=(2, 8))
        y = rng.normal(0, 1.0, size=2)
        assert finite_difference_check(params, x, y) < 1e-5

    def test_cache_mismatch(self):
        params = init_model(3, seed=8)
        _, cache = forward_batch(params, np.zeros((2, 4)))
        with pytest.raises(CacheMismatchError):
            backward(params, cache, np.zeros(3))


class TestRmsProp:
    def test_zero_gradient_keeps_params(self):
        params = init_model(3, seed=9)
        grads = zero_params(3)
        state = RmsPropState(acc=LstmParams(np.full_like(params.flat, 0.5), 3))
        new_params, new_state = rmsprop_update(params, grads, state, lr=0.1)
        assert params_equal(new_params, params)
        assert np.all(new_state.acc.flat == 0.45)  # rho * a

    def test_hand_evaluation(self):
        params = zero_params(1)
        grads = LstmParams(np.ones_like(params.flat), 1)
        state = RmsPropState.zeros_like(params)
        new_params, new_state = rmsprop_update(params, grads, state, lr=0.0002)
        assert new_state.acc.W[0] == pytest.approx(0.1, rel=1e-12)
        expected_step = -0.0002 / (math.sqrt(0.1) + 1e-7)
        assert new_params.W[0] == pytest.approx(expected_step, rel=1e-12)
        assert new_params.W[0] == pytest.approx(-6.3245e-4, abs=1e-8)

    def test_two_updates_match_scalar_recurrence(self):
        params = zero_params(1)
        state = RmsPropState.zeros_like(params)
        g_values = (0.8, -1.3)
        theta, a = 0.0, 0.0
        for g in g_values:
            grads = LstmParams(np.full_like(params.flat, g), 1)
            params, state = rmsprop_update(params, grads, state, lr=0.01)
            a = 0.9 * a + 0.1 * g * g
            theta = theta - 0.01 * g / (math.sqrt(a) + 1e-7)
        assert params.U[3, 0] == pytest.approx(theta, rel=1e-12)  # candidate gate
        assert state.acc.by[0] == pytest.approx(a, rel=1e-12)


class TestClip:
    def test_small_gradients_untouched(self):
        grads = LstmParams(zero_params(2).flat + 0.01, 2)
        clipped = clip_gradients(grads, 5.0)
        assert params_equal(clipped, grads)
        assert clipped is grads

    def test_large_gradients_scaled_to_cap(self):
        from ddoscast.lstm import gradient_norm

        grads = LstmParams(np.full_like(zero_params(2).flat, 10.0), 2)
        clipped = clip_gradients(grads, 5.0)
        assert gradient_norm(clipped) == pytest.approx(5.0, rel=1e-12)


class TestTrain:
    def sine_dataset(self, n=260, window=8):
        rng = np.random.default_rng(3)
        t = np.arange(n)
        series = 10 + 4 * np.sin(2 * np.pi * t / 25) + rng.normal(0, 0.3, n)
        return build_windowed(series, window)

    def test_history_length_equals_epochs(self):
        ds = self.sine_dataset()
        config = TrainConfig(window_size=8, hidden_size=4, epochs=5, seed=1)
        _, history = train(init_model(4, seed=1), ds, config)
        assert len(history) == 5
        assert all(v >= 0 for v in history.train_mse)

    def test_deterministic_per_seed(self):
        ds = self.sine_dataset()
        config = TrainConfig(window_size=8, hidden_size=4, epochs=3, seed=9)
        p1, h1 = train(init_model(4, seed=9), ds, config)
        p2, h2 = train(init_model(4, seed=9), ds, config)
        assert params_equal(p1, p2)
        assert h1.train_mse == h2.train_mse
        assert h1.val_mse == h2.val_mse

    def test_learns_constant_target_reachable_by_head(self):
        # identical windows make h_W constant, so y=0.3 is exactly realizable
        x = np.tile(np.linspace(-0.5, 0.5, 6), (64, 1))
        y = np.full(64, 0.3)
        ds = manual_dataset(x, y, window=6)
        config = TrainConfig(
            window_size=6, hidden_size=4, epochs=250, batch_size=8, seed=2
        )
        _, history = train(init_model(4, seed=2), ds, config)
        assert history.train_mse[-1] < 1e-3

    def test_train_set_empty(self):
        ds = build_windowed(np.arange(12.0), window_size=6)  # train split too short
        assert len(ds.train) == 0
        with pytest.raises(TrainSetEmptyError):
            train(init_model(2, seed=0), ds, TrainConfig(window_size=6, hidden_size=2))

    def test_diverged_non_finite_aborts_with_partial_history(self):
        ds = self.sine_dataset()
        params = init_model(4, seed=1)
        params.by[0] = np.inf  # gates saturate inf away; the head cannot
        with pytest.raises(DivergedNonFiniteError) as err:
            train(params, ds, TrainConfig(window_size=8, hidden_size=4, epochs=3))
        assert err.value.history is not None
        assert len(err.value.history) < 3

    def test_noiseless_sine_improves_over_training(self):
        # per-epoch monotonicity is not promised (stochastic batches);
        # the last ten epochs must still beat the first ten on average
        t = np.arange(300)
        series = 20 + 6 * np.sin(2 * np.pi * t / 20)
        ds = build_windowed(series, 8)
        config = TrainConfig(window_size=8, hidden_size=8, epochs=30, seed=4)
        _, history = train(init_model(8, seed=4), ds, config)
        assert np.mean(history.train_mse[-10:]) < np.mean(history.train_mse[:10])

    def test_validation_nan_when_split_unwindowable(self):
        x = np.tile(np.linspace(0, 1, 6), (20, 1))
        y = np.zeros(20)
        ds = manual_dataset(x, y, window=6)
        config = TrainConfig(window_size=6, hidden_size=2, epochs=2, seed=0)
        _, history = train(init_model(2, seed=0), ds, config)
        assert all(math.isnan(v) for v in history.val_mse)


class TestPredictSeries:
    def test_zero_model_predicts_zero(self):
        ds = build_windowed(np.arange(50.0), 4)
        targets, preds = predict_series(zero_params(3), ds, "test")
        assert np.all(preds == 0.0)
        assert targets.size == len(ds.test)

    def test_matches_per_sample_forward(self):
        ds = build_windowed(np.sin(np.arange(60.0)) + 2, 5)
        params = init_model(4, seed=12)
        targets, preds = predict_series(params, ds, "validation")
        for i in range(len(ds.validation)):
            single = forward(params, ds.validation.x[i])
            assert preds[i] == pytest.approx(single, rel=1e-14)

    def test_denormalized_scales_both(self):
        ds = build_windowed(np.cos(np.arange(80.0)) * 3 + 9, 5)
        params = init_model(4, seed=13)
        t_norm, p_norm = predict_series(params, ds, "test")
        t_raw, p_raw = predict_series(params, ds, "test", denormalized=True)
        sigma = ds.normalization.sigma
        assert np.allclose(t_raw, t_norm * sigma, rtol=1e-15)
        assert np.allclose(p_raw, p_norm * sigma, rtol=1e-15)

    def test_empty_split(self):
        x = np.zeros((3, 4))
        ds = manual_dataset(x, np.zeros(3), window=4)
        with pytest.raises(EmptySplitError):
            predict_series(init_model(2, seed=0), ds, "test")


class TestCheckpoint:
    def trained_bits(self):
        params = init_model(6, seed=4)
        rng = np.random.default_rng(20)
        acc = LstmParams(np.abs(rng.normal(size=params.flat.shape)), 6)
        state = RmsPropState(acc=acc)
        config = TrainConfig(window_size=9, hidden_size=6, epochs=3, seed=4)
        meta = {"subclass": "TotalTraffic", "metric": "count"}
        return params, state, config, meta

    def test_bit_exact_round_trip(self):
        params, state, config, meta = self.trained_bits()
        blob = save_checkpoint(params, state, config, meta)
        p2, s2, c2, m2 = load_checkpoint(blob)
        assert params_equal(p2, params)
        assert params_equal(s2.acc, state.acc)
        assert c2 == config
        assert m2 == meta
        # and saving again produces identical bytes
        assert save_checkpoint(p2, s2, c2, m2) == blob

    def test_behavioral_round_trip(self):
        params, state, config, meta = self.trained_bits()
        window = np.linspace(-1, 2, 9)
        before = predict_batch(params, window[np.newaxis, :])
        p2, _, _, _ = load_checkpoint(save_checkpoint(params, state, config, meta))
        after = predict_batch(p2, window[np.newaxis, :])
        assert np.array_equal(after, before)

    def test_truncated_bytes_corrupt(self):
        params, state, config, meta = self.trained_bits()
        blob = save_checkpoint(params, state, config, meta)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(blob[: len(blob) // 2])

    def test_garbage_bytes_corrupt(self):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(b"\x00\x01\x02 not json")

    def test_version_mismatch(self):
        params, state, config, meta = self.trained_bits()
        doc = json.loads(save_checkpoint(params, state, config, meta))
        doc["format_version"] = 99
        with pytest.raises(VersionMismatchError):
            load_checkpoint(json.dumps(doc).encode())

    def test_shape_drift_corrupt(self):
        params, state, config, meta = self.trained_bits()
        doc = json.loads(save_checkpoint(params, state, config, meta))
        doc["config"]["hidden_size"] = 7
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(json.dumps(doc).encode())

    def test_block_shape_drift_corrupt(self):
        params, state, config, meta = self.trained_bits()
        doc = json.loads(save_checkpoint(params, state, config, meta))
        doc["params"]["wy"] = doc["params"]["by"]
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(json.dumps(doc).encode())


# Written by ddoscast at commit c0cc8aa, when LstmParams held 14 separate
# arrays: init_model(3, seed=11), three RMSprop steps (lr 0.01) on seeded
# random batches, so both the params and the accumulators are non-trivial.
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_h3.json"


class TestCheckpointV1Compatibility:
    def test_loads_and_resaves_identical_bytes(self):
        blob = V1_CHECKPOINT.read_bytes()
        params, state, config, meta = load_checkpoint(blob)
        assert params.hidden_size == config.hidden_size == 3
        assert np.any(state.acc.flat != 0.0)
        assert save_checkpoint(params, state, config, meta) == blob

    def test_predicts_the_recorded_value(self):
        params, _, _, _ = load_checkpoint(V1_CHECKPOINT.read_bytes())
        window = np.array([[0.5, -1.0, 2.0, 0.25, -0.75]])
        # value computed with the 14-array implementation that wrote the file
        assert predict_batch(params, window)[0] == float.fromhex("0x1.1f71d1ba17a4bp-3")


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_size", 0),
            ("hidden_size", 0),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("learning_rate", math.nan),
            ("epochs", 0),
            ("batch_size", 0),
            ("rho", -0.1),
            ("rho", 1.0),
            ("clip_norm", 0.0),
            ("clip_norm", math.nan),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        kwargs = {"window_size": 24, "hidden_size": 64, field: value}
        # also a ValueError, so a checkpoint holding such a config reads as corrupt
        with pytest.raises(ValueError, match=field) as err:
            TrainConfig(**kwargs)
        assert isinstance(err.value, InvalidConfigError)

    def test_boundary_values_accepted(self):
        TrainConfig(window_size=1, hidden_size=1, epochs=1, batch_size=1, rho=0.0)
