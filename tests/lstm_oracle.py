"""Reference implementations that ``ddoscast.lstm`` is tested against.

``lstm_step`` is the direct gate equations for one sample and one
timestep, each gate its own slice of W, U and b. ``forward`` chains it over
a window from a zero state and reads out the last hidden state, so tests
can compare ``ddoscast.lstm``'s feature-major batched loop with it up to
rounding. ``mae`` is the reference metric the tests compare ``mse`` with.
``train_sequential`` is the training loop that evaluates each epoch before
the next one starts, on the caller's thread; ``lstm.train`` must give the
same history, parameters and errors bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ddoscast import lstm
from ddoscast.errors import (
    DivergedNonFiniteError,
    EmptyInputError,
    LengthMismatchError,
    NonFiniteStateError,
)
from ddoscast.lstm import LstmParams, RmsPropState, TrainHistory


@dataclass(frozen=True)
class LstmState:
    h: np.ndarray
    c: np.ndarray


def sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step(params: LstmParams, x_t: float, state: LstmState) -> LstmState:
    """One recurrence step for a single sample; direct gate equations."""
    h, c = state.h, state.c
    n = params.hidden_size

    def pre(k: int) -> np.ndarray:  # pre-activation of gate k in i/f/o/g order
        rows = slice(k * n, (k + 1) * n)
        return params.W[rows] * x_t + params.U[rows] @ h + params.b[rows]

    i = sigmoid(pre(0))
    f = sigmoid(pre(1))
    o = sigmoid(pre(2))
    g = np.tanh(pre(3))
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    if not (np.isfinite(h_new).all() and np.isfinite(c_new).all()):
        raise NonFiniteStateError("LSTM state overflowed")
    return LstmState(h=h_new, c=c_new)


def forward(params: LstmParams, window) -> float:
    """Prediction for one window; the state starts at zero."""
    n = params.hidden_size
    state = LstmState(h=np.zeros(n), c=np.zeros(n))
    for x_t in np.asarray(window, dtype=np.float64):
        state = lstm_step(params, float(x_t), state)
    return float(params.wy @ state.h + params.by[0])


def mae(targets, predictions) -> float:
    """Mean absolute error (1/N) sum |y - yhat|."""
    y = np.asarray(targets, dtype=np.float64)
    yhat = np.asarray(predictions, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatchError(f"{y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise EmptyInputError("mae over zero points")
    return float(np.abs(y - yhat).sum() / y.size)


# The steps are looked up on the module at each call, so a test that
# monkeypatches one of them changes this loop and lstm.train alike.
@np.errstate(over="ignore", invalid="ignore")
def train_sequential(params: LstmParams, dataset, config):
    train_ws = dataset.train
    rng = np.random.default_rng(config.seed)
    opt_state = RmsPropState.zeros_like(params)
    history = TrainHistory(train_mse=[], val_mse=[])

    n = len(train_ws)
    for _epoch in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            try:
                preds, cache = lstm.forward_batch(params, train_ws.x[idx])
            except NonFiniteStateError as exc:
                raise DivergedNonFiniteError(str(exc), history=history) from exc
            grads = lstm.backward(params, cache, train_ws.y[idx])
            if not np.isfinite(grads.flat).all():
                raise DivergedNonFiniteError("non-finite gradients", history=history)
            grads = lstm.clip_gradients(grads, config.clip_norm)
            params, opt_state = lstm.rmsprop_update(
                params, grads, opt_state, config.learning_rate, config.rho, config.epsilon
            )

        try:
            epoch_train = lstm.mse(train_ws.y, lstm.predict_batch(params, train_ws.x))
            epoch_val = lstm.mse(
                dataset.validation.y, lstm.predict_batch(params, dataset.validation.x)
            )
        except NonFiniteStateError as exc:
            raise DivergedNonFiniteError(str(exc), history=history) from exc
        if not math.isfinite(epoch_train):
            raise DivergedNonFiniteError("training loss became non-finite", history=history)
        history.train_mse.append(epoch_train)
        history.val_mse.append(epoch_val)

    return params, history
