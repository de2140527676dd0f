"""Single-layer LSTM regressor with a linear head, trained by BPTT + RMSprop.

The cell is the standard gated recurrence:

    i = sigmoid(wi*x + Ui.h + bi)      input gate
    f = sigmoid(wf*x + Uf.h + bf)      forget gate
    o = sigmoid(wo*x + Uo.h + bo)      output gate
    g = tanh   (wg*x + Ug.h + bg)      candidate
    c' = f*c + i*g
    h' = o*tanh(c')

Input is univariate (one scalar per timestep), the prediction is a linear
readout of the final hidden state: y = wy.h_W + by, no output activation.
Everything is float64 so finite-difference checks are meaningful.

All parameters live in one float64 vector, ``LstmParams.flat``, in the
fused-gate layout of cuDNN and Keras with gates stacked i/f/o/g:

    W (4H) | U (4H, H) | b (4H) | wy (H) | by (1)

The named attributes are views into that vector, so forward and backward
work on the stacked gate blocks directly, and RMSprop, clipping and the
finiteness check are whole-vector operations. Forward and backward are
vectorized over the sample batch and run feature-major: a step's gate
pre-activations are one (4H, B) array and h and c are (H, B), so each gate
is a contiguous block of rows and every element-wise pass runs on
contiguous memory; the recurrent product U @ h is the step's one GEMM.
Checkpoint format v1 stores the vector as 14 named blocks (wi..wg,
ui..ug, bi..bg, wy, by).
"""

from __future__ import annotations

import base64
import binascii
import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
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
from .windowing import WindowedDataset

CHECKPOINT_VERSION = 1


def _param_size(hidden_size: int) -> int:
    return 4 * hidden_size * hidden_size + 9 * hidden_size + 1


@dataclass(frozen=True)
class LstmParams:
    """All trainable parameters as one float64 vector of 4H^2 + 9H + 1 values.

    The properties are views into ``flat``, so writing to them writes the
    vector: W (4H,) input weights, U (4H, H) recurrent weights and b (4H,)
    gate biases, each stacked i/f/o/g; wy (H,) readout weights and by (1,)
    readout bias.
    """

    flat: np.ndarray
    hidden_size: int

    def __post_init__(self):
        if self.flat.shape != (_param_size(self.hidden_size),):
            raise ValueError(
                f"flat parameters have shape {self.flat.shape}, "
                f"expected ({_param_size(self.hidden_size)},) for H={self.hidden_size}"
            )

    @staticmethod
    def zeros(hidden_size: int) -> "LstmParams":
        return LstmParams(np.zeros(_param_size(hidden_size)), hidden_size)

    @property
    def W(self) -> np.ndarray:
        return self.flat[: 4 * self.hidden_size]

    @property
    def U(self) -> np.ndarray:
        h = self.hidden_size
        return self.flat[4 * h : 4 * h * (h + 1)].reshape(4 * h, h)

    @property
    def b(self) -> np.ndarray:
        lo = 4 * self.hidden_size * (self.hidden_size + 1)
        return self.flat[lo : lo + 4 * self.hidden_size]

    @property
    def wy(self) -> np.ndarray:
        return self.flat[-self.hidden_size - 1 : -1]

    @property
    def by(self) -> np.ndarray:
        return self.flat[-1:]


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
        # written as "not ok" so that NaN fails every check
        for ok, name, rule in (
            (self.window_size >= 1, "window_size", ">= 1"),
            (self.hidden_size >= 1, "hidden_size", ">= 1"),
            (self.learning_rate > 0, "learning_rate", "positive"),
            (self.epochs >= 1, "epochs", ">= 1"),
            (self.batch_size >= 1, "batch_size", ">= 1"),
            (0.0 <= self.rho < 1.0, "rho", "in [0, 1)"),
            (self.clip_norm > 0, "clip_norm", "positive"),
        ):
            if not ok:
                raise InvalidConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class TrainHistory:
    train_mse: list[float]
    val_mse: list[float]

    def __len__(self) -> int:
        return len(self.train_mse)


@dataclass(frozen=True)
class RmsPropState:
    """Squared-gradient accumulators, laid out like the params."""

    acc: LstmParams

    @staticmethod
    def zeros_like(params: LstmParams) -> "RmsPropState":
        return RmsPropState(acc=LstmParams.zeros(params.hidden_size))


def init_model(hidden_size: int, seed: int) -> LstmParams:
    """Seeded initialization.

    Input and readout weights are Glorot-uniform (+-sqrt(6/(fan_in+fan_out))
    with fan 1 on the scalar side), recurrent matrices are orthogonalized
    seeded Gaussians (QR with sign-fixed diagonal), biases start at zero
    except the forget gate at one. Draws run i, f, o, g within each block.
    """
    if hidden_size < 1:
        raise InvalidConfigError("hidden_size must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_size
    params = LstmParams.zeros(h)

    lim_in = math.sqrt(6.0 / (1 + h))
    params.W[:] = rng.uniform(-lim_in, lim_in, size=4 * h)
    for u_gate in params.U.reshape(4, h, h):
        q, r = np.linalg.qr(rng.standard_normal((h, h)))
        u_gate[:] = q * np.sign(np.diag(r))[np.newaxis, :]
    lim_out = math.sqrt(6.0 / (h + 1))
    params.wy[:] = rng.uniform(-lim_out, lim_out, size=h)
    params.b[h : 2 * h] = 1.0
    return params


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid, a <- 1 / (1 + exp(-a)).

    Below a = -709.78, exp(-a) overflows to inf and the result is 0 (the
    exact value is under 1e-308); that overflow is expected and never warns.
    """
    np.negative(a, out=a)
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


@dataclass
class ForwardCache:
    """Per-timestep activations retained for the backward pass, time- and feature-major."""

    x: np.ndarray      # (W, B) inputs
    gates: np.ndarray  # (W, 4H, B) activated gates, i|f|o|g row blocks
    c: np.ndarray      # (W, H, B) cell state after the step
    h: np.ndarray      # (W, H, B) hidden state after the step
    tc: np.ndarray     # (W, H, B) tanh of the cell state
    pred: np.ndarray   # (B,) readout


def _run_batch(params: LstmParams, x: np.ndarray, want_cache: bool):
    """Shared forward over a (B, W) input batch, state zero-initialized.

    Each step writes its gates, c, tanh(c) and h in place: into the step's
    slice of the cache when ``want_cache``, otherwise into one set of
    buffers that every step reuses.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("batch input must have shape (B, W)")
    n_batch, n_steps = x.shape
    n = params.hidden_size
    w, u, b = params.W[:, np.newaxis], params.U, params.b[:, np.newaxis]

    xt = np.ascontiguousarray(x.T)
    slots = n_steps if want_cache else 1
    gates = np.empty((slots, 4 * n, n_batch))
    c = np.empty((slots, n, n_batch))
    h = np.empty((slots, n, n_batch))
    tc = np.empty((slots, n, n_batch))
    uh = np.empty((4 * n, n_batch))
    h_prev = c_prev = np.zeros((n, n_batch))

    for t in range(n_steps):
        k = t if want_cache else 0
        a = gates[k]
        np.multiply(w, xt[t], out=a)
        a += np.matmul(u, h_prev, out=uh)
        a += b
        _sigmoid(a[: 3 * n])
        np.tanh(a[3 * n :], out=a[3 * n :])
        i, f, o, g = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :]
        np.multiply(f, c_prev, out=c[k])
        c[k] += np.multiply(i, g, out=tc[k])  # tc[k] holds i*g until tanh(c) overwrites it
        np.tanh(c[k], out=tc[k])
        np.multiply(o, tc[k], out=h[k])
        h_prev, c_prev = h[k], c[k]

    pred = params.wy @ h_prev + params.by[0]
    if not (np.isfinite(pred).all() and np.isfinite(h_prev).all() and np.isfinite(c_prev).all()):
        raise NonFiniteStateError("LSTM state overflowed during forward")
    cache = ForwardCache(x=xt, gates=gates, c=c, h=h, tc=tc, pred=pred) if want_cache else None
    return pred, cache


def forward_batch(params: LstmParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    return _run_batch(params, x, want_cache=True)


def predict_batch(params: LstmParams, x: np.ndarray) -> np.ndarray:
    """Forward without retaining activations (evaluation path)."""
    pred, _ = _run_batch(params, x, want_cache=False)
    return pred


def mse(targets, predictions) -> float:
    """Mean squared error (1/N) sum (y - yhat)^2."""
    y = np.asarray(targets, dtype=np.float64)
    yhat = np.asarray(predictions, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatchError(f"{y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise EmptyInputError("mse over zero points")
    diff = y - yhat
    return float(np.dot(diff, diff) / y.size)


def backward(params: LstmParams, cache: ForwardCache, targets) -> LstmParams:
    """Exact gradients of batch-mean MSE w.r.t. every parameter.

    Unrolls the recurrence backwards over all timesteps. Each step writes its
    gate pre-activation gradients into one (4H, B) buffer and accumulates
    them straight into the W/U/b views of a zero gradient vector.
    """
    y = np.asarray(targets, dtype=np.float64)
    n_steps, n, n_batch = cache.h.shape
    if y.shape != (n_batch,):
        raise CacheMismatchError(f"targets {y.shape} vs cached batch of {n_batch}")

    u = params.U
    grads = LstmParams.zeros(n)
    dw, du, db = grads.W, grads.U, grads.b

    # d(loss)/d(pred) for loss = (1/B) sum (pred - y)^2
    dpred = 2.0 * (cache.pred - y) / n_batch
    grads.wy[:] = cache.h[-1] @ dpred
    grads.by[0] = dpred.sum()

    zeros = np.zeros((n, n_batch))
    ones = np.ones(n_batch)  # da @ ones sums da's rows, faster than da.sum(axis=1)
    da = np.empty((4 * n, n_batch))
    dh = params.wy[:, np.newaxis] * dpred[np.newaxis, :]
    dc = np.zeros((n, n_batch))
    for t in range(n_steps - 1, -1, -1):
        gates = cache.gates[t]
        i, f, o, g = gates[:n], gates[n : 2 * n], gates[2 * n : 3 * n], gates[3 * n :]
        tc = cache.tc[t]
        h_prev = cache.h[t - 1] if t > 0 else zeros
        c_prev = cache.c[t - 1] if t > 0 else zeros

        dc = dc + dh * o * (1.0 - tc * tc)
        da[:n] = dc * g * i * (1.0 - i)
        da[n : 2 * n] = dc * c_prev * f * (1.0 - f)
        da[2 * n : 3 * n] = dh * tc * o * (1.0 - o)
        da[3 * n :] = dc * i * (1.0 - g * g)
        dw += da @ cache.x[t]
        du += da @ h_prev.T
        db += da @ ones

        dh = u.T @ da
        dc = dc * f

    return grads


def gradient_norm(grads: LstmParams) -> float:
    """Global L2 norm, summed block by block in checkpoint v1 order.

    One dot over the whole vector rounds differently in the last bit, which
    is enough to flip a clipping decision and change a training run.
    """
    total = 0.0
    for block in _v1_blocks(grads).values():
        total += float(np.dot(block.ravel(), block.ravel()))
    return math.sqrt(total)


def clip_gradients(grads: LstmParams, max_norm: float) -> LstmParams:
    """Scale all gradients down so their global norm is at most max_norm.

    Returns ``grads`` itself when no scaling is needed.
    """
    norm = gradient_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    return LstmParams(grads.flat * (max_norm / norm), grads.hidden_size)


def rmsprop_update(
    params: LstmParams,
    grads: LstmParams,
    opt_state: RmsPropState,
    lr: float,
    rho: float = 0.9,
    epsilon: float = 1e-7,
) -> tuple[LstmParams, RmsPropState]:
    """a <- rho*a + (1-rho)*g^2 ; theta <- theta - lr*g/(sqrt(a)+eps)."""
    g = grads.flat
    acc = rho * opt_state.acc.flat + (1.0 - rho) * g * g
    theta = params.flat - lr * g / (np.sqrt(acc) + epsilon)
    h = params.hidden_size
    return LstmParams(theta, h), RmsPropState(acc=LstmParams(acc, h))


# Divergence is detected below and raised as DivergedNonFiniteError; numpy's
# overflow warnings on the way there would only repeat it on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train(
    params: LstmParams, dataset: WindowedDataset, config: TrainConfig
) -> tuple[LstmParams, TrainHistory]:
    """Seeded mini-batch training loop.

    Each epoch shuffles the train samples with the config seed's generator,
    steps RMSprop once per batch (gradients clipped to the global-norm cap),
    then records post-epoch train and validation MSE. Fully deterministic
    for a fixed (seed, dataset, config). Validation MSE is NaN when the
    validation split is too short to hold a single window.
    """
    train_ws = dataset.train
    if len(train_ws) == 0:
        raise TrainSetEmptyError("train split has no samples")

    rng = np.random.default_rng(config.seed)
    opt_state = RmsPropState.zeros_like(params)
    history = TrainHistory(train_mse=[], val_mse=[])

    n = len(train_ws)
    for _epoch in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            try:
                preds, cache = forward_batch(params, train_ws.x[idx])
            except NonFiniteStateError as exc:
                raise DivergedNonFiniteError(str(exc), history=history) from exc
            grads = backward(params, cache, train_ws.y[idx])
            if not np.isfinite(grads.flat).all():
                raise DivergedNonFiniteError("non-finite gradients", history=history)
            grads = clip_gradients(grads, config.clip_norm)
            params, opt_state = rmsprop_update(
                params, grads, opt_state, config.learning_rate, config.rho, config.epsilon
            )

        try:
            epoch_train = mse(train_ws.y, predict_batch(params, train_ws.x))
            if len(dataset.validation) > 0:
                epoch_val = mse(
                    dataset.validation.y, predict_batch(params, dataset.validation.x)
                )
            else:
                epoch_val = math.nan
        except NonFiniteStateError as exc:
            raise DivergedNonFiniteError(str(exc), history=history) from exc
        if not math.isfinite(epoch_train):
            raise DivergedNonFiniteError("training loss became non-finite", history=history)
        history.train_mse.append(epoch_train)
        history.val_mse.append(epoch_val)

    return params, history


def predict_series(
    params: LstmParams,
    dataset: WindowedDataset,
    split_name: str,
    denormalized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead predictions over a whole split, chronological order.

    Returns (targets, predictions) in normalized units, or multiplied back
    by sigma when denormalized=True.
    """
    ws = dataset.split(split_name)
    if len(ws) == 0:
        raise EmptySplitError(f"split {split_name!r} has no samples")
    preds = predict_batch(params, ws.x)
    targets = ws.y.copy()
    if denormalized:
        sigma = dataset.normalization.sigma
        return targets * sigma, preds * sigma
    return targets, preds


# --- checkpointing ----------------------------------------------------------


def _v1_layout(hidden_size: int) -> list[tuple[str, int, tuple[int, ...]]]:
    """The 14 blocks that checkpoint format v1 names: (name, offset, shape)."""
    h = hidden_size
    names = [kind + gate for kind in "wub" for gate in "ifog"] + ["wy", "by"]
    shapes = [(h,)] * 4 + [(h, h)] * 4 + [(h,)] * 5 + [(1,)]
    offsets = itertools.accumulate((math.prod(shape) for shape in shapes), initial=0)
    return list(zip(names, offsets, shapes))


def _v1_blocks(params: LstmParams) -> dict[str, np.ndarray]:
    """Views of the 14 checkpoint v1 blocks, in vector order."""
    return {
        name: params.flat[lo : lo + math.prod(shape)].reshape(shape)
        for name, lo, shape in _v1_layout(params.hidden_size)
    }


def _encode_array(arr: np.ndarray) -> dict:
    contiguous = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"].encode("ascii"), validate=True)
    arr = np.frombuffer(raw, dtype="<f8").copy()
    return arr.reshape([int(s) for s in obj["shape"]])


def _encode_params(params: LstmParams) -> dict:
    return {name: _encode_array(block) for name, block in _v1_blocks(params).items()}


def _decode_params(encoded: dict, hidden_size: int) -> LstmParams:
    """Join the 14 v1 blocks into one vector; each must have its H-derived shape."""
    parts = []
    for name, _offset, shape in _v1_layout(hidden_size):
        arr = _decode_array(encoded[name])
        if arr.shape != shape:
            raise CorruptCheckpointError(f"block {name} has shape {arr.shape}, expected {shape}")
        parts.append(arr.ravel())
    return LstmParams(np.concatenate(parts), hidden_size)


def save_checkpoint(
    params: LstmParams,
    opt_state: RmsPropState,
    config: TrainConfig,
    meta: dict | None = None,
) -> bytes:
    """Self-describing JSON checkpoint; round-trips bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "hidden_size": config.hidden_size,
        "window_size": config.window_size,
        "rho": config.rho,
        "epsilon": config.epsilon,
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "params": _encode_params(params),
        "opt_acc": _encode_params(opt_state.acc),
        "meta": meta or {},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def load_checkpoint(raw: bytes):
    """Inverse of save_checkpoint: (params, opt_state, config, meta).

    Unknown format versions raise VersionMismatchError; anything
    structurally wrong (truncation, bad base64, shape drift) raises
    CorruptCheckpointError.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"unreadable checkpoint: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptCheckpointError("checkpoint is not an object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"checkpoint format {version!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        config = TrainConfig(**payload["config"])
        params = _decode_params(payload["params"], config.hidden_size)
        acc = _decode_params(payload["opt_acc"], config.hidden_size)
        meta = payload.get("meta", {})
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise CorruptCheckpointError(f"malformed checkpoint field: {exc}") from exc
    return params, RmsPropState(acc=acc), config, meta
