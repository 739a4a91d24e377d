"""Three-layer 1-D convolutional network trained from scratch in numpy.

Architecture: two valid-mode 1-D convolutions (64 filters of width 3 each,
rectifier activations), one 128-unit fully connected layer with dropout,
and a 2-way softmax readout. Training is minibatch SGD with momentum,
L2 weight decay on the weight matrices, and early stopping once the
validation loss has increased over five successive epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .shallow import DimensionMismatchError


class TooShortInputError(ValueError):
    """Input feature length below the minimum the architecture supports."""


@dataclass(frozen=True)
class CnnConfig:
    n_filters: int = 64
    filter_width: int = 3
    fc_units: int = 128
    learning_rate: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    dropout: float = 0.5
    max_epochs: int = 100
    patience: int = 5
    batch_size: int = 32
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class CnnModel:
    config: CnnConfig
    input_dim: int
    params: dict = field(default_factory=dict)
    history: dict = field(default_factory=dict)

    def n_params(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params.values())


def expected_param_count(k: int, config: CnnConfig = CnnConfig()) -> int:
    """Closed-form parameter count for input length k."""
    f, w, h = config.n_filters, config.filter_width, config.fc_units
    k2 = k - 2 * (w - 1)
    return (f * w + f) + (f * f * w + f) + (f * k2 * h + h) + (h * 2 + 2)


def _init_params(k: int, config: CnnConfig, rng) -> dict:
    f, w, h = config.n_filters, config.filter_width, config.fc_units
    k2 = k - 2 * (w - 1)

    def he(shape, fan_in):
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    return {
        "W1": he((f, 1, w), w),
        "b1": np.zeros(f),
        "W2": he((f, f, w), f * w),
        "b2": np.zeros(f),
        "W3": he((f * k2, h), f * k2),
        "b3": np.zeros(h),
        "W4": he((h, 2), h),
        "b4": np.zeros(2),
    }


def _window_matrix(x: np.ndarray, w: int) -> np.ndarray:
    """x: (B, C, L) -> contiguous (B, L - w + 1, C * w) sliding windows."""
    L_out = x.shape[2] - w + 1
    view = np.lib.stride_tricks.sliding_window_view(x, w, axis=2)[:, :, :L_out]
    return np.ascontiguousarray(view.transpose(0, 2, 1, 3)).reshape(x.shape[0], L_out, -1)


def _conv1d_valid(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x: (B, C_in, L); W: (C_out, C_in, w) -> (B, C_out, L - w + 1)."""
    flat = _window_matrix(x, W.shape[2])
    out = flat @ W.reshape(W.shape[0], -1).T
    return out.transpose(0, 2, 1)


def _conv1d_grad_w(x: np.ndarray, grad_out: np.ndarray, shape) -> np.ndarray:
    """Gradient of a valid conv w.r.t. its kernel; shape = (C_out, C_in, w)."""
    flat = _window_matrix(x, shape[2])  # (B, L_out, C_in * w)
    g = grad_out.transpose(0, 2, 1)     # (B, L_out, C_out)
    grad = np.tensordot(g, flat, axes=([0, 1], [0, 1]))  # (C_out, C_in * w)
    return grad.reshape(shape)


def _conv1d_grad_x(grad_out: np.ndarray, W: np.ndarray, L_in: int) -> np.ndarray:
    """Gradient of a valid conv w.r.t. its input (full correlation)."""
    B, _, L_out = grad_out.shape
    C_in, w = W.shape[1], W.shape[2]
    g = np.ascontiguousarray(grad_out.transpose(0, 2, 1))  # (B, L_out, C_out)
    gx = np.zeros((B, C_in, L_in))
    for tau in range(w):
        gx[:, :, tau : tau + L_out] += (g @ W[:, :, tau]).transpose(0, 2, 1)
    return gx


def _forward(params, X, dropout_mask=None):
    """X: (B, k). Returns (probabilities, cache)."""
    x = X[:, None, :]
    z1 = _conv1d_valid(x, params["W1"]) + params["b1"][None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = _conv1d_valid(a1, params["W2"]) + params["b2"][None, :, None]
    a2 = np.maximum(z2, 0.0)
    flat = a2.reshape(a2.shape[0], -1)
    z3 = flat @ params["W3"] + params["b3"]
    a3 = np.maximum(z3, 0.0)
    h = a3 * dropout_mask if dropout_mask is not None else a3
    logits = h @ params["W4"] + params["b4"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    cache = (x, z1, a1, z2, a2, flat, z3, a3, h)
    return probs, cache


def _loss_from_probs(probs, targets, params, weight_decay):
    ce = -np.mean(np.log(np.clip(probs[np.arange(len(targets)), targets], 1e-300, None)))
    reg = 0.5 * weight_decay * sum(
        float(np.sum(params[k] ** 2)) for k in ("W1", "W2", "W3", "W4")
    )
    return float(ce + reg)


def cnn_loss(model: CnnModel, X, targets) -> float:
    """Regularized cross-entropy with dropout disabled."""
    probs, _ = _forward(model.params, np.asarray(X, dtype=float))
    return _loss_from_probs(probs, np.asarray(targets), model.params,
                            model.config.weight_decay)


def _backward(params, cache, probs, targets, weight_decay, dropout_mask=None):
    x, z1, a1, z2, a2, flat, z3, a3, h = cache
    B = probs.shape[0]
    delta = probs.copy()
    delta[np.arange(B), targets] -= 1.0
    delta /= B

    grads = {}
    grads["W4"] = h.T @ delta + weight_decay * params["W4"]
    grads["b4"] = delta.sum(axis=0)
    dh = delta @ params["W4"].T
    da3 = dh * dropout_mask if dropout_mask is not None else dh
    dz3 = da3 * (z3 > 0)
    grads["W3"] = flat.T @ dz3 + weight_decay * params["W3"]
    grads["b3"] = dz3.sum(axis=0)
    dflat = dz3 @ params["W3"].T
    da2 = dflat.reshape(a2.shape)
    dz2 = da2 * (z2 > 0)
    grads["W2"] = _conv1d_grad_w(a1, dz2, params["W2"].shape) + weight_decay * params["W2"]
    grads["b2"] = dz2.sum(axis=(0, 2))
    da1 = _conv1d_grad_x(dz2, params["W2"], a1.shape[2])
    dz1 = da1 * (z1 > 0)
    grads["W1"] = _conv1d_grad_w(x, dz1, params["W1"].shape) + weight_decay * params["W1"]
    grads["b1"] = dz1.sum(axis=(0, 2))
    return grads


def cnn_gradients(model: CnnModel, X, targets) -> dict:
    """Analytic gradients of cnn_loss (dropout disabled)."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets)
    probs, cache = _forward(model.params, X)
    return _backward(model.params, cache, probs, targets, model.config.weight_decay)


def _targets_from_signs(y: np.ndarray) -> np.ndarray:
    """+1 (High) -> class index 0; -1 (Low) -> class index 1."""
    return np.where(np.asarray(y, dtype=float) > 0, 0, 1).astype(int)


def cnn_train(X, y, config: CnnConfig = CnnConfig(), val_data=None) -> CnnModel:
    """Train on items x k features with +1/-1 labels.

    A validation split (10% by default) is carved from the training data
    when none is provided; training stops early once the validation loss
    has increased over `patience` successive epochs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be items x dims aligned with y")
    k = X.shape[1]
    if k < 8:
        raise TooShortInputError(f"need at least 8 input features, got {k}")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    rng = np.random.default_rng(config.seed)

    if val_data is not None:
        X_tr, y_tr = X, y
        X_val = np.asarray(val_data[0], dtype=float)
        t_val = _targets_from_signs(np.asarray(val_data[1]))
    else:
        n = len(y)
        n_val = max(1, int(round(config.val_fraction * n)))
        perm = rng.permutation(n)
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
        if len(np.unique(y[tr_idx])) < 2:  # tiny sets: keep everything
            tr_idx = perm
        X_tr, y_tr = X[tr_idx], y[tr_idx]
        X_val, t_val = X[val_idx], _targets_from_signs(y[val_idx])
    t_tr = _targets_from_signs(y_tr)

    params = _init_params(k, config, rng)
    velocity = {key: np.zeros_like(val) for key, val in params.items()}
    model = CnnModel(config=config, input_dim=k, params=params)

    val_history: list[float] = []
    streak = 0
    stopped_epoch = config.max_epochs
    n_tr = len(y_tr)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_tr)
        for start in range(0, n_tr, config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb, tb = X_tr[batch], t_tr[batch]
            if config.dropout > 0.0:
                keep = 1.0 - config.dropout
                mask = (rng.random((len(batch), config.fc_units)) < keep) / keep
            else:
                mask = None
            probs, cache = _forward(params, Xb, mask)
            grads = _backward(params, cache, probs, tb, config.weight_decay, mask)
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
                params[key] += velocity[key]
        val_loss = _loss_from_probs(_forward(params, X_val)[0], t_val, params,
                                    config.weight_decay)
        if val_history and val_loss > val_history[-1]:
            streak += 1
        else:
            streak = 0
        val_history.append(val_loss)
        if streak >= config.patience:
            stopped_epoch = epoch
            break

    model.history = {"val_loss": val_history, "stopped_epoch": stopped_epoch}
    return model


def cnn_predict_proba(model: CnnModel, X) -> np.ndarray:
    """Softmax posterior pairs (High, Low); dropout disabled, deterministic."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatchError(f"expected {model.input_dim} dims, got {X.shape[1]}")
    probs, _ = _forward(model.params, X)
    return probs


def cnn_predict(model: CnnModel, X) -> np.ndarray:
    """Hard +1/-1 labels (class index 0 is High)."""
    probs = cnn_predict_proba(model, X)
    return np.where(probs[:, 0] > probs[:, 1], 1.0, -1.0)
