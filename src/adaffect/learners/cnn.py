"""Three-layer 1-D convolutional network trained from scratch in numpy.

Architecture: two valid-mode 1-D convolutions (64 filters of width 3 each,
rectifier activations), one 128-unit fully connected layer with dropout,
and a 2-way softmax readout. Training is minibatch SGD with momentum
(step 0.03 by default) and L2 weight decay on the weight matrices. It
stops early (Prechelt 1998; Goodfellow, Bengio & Courville 2016, §7.8)
once `patience` epochs in a row have not improved on the best validation
loss, and keeps the weights of that best epoch. The source paper's
abstract gives no CNN training settings, so these defaults are this
package's own.

Training sees the inputs divided by one scalar, the RMS of the training
split, so that one step size suits inputs of any units (raw EEG principal
components reach |x| ~ 800). Conv 1 is linear in its input, so the scale
is folded into W1 when training ends: the model predicts on raw inputs,
and the model file holds no extra field.

Each convolution multiplies a window matrix (one row per output
position, columns ordered (channel, tap)) by the reshaped kernel: the
unrolled convolution of Chellapilla, Puri & Simard (2006). Training
keeps the parameters in one flat float32 vector, weights first (W1..W4,
then b1..b4), with the gradient and the momentum velocity in two more
vectors of the same layout; the `params` dict holds views into it. The
window matrices, activations and gradient scratch are allocated once per
training run, so an SGD step allocates no array larger than
batch x fc_units.

Precision follows the parameters: every product runs in the dtype of
`params`, and the inputs are cast to it. Training draws the initial
weights in float64 and casts them once to float32; a model built with
float64 params (as the gradient checks build them) runs in float64
throughout. The softmax and the loss always run in float64 on logits cast
up from the parameters' dtype, as in mixed-precision training
(Micikevicius et al., 2018), so posterior rows sum to 1 to float64
rounding. A model file restores float32 params when every stored value is
exactly a float32, and float64 params otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core import check_real
from .shallow import DimensionMismatchError


class TooShortInputError(ValueError):
    """Input feature length below the minimum the architecture supports."""


#: Allowed values of CnnConfig's real-valued fields: (test, description).
_REAL_BOUNDS = {
    "learning_rate": (lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "weight_decay": (lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
    "dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "val_fraction": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


@dataclass(frozen=True)
class CnnConfig:
    n_filters: int = 64
    filter_width: int = 3
    fc_units: int = 128
    learning_rate: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 0.0005
    dropout: float = 0.5
    max_epochs: int = 100
    patience: int = 5
    batch_size: int = 32
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_filters", "filter_width", "fc_units", "max_epochs", "patience", "batch_size", "seed"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"CnnConfig {name} must be an integer >= {low}, got {value!r}")
        for name, (ok, bound) in _REAL_BOUNDS.items():
            check_real(f"CnnConfig {name}", getattr(self, name), ok, bound)


@dataclass
class CnnModel:
    config: CnnConfig
    input_dim: int
    params: dict = field(default_factory=dict)
    history: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields a model file stores (not `history`); arrays stay arrays."""
        return {"kind": "cnn", "hyperparams": asdict(self.config), "input_dim": self.input_dim,
                "params": self.params}

    @classmethod
    def from_dict(cls, doc: dict) -> "CnnModel":
        """Params come back as float32 when every value is exactly a float32
        (a trained model, which the file stores widened), else as float64."""
        params = {k: np.asarray(v, dtype=float) for k, v in doc["params"].items()}
        with np.errstate(over="ignore"):
            narrow = {k: v.astype(np.float32) for k, v in params.items()}
        if all(np.array_equal(narrow[k], v) for k, v in params.items()):
            params = narrow
        return cls(CnnConfig(**doc["hyperparams"]), int(doc["input_dim"]), params)


_WEIGHTS = ("W1", "W2", "W3", "W4")

#: Floor of cnn_train's input scale, low enough for any input worth scaling
#: and high enough that W1 / scale stays finite in float32.
_MIN_INPUT_SCALE = 2.0**-64


def _flat_views(flat: np.ndarray, shapes: dict) -> dict:
    """Views into `flat`, weights first, then biases, in the key order of `shapes`."""
    views, start = {}, 0
    for key in sorted(shapes, key=lambda key: key not in _WEIGHTS):
        size = math.prod(shapes[key])
        views[key] = flat[start : start + size].reshape(shapes[key])
        start += size
    return {key: views[key] for key in shapes}


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


class _Scratch:
    """Activation and gradient buffers for the network `params` and batches
    of up to `n` items of length k: one flat array per name, viewed at each
    batch's own size, so every step of a training run reuses the same memory.

    Conv activations are channels-last, (items, positions, channels). The
    masks, dz1, dz2 and a2 are (items, channels, positions), the row order
    of W3. g2 (items * positions, channels) and g1 (channels, items *
    positions) are contiguous copies of dz2 and dz1, which the kernel
    gradient products and the bias sums read. Every buffer has the dtype
    of `params`.
    """

    def __init__(self, params: dict, n: int, k: int):
        f, _, w = params["W1"].shape
        self.dims = (k, f, w, params["W3"].shape[1])
        dtype = params["W1"].dtype
        self.flat = {name: np.empty(math.prod(shape), dtype) for name, shape in self._shapes(n).items()}
        self.views: dict[int, dict] = {}

    def _shapes(self, B: int) -> dict:
        k, f, w, h = self.dims
        L1, L2 = k - w + 1, k - 2 * (w - 1)
        return {
            "cols1": (B, L1, w), "z1": (B, L1, f), "a1": (B, L1, f),
            "cols2": (B, L2, f * w), "z2": (B, L2, f), "a2": (B, f, L2),
            "z3": (B, h), "h": (B, h), "mask": (B, h),
            "dz2": (B, f, L2), "mask2": (B, f, L2), "g2": (B, L2, f), "taps": (B, L2, f * w),
            "gx": (B, L1, f), "mask1": (B, f, L1), "dz1": (B, f, L1), "g1": (f, B, L1),
        }

    def batch(self, B: int) -> dict:
        if B not in self.views:
            self.views[B] = {name: self.flat[name][: math.prod(shape)].reshape(shape)
                             for name, shape in self._shapes(B).items()}
        return self.views[B]


def _buffers_for(params: dict, X: np.ndarray) -> dict:
    """Buffers for one pass over all the items of X."""
    return _Scratch(params, len(X), X.shape[1]).batch(len(X))


def _windows(x: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """Window matrix of channels-last x (B, L, C) into out (B, L - w + 1, C * w):
    out[b, l, c * w + tau] = x[b, l + tau, c]. A valid convolution with
    W (C_out, C, w) is then out @ W.reshape(C_out, -1).T."""
    B, L, C = x.shape
    L_out = L - w + 1
    taps = out.reshape(B, L_out, C, w)
    for tau in range(w):  # w copies with C-long rows beat one copy with w-long rows
        taps[..., tau] = x[:, tau : tau + L_out]
    return out


def _forward(params, X, s: dict, dropout_mask=None) -> np.ndarray:
    """Softmax probabilities (float64) of the items X (B, k), which have the
    params' dtype. The activations that the backward pass reads stay in the
    batch buffers `s`.

    Each conv is one (L, C * w) @ (C * w, C_out) product per item; a single
    (B * L)-row product rounds differently.
    """
    f, _, w = params["W1"].shape
    z1 = np.matmul(_windows(X[:, :, None], w, s["cols1"]), params["W1"].reshape(f, -1).T, out=s["z1"])
    z1 += params["b1"]
    a1 = np.maximum(z1, 0.0, out=s["a1"])
    z2 = np.matmul(_windows(a1, w, s["cols2"]), params["W2"].reshape(f, -1).T, out=s["z2"])
    z2 += params["b2"]
    flat = np.maximum(z2.transpose(0, 2, 1), 0.0, out=s["a2"]).reshape(len(X), -1)
    z3 = np.matmul(flat, params["W3"], out=s["z3"])
    z3 += params["b3"]
    h = np.maximum(z3, 0.0, out=s["h"])
    if dropout_mask is not None:
        h *= dropout_mask
    logits = (h @ params["W4"] + params["b4"]).astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _loss_from_probs(probs, targets, params, weight_decay, squares=None):
    """Cross-entropy plus weight decay; each weight array is squared into
    its buffer in `squares` when given."""
    squares = squares or {}
    ce = -np.mean(np.log(np.clip(probs[np.arange(len(targets)), targets], 1e-300, None)))
    reg = 0.5 * weight_decay * sum(float(np.sum(np.square(params[k], out=squares.get(k)))) for k in _WEIGHTS)
    return float(ce + reg)


def cnn_loss(model: CnnModel, X, targets) -> float:
    """Regularized cross-entropy with dropout disabled."""
    X = np.asarray(X, dtype=model.params["W1"].dtype)
    probs = _forward(model.params, X, _buffers_for(model.params, X))
    return _loss_from_probs(probs, np.asarray(targets), model.params,
                            model.config.weight_decay)


def _backward(params, s: dict, probs, targets, grads: dict, dropout_mask=None) -> None:
    """Write the cross-entropy gradient of the batch that `_forward` just ran
    on into the arrays of `grads`; weight decay is left to the caller."""
    f, _, w = params["W1"].shape
    B, L2 = len(probs), s["z2"].shape[1]
    delta = probs.copy()
    delta[np.arange(B), targets] -= 1.0
    delta /= B
    delta = delta.astype(params["W1"].dtype, copy=False)

    np.matmul(s["h"].T, delta, out=grads["W4"])
    np.sum(delta, axis=0, out=grads["b4"])
    dh = delta @ params["W4"].T
    if dropout_mask is not None:
        dh *= dropout_mask
    dz3 = dh * (s["z3"] > 0)
    np.matmul(s["a2"].reshape(B, -1).T, dz3, out=grads["W3"])
    np.sum(dz3, axis=0, out=grads["b3"])
    dz2 = np.matmul(dz3, params["W3"].T, out=s["dz2"].reshape(B, -1)).reshape(B, f, L2)
    dz2 *= np.greater(s["z2"].transpose(0, 2, 1), 0.0, out=s["mask2"])
    g2 = s["g2"]
    g2[...] = dz2.transpose(0, 2, 1)
    np.sum(g2.reshape(-1, f), axis=0, out=grads["b2"])
    np.matmul(g2.reshape(-1, f).T, s["cols2"].reshape(-1, f * w), out=grads["W2"].reshape(f, -1))
    # Input gradient of conv 2: one product for all taps, added tap by tap.
    # It rounds like one product per tap unless conv 2 has a single output
    # position (k = 2w - 1), where numpy multiplies one-row matrices another way.
    taps = np.matmul(g2.reshape(-1, f), params["W2"].reshape(f, -1), out=s["taps"].reshape(B * L2, -1))
    taps = taps.reshape(B, L2, f, w)
    gx = s["gx"]
    gx.fill(0.0)
    for tau in range(w):
        gx[:, tau : tau + L2] += taps[..., tau]
    dz1 = np.multiply(gx.transpose(0, 2, 1), np.greater(s["z1"].transpose(0, 2, 1), 0.0, out=s["mask1"]),
                      out=s["dz1"])
    g1 = s["g1"]
    g1[...] = dz1.transpose(1, 0, 2)
    np.sum(g1.reshape(f, -1), axis=1, out=grads["b1"])
    np.matmul(g1.reshape(f, -1), s["cols1"].reshape(-1, w), out=grads["W1"].reshape(f, -1))


def cnn_gradients(model: CnnModel, X, targets) -> dict:
    """Analytic gradients of cnn_loss (dropout disabled), in the params' dtype."""
    params = model.params
    X = np.asarray(X, dtype=params["W1"].dtype)
    grads = _flat_views(np.empty(sum(p.size for p in params.values()), params["W1"].dtype),
                        {key: p.shape for key, p in params.items()})
    s = _buffers_for(params, X)
    _backward(params, s, _forward(params, X, s), np.asarray(targets), grads)
    for key in _WEIGHTS:
        grads[key] += model.config.weight_decay * params[key]
    return grads


def _targets_from_signs(y: np.ndarray) -> np.ndarray:
    """+1 (High) -> class index 0; -1 (Low) -> class index 1."""
    return np.where(np.asarray(y, dtype=float) > 0, 0, 1).astype(int)


def cnn_train(X, y, config: CnnConfig = CnnConfig(), val_data=None) -> CnnModel:
    """Train on items x k features with +1/-1 labels.

    A validation split (10% by default) is carved from the training data
    when none is provided. Training stops once `patience` epochs in a row
    have not improved on the best validation loss, and returns the weights
    of that best epoch (`history["best_epoch"]`, 1-based; 0 if no epoch had
    a finite loss). It runs in float32 on inputs divided by the training
    split's RMS, which is folded into W1 at the end (see the module
    docstring).
    """
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be items x dims aligned with y")
    k = X.shape[1]
    k_min = max(8, 2 * config.filter_width - 1)  # conv 2 keeps >= 1 position
    if k < k_min:
        raise TooShortInputError(f"need at least {k_min} input features, got {k}")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    rng = np.random.default_rng(config.seed)

    if val_data is not None:
        X_tr, y_tr = X, y
        X_val = np.asarray(val_data[0], dtype=np.float32)
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
    # Train on inputs divided by one scale, the training split's RMS; conv 1
    # is linear in x, so dividing W1 by it afterwards gives the same network
    # on raw inputs.
    scale = np.float32(max(math.sqrt(np.mean(np.square(X_tr, dtype=np.float64))), _MIN_INPUT_SCALE))
    X_tr, X_val = X_tr / scale, X_val / scale

    init = _init_params(k, config, rng)
    shapes = {key: p.shape for key, p in init.items()}
    theta = np.empty(sum(p.size for p in init.values()), np.float32)
    params = _flat_views(theta, shapes)
    for key, value in init.items():
        params[key][...] = value
    grad = np.empty_like(theta)
    grads = _flat_views(grad, shapes)
    velocity = np.zeros_like(theta)
    n_w = sum(params[key].size for key in _WEIGHTS)
    decay = np.empty(n_w, theta.dtype)
    # Between epochs the weight-decay scratch holds the squared weights of the validation loss.
    squares = _flat_views(decay, {key: shapes[key] for key in _WEIGHTS})
    model = CnnModel(config=config, input_dim=k, params=params)

    scratch = _Scratch(params, min(config.batch_size, len(y_tr)), k)
    val_s = _buffers_for(params, X_val)
    keep = 1.0 - config.dropout
    val_history: list[float] = []
    best_theta, best_loss, best_epoch = theta.copy(), math.inf, 0
    stopped_epoch = config.max_epochs
    n_tr = len(y_tr)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_tr)
        for start in range(0, n_tr, config.batch_size):
            batch = order[start : start + config.batch_size]
            s = scratch.batch(len(batch))
            if config.dropout > 0.0:
                mask = rng.random(dtype=np.float32, out=s["mask"])
                np.less(mask, keep, out=mask)
                mask /= keep
            else:
                mask = None
            probs = _forward(params, X_tr[batch], s, mask)
            _backward(params, s, probs, t_tr[batch], grads, mask)
            grad[:n_w] += np.multiply(theta[:n_w], config.weight_decay, out=decay)
            velocity *= config.momentum
            grad *= config.learning_rate
            velocity -= grad
            theta += velocity
        val_loss = _loss_from_probs(_forward(params, X_val, val_s), t_val, params,
                                    config.weight_decay, squares)
        val_history.append(val_loss)
        if val_loss < best_loss:
            best_theta[...] = theta
            best_loss, best_epoch = val_loss, epoch
        elif epoch - best_epoch >= config.patience:
            stopped_epoch = epoch
            break

    theta[...] = best_theta
    params["W1"] /= scale
    model.history = {"val_loss": val_history, "best_epoch": best_epoch, "stopped_epoch": stopped_epoch}
    return model


def cnn_predict_proba(model: CnnModel, X) -> np.ndarray:
    """float64 softmax posterior pairs (High, Low); dropout disabled, deterministic."""
    X = np.atleast_2d(np.asarray(X, dtype=model.params["W1"].dtype))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatchError(f"expected {model.input_dim} dims, got {X.shape[1]}")
    return _forward(model.params, X, _buffers_for(model.params, X))
