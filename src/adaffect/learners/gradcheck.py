"""Finite-difference verification of the analytic gradients.

Central differences with h = 1e-5 on a random subsample of parameter
coordinates; the returned figure is the maximum relative error
|analytic - numeric| / max(|analytic| + |numeric|, 1e-8).
"""

from __future__ import annotations

import numpy as np

from .cnn import CnnModel, cnn_gradients, cnn_loss
from .mtl import TaskGraph, _smooth_grad, _smooth_value


def _relative_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic) + abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def grad_check_cnn(model: CnnModel, X, y_targets, n_coords: int = 200,
                   h: float = 1e-5, seed: int = 0) -> float:
    """Max relative gradient error over <= n_coords random parameters."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(y_targets)
    analytic = cnn_gradients(model, X, targets)
    rng = np.random.default_rng(seed)

    coords = []
    for key, arr in model.params.items():
        for flat_idx in range(arr.size):
            coords.append((key, flat_idx))
    if len(coords) > n_coords:
        chosen = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in chosen]

    worst = 0.0
    for key, flat_idx in coords:
        arr = model.params[key]
        flat = arr.reshape(-1)
        orig = flat[flat_idx]
        flat[flat_idx] = orig + h
        up = cnn_loss(model, X, targets)
        flat[flat_idx] = orig - h
        down = cnn_loss(model, X, targets)
        flat[flat_idx] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, _relative_error(analytic[key].reshape(-1)[flat_idx], numeric))
    return worst


def grad_check_mtl_smooth(W, bias, Xs, Ys, alpha, gamma, graph: TaskGraph,
                          n_coords: int = 200, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error of the smooth-part gradient (loss + graph + ridge)."""
    W = np.asarray(W, dtype=float).copy()
    bias = np.asarray(bias, dtype=float).copy()
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    Ys = [np.asarray(Y, dtype=float).reshape(-1) for Y in Ys]
    R = graph.incidence
    gW, gb, _ = _smooth_grad(W, bias, Xs, Ys, alpha, gamma, R, R @ R.T, fit_intercept=True)
    analytic = np.concatenate([gW.reshape(-1), gb])
    rng = np.random.default_rng(seed)
    n_total = analytic.size
    idx = np.arange(n_total)
    if n_total > n_coords:
        idx = rng.choice(n_total, size=n_coords, replace=False)

    def value():
        return _smooth_value(W, bias, Xs, Ys, alpha, gamma, R)

    flatW = W.reshape(-1)
    worst = 0.0
    for coord in idx:
        if coord < flatW.size:
            target, local = flatW, coord
        else:
            target, local = bias, coord - flatW.size
        orig = target[local]
        target[local] = orig + h
        up = value()
        target[local] = orig - h
        down = value()
        target[local] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, _relative_error(analytic[coord], numeric))
    return worst
