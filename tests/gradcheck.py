"""Finite-difference verification of the analytic gradients.

Central differences with h = 1e-5 on a random subsample of parameter
coordinates; the returned figure is the maximum relative error
|analytic - numeric| / max(|analytic| + |numeric|, 1e-8).
"""

from __future__ import annotations

import numpy as np
from oracles import _ref_smooth_value

from adaffect.learners.cnn import CnnModel, cnn_gradients, cnn_loss
from adaffect.learners.mtl import TaskGraph, _smooth_part


def _relative_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic) + abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def _max_error(arrays, grads, value, n_coords: int, h: float, seed: int) -> float:
    """Max relative error of `grads` against central differences of
    `value()` over <= n_coords coordinates, drawn at random from the
    concatenated flat index of `arrays`. Each drawn coordinate is perturbed
    in place, so `value()` must read `arrays`, and then restored."""
    flats = [a.reshape(-1) for a in arrays]
    grads = [np.reshape(g, -1) for g in grads]
    offsets = np.cumsum([0] + [f.size for f in flats])
    total = int(offsets[-1])
    coords = np.arange(total)
    if total > n_coords:
        coords = np.random.default_rng(seed).choice(total, size=n_coords, replace=False)
    worst = 0.0
    for coord in coords:
        k = int(np.searchsorted(offsets, coord, side="right")) - 1
        flat, local = flats[k], coord - offsets[k]
        orig = flat[local]
        flat[local] = orig + h
        up = value()
        flat[local] = orig - h
        down = value()
        flat[local] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, _relative_error(grads[k][local], numeric))
    return worst


def grad_check_cnn(model: CnnModel, X, y_targets, n_coords: int = 200,
                   h: float = 1e-5, seed: int = 0) -> float:
    """Max relative gradient error over <= n_coords random parameters."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(y_targets)
    analytic = cnn_gradients(model, X, targets)
    return _max_error(list(model.params.values()), [analytic[key] for key in model.params],
                      lambda: cnn_loss(model, X, targets), n_coords, h, seed)


def grad_check_mtl_smooth(W, bias, Xs, Ys, alpha, gamma, graph: TaskGraph,
                          n_coords: int = 200, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error of the smooth-part gradient (loss + graph + ridge)
    that mtl_fit forms on v = [W[:, 0]; ...; W[:, T-1]; bias], against central
    differences of the per-task definition (`oracles._ref_smooth_value`)."""
    W = np.asarray(W, dtype=float)
    d, T = W.shape
    v = np.concatenate([W.T.reshape(-1), np.asarray(bias, dtype=float)])
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    Ys = [np.asarray(Y, dtype=float).reshape(-1) for Y in Ys]
    R = graph.incidence
    _, grad = _smooth_part(Xs, Ys, alpha, gamma, R)(v, grad=True)
    return _max_error([v], [grad],
                      lambda: _ref_smooth_value(v[:T * d].reshape(T, d).T, v[T * d:], Xs, Ys, alpha, gamma, R),
                      n_coords, h, seed)
