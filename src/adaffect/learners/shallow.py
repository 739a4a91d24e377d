"""Shallow binary classifiers: shrinkage-regularized LDA and linear/RBF
SVMs trained by SMO, all with Platt-calibrated posterior output.

Labels are +1 (High) / -1 (Low); posterior columns are (High, Low).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import stratified_folds

KKT_TOL = 1e-3
SHALLOW_KINDS = ("lda", "linear_svm", "rbf_svm")


class SingleClassError(ValueError):
    """Training data contains only one class."""


class DimensionMismatchError(ValueError):
    """Feature dimensionality differs from the training data."""


def _check_training_inputs(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be items x dims aligned with y")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1/-1")
    if len(np.unique(y)) < 2:
        raise SingleClassError("both classes must be present")
    return X, y


# --------------------------------------------------------------- kernels

def _kernel(kind: str, gamma: float):
    if kind == "linear_svm":
        return lambda A, B: A @ B.T
    def rbf(A, B):
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))
    return rbf


# ------------------------------------------------------------------ SMO

def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float = KKT_TOL, max_iter: int = 400000):
    """SMO with second-order working-pair selection on a precomputed kernel.

    Returns (alpha, b, iters, converged). Optimality: there is a b
    satisfying every KKT box condition within `tol`; `converged` is True
    only when the solver stopped on that test, and `iters` counts the pair
    updates made. State (t = y - G and the bound-set eligibility penalties)
    is maintained incrementally, in preallocated buffers, and the
    two-variable subproblem is solved on Python floats, to keep iterations
    cheap.
    """
    n = len(y)
    C = float(C)
    t = y.astype(float).copy()  # y - G, the per-item implied bias
    ys = t.tolist()
    a = [0.0] * n  # alpha
    diag = np.diag(K)
    K_rows = list(K)
    # Row i is the second-order curvature diag_i + diag_j - 2 K_ij of every pair (i, j).
    eta_rows = list(np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, 1e-12))
    eps = 1e-12
    inf = math.inf
    # Eligibility to bound b from below (i side) / above (j side), kept as
    # penalties added to t: 0 where eligible, -inf / +inf where not.
    y_pos = y > 0
    lb_pen = np.where(y_pos, 0.0, -inf)  # at alpha = 0: +1 items can still grow
    ub_pen = np.where(y_pos, inf, 0.0)
    t_lb = np.empty(n)
    delta = np.empty(n)  # t_i - t on the j side, -inf elsewhere
    cand = np.empty(n, dtype=bool)
    gain = np.empty(n)
    step = np.empty(n)

    def refresh(k):
        ak = a[k]
        if ys[k] > 0:
            lb_pen[k] = 0.0 if ak < C - eps else -inf
            ub_pen[k] = 0.0 if ak > eps else inf
        else:
            lb_pen[k] = 0.0 if ak > eps else -inf
            ub_pen[k] = 0.0 if ak < C - eps else inf

    iters = 0
    converged = False
    while iters < max_iter:
        np.add(t, lb_pen, out=t_lb)
        i = int(t_lb.argmax())
        t_i = t_lb.item(i)
        np.subtract(t_i, np.add(t, ub_pen, out=delta), out=delta)
        if delta.item(delta.argmax()) <= 2.0 * tol:  # max over j of t_i - t_j
            converged = True
            break
        # Second-order partner: maximize the guaranteed objective gain
        # delta^2 / eta among violating candidates.
        np.greater(delta, 1e-15, out=cand)
        eta_i = eta_rows[i]
        gain.fill(-inf)
        np.divide(np.multiply(delta, delta, out=step), eta_i, out=gain, where=cand)
        j = int(gain.argmax())
        if gain.item(j) == -inf:
            break
        # Two-variable subproblem on (i, j) with the rest fixed.
        a_i, a_j, y_i, y_j = a[i], a[j], ys[i], ys[j]
        if y_i != y_j:
            lo = max(0.0, a_j - a_i)
            hi = min(C, C + a_j - a_i)
        else:
            lo = max(0.0, a_i + a_j - C)
            hi = min(C, a_i + a_j)
        if hi - lo < 1e-14:
            break
        # E_i - E_j = t_j - t_i = -delta[j]
        aj_new = min(max(a_j - y_j * delta.item(j) / eta_i.item(j), lo), hi)
        delta_j = aj_new - a_j
        if abs(delta_j) < 1e-14:
            break
        ai_new = a_i - y_i * y_j * delta_j
        # t -= y_i (ai_new - a_i) K_i + y_j delta_j K_j, in that operation order.
        np.multiply(K_rows[i], y_i * (ai_new - a_i), out=step)
        step += np.multiply(K_rows[j], y_j * delta_j, out=gain)
        t -= step
        a[i], a[j] = ai_new, aj_new
        refresh(i)
        refresh(j)
        iters += 1
    b_low = np.max(np.where(lb_pen == 0.0, t, -inf))
    b_up = np.min(np.where(ub_pen == 0.0, t, inf))
    if not np.isfinite(b_low):
        b = b_up if np.isfinite(b_up) else 0.0
    elif not np.isfinite(b_up):
        b = b_low
    else:
        b = 0.5 * (b_low + b_up)
    return np.array(a), float(b), iters, converged


# --------------------------------------------------------- Platt scaling

def fit_platt(scores: np.ndarray, y: np.ndarray, max_iter: int = 100):
    """Fit P(High|f) = 1/(1 + exp(A f + B)) by Newton descent on the
    regularized log-loss with the usual prior-smoothed targets."""
    scores = np.asarray(scores, dtype=float)
    n_pos = float(np.sum(y > 0))
    n_neg = float(np.sum(y < 0))
    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    A, B = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    eps = 1e-12

    def apply(a, b):
        z = a * scores + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        return np.clip(p, eps, 1.0 - eps)

    def loss(a, b):
        p = apply(a, b)
        return float(-np.sum(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))

    prev = loss(A, B)
    for _ in range(max_iter):
        p = apply(A, B)
        d = p - t  # dloss/dz with z = A f + B (note p = sigma(-z))
        g_a = float(np.sum(-d * scores))
        g_b = float(np.sum(-d))
        w = p * (1.0 - p)
        h_aa = float(np.sum(w * scores * scores)) + 1e-12
        h_ab = float(np.sum(w * scores))
        h_bb = float(np.sum(w)) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if abs(det) < 1e-18:
            break
        step_a = (h_bb * g_a - h_ab * g_b) / det
        step_b = (h_aa * g_b - h_ab * g_a) / det
        stepsize = 1.0
        while stepsize > 1e-10:
            cand = loss(A - stepsize * step_a, B - stepsize * step_b)
            if cand <= prev + 1e-12:
                A -= stepsize * step_a
                B -= stepsize * step_b
                improved = prev - cand
                prev = cand
                break
            stepsize *= 0.5
        else:
            break
        if improved < 1e-10:
            break
    return float(A), float(B)


def platt_posterior(scores, A, B):
    z = A * np.asarray(scores, dtype=float) + B
    return np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))


# ---------------------------------------------------------------- models

@dataclass
class ShallowModel:
    kind: str
    hyperparams: dict
    n_dims: int
    # lda
    w: np.ndarray | None = None
    b: float = 0.0
    # svm
    support_vectors: np.ndarray | None = None
    dual_coef: np.ndarray | None = None  # alpha_i * y_i
    gamma: float | None = None
    # posterior calibration
    calibration: tuple[float, float] = (0.0, 0.0)
    train_meta: dict = field(default_factory=dict)

    def decision_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.n_dims:
            raise DimensionMismatchError(f"expected {self.n_dims} dims, got {X.shape[1]}")
        if self.kind == "lda" or self.kind == "linear_svm":
            out = X @ self.w + self.b
        else:
            k = _kernel("rbf_svm", self.gamma)(X, self.support_vectors)
            out = k @ self.dual_coef + self.b
        return out[0] if single else out

    def kkt_violation(self, X, y) -> float:
        """Max per-item KKT violation of the fitted SVM on its training set."""
        if self.kind == "lda":
            raise ValueError("KKT check only applies to SVMs")
        y = np.asarray(y, dtype=float)
        f = self.decision_values(X)
        margins = y * f
        alpha = self.train_meta["alpha"]
        C = self.hyperparams["C"]
        viol = np.zeros(len(y))
        at_zero = alpha <= 1e-9
        at_c = alpha >= C - 1e-9
        interior = ~(at_zero | at_c)
        viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
        viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
        viol[interior] = np.abs(1.0 - margins[interior])
        return float(viol.max()) if len(viol) else 0.0


def _fit_lda(X, y, shrinkage: float):
    pos = X[y > 0]
    neg = X[y < 0]
    mu_pos = pos.mean(axis=0)
    mu_neg = neg.mean(axis=0)
    d = X.shape[1]
    centered = np.concatenate([pos - mu_pos, neg - mu_neg])
    cov = (centered.T @ centered) / max(len(X) - 2, 1)
    if shrinkage > 0.0:
        scale = np.trace(cov) / d
        if scale <= 0.0:
            scale = 1.0  # zero within-class scatter: shrink toward the identity
        cov = (1.0 - shrinkage) * cov + shrinkage * scale * np.eye(d)
    w = np.linalg.solve(cov, mu_pos - mu_neg)
    b = -0.5 * float(w @ (mu_pos + mu_neg)) + math.log(len(pos) / len(neg))
    return w, b


def _cross_fitted_scores(X, y, fit_one, n_folds: int, seed: int):
    """Out-of-fold decision values for calibration."""
    rng = np.random.default_rng(seed)
    scores = np.zeros(len(y))
    n_folds = max(2, min(n_folds, int(min(np.sum(y > 0), np.sum(y < 0)))))
    for test_idx in stratified_folds(y, n_folds, rng):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        if len(np.unique(y[train_mask])) < 2:
            scores[test_idx] = 0.0
            continue
        model = fit_one(X[train_mask], y[train_mask])
        scores[test_idx] = model.decision_values(X[test_idx])
    return scores


def _fit_uncalibrated(X, y, kind, hyper) -> ShallowModel:
    if kind == "lda":
        w, b = _fit_lda(X, y, hyper["shrinkage"])
        return ShallowModel(kind, dict(hyper), X.shape[1], w=w, b=b)
    gamma = None
    if kind == "rbf_svm":
        gamma = hyper["gamma"]
        if gamma == "scale":
            gamma = 1.0 / X.shape[1]
        gamma = float(gamma)
    K = _kernel(kind, gamma)(X, X)
    alpha, b, iters, converged = _smo(K, y, hyper["C"])
    coef = alpha * y
    model = ShallowModel(kind, dict(hyper), X.shape[1], b=b, gamma=gamma,
                         train_meta={"alpha": alpha, "iters": iters, "converged": converged})
    if kind == "linear_svm":
        model.w = X.T @ coef
        model.support_vectors = X
        model.dual_coef = coef
    else:
        model.support_vectors = X
        model.dual_coef = coef
    return model


DEFAULT_HYPERPARAMS = {
    "lda": {"shrinkage": 0.1},
    "linear_svm": {"C": 1.0},
    "rbf_svm": {"C": 1.0, "gamma": "scale"},
}


def shallow_fit(X, y, kind: str, hyperparams: dict | None = None, seed: int = 0,
                calibration_folds: int = 3) -> ShallowModel:
    """Fit one shallow classifier and calibrate its posterior output.

    `y` holds +1/-1 labels. Calibration fits a logistic map on out-of-fold
    decision values so posteriors are honest on the training scale.
    """
    if kind not in SHALLOW_KINDS:
        raise ValueError(f"unknown shallow kind {kind!r}")
    X, y = _check_training_inputs(X, y)
    hyper = dict(DEFAULT_HYPERPARAMS[kind])
    hyper.update(hyperparams or {})
    if kind != "lda" and hyper["C"] <= 0:
        raise ValueError("C must be positive")

    model = _fit_uncalibrated(X, y, kind, hyper)
    fit_one = lambda Xi, yi: _fit_uncalibrated(Xi, yi, kind, hyper)
    scores = _cross_fitted_scores(X, y, fit_one, calibration_folds, seed)
    model.calibration = fit_platt(scores, y)
    return model


def shallow_predict_proba(model: ShallowModel, X) -> np.ndarray:
    """Per-item posterior pairs (High, Low); rows sum to 1."""
    f = model.decision_values(X)
    p_high = platt_posterior(np.atleast_1d(f), *model.calibration)
    return np.column_stack([p_high, 1.0 - p_high])


def shallow_predict(model: ShallowModel, X) -> np.ndarray:
    """Hard +1/-1 labels from the posterior argmax (ties map to Low)."""
    proba = shallow_predict_proba(model, X)
    return np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0)
