"""Shallow binary classifiers: shrinkage-regularized LDA, linear SVMs
solved by a low-rank interior-point method with an SMO finish, and RBF
SVMs trained by SMO, all with Platt-calibrated posterior output. This
module alone schedules the solves: `_fit_stack` solves a stack of
training sets at one hyperparameter point (a model with its calibration
folds, or an inner grid point on every inner split, whose RBF points
`_grid_models` chains in ascending C). A stack's linear SVM problems
share one interior-point run; each problem then gets its own SMO finish.

Every SVM solve ends in `_smo`, so its KKT test (KKT_TOL) decides whether
the solve converged. Labels are +1 (High) / -1 (Low); posterior columns
are (High, Low).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..core import check_real, stratified_splits

KKT_TOL = 1e-3
SMO_MAX_ITER = 400000
PLATT_MAX_ITER = 100  # Newton steps of one Platt fit
CALIBRATION_FOLDS = 3  # folds of the out-of-fold decision values that Platt scaling fits
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

def _rbf_kernel(A, B, gamma: float) -> np.ndarray:
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


# ------------------------------------------------------------------ SMO

def _smo(K: np.ndarray, y: np.ndarray, C: float, max_iter: int = SMO_MAX_ITER,
         alpha: np.ndarray | None = None):
    """SMO with second-order working-pair selection on a precomputed kernel.

    Returns (alpha, b, iters, converged). Optimality: there is a b
    satisfying every KKT box condition within KKT_TOL; `converged` is True
    only when the solver stopped on that test, and `iters` counts the pair
    updates made. The state is kept as two vectors of t = y - G, the
    per-item implied bias: `up` holds t where the item may still bound b
    from below and -inf elsewhere, `lo` holds t where it may still bound b
    from above and +inf elsewhere. Both are updated in place, in
    preallocated buffers, and the two-variable subproblem is solved on
    Python floats, to keep iterations cheap. The solve starts from
    alpha = 0, or from a given feasible `alpha` (0 <= alpha <= C,
    sum alpha y = 0), such as the solution at a smaller C on the same kernel
    or the interior-point start of `_linear_dual`.
    """
    n = len(y)
    C = float(C)
    eps = 1e-12
    inf = math.inf
    t = y.astype(float).copy()  # y - G
    ys = t.tolist()
    if alpha is None:  # alpha = 0: every alpha can grow and none can shrink
        alpha, grow, shrink = np.zeros(n), True, False
    else:
        alpha = np.asarray(alpha, dtype=float)
        t -= K @ (alpha * y)
        grow, shrink = alpha < C - eps, alpha > eps
    a = alpha.tolist()
    # An item bounds b from below while its alpha may still move toward its
    # label's side (+1 grows, -1 shrinks), and from above while it may move
    # away from it.
    y_pos = y > 0
    up = np.where(np.where(y_pos, grow, shrink), t, -inf)
    lo = np.where(np.where(y_pos, shrink, grow), t, inf)
    diag = np.diag(K)
    K_rows = list(K)
    # Row i is the second-order curvature diag_i + diag_j - 2 K_ij of every pair (i, j).
    eta_rows = list(np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, 1e-12))
    C_eps = C - eps
    gap = 2.0 * KKT_TOL  # the largest t_i - t_j at which the KKT test holds
    delta = np.empty(n)  # t_i - t on the j side, -inf elsewhere
    flat = np.empty(n, dtype=bool)
    gain = np.empty(n)
    step = np.empty(n)
    iters = 0
    converged = False
    while iters < max_iter:
        i = int(up.argmax())
        t_i = up.item(i)
        np.subtract(t_i, lo, out=delta)
        if delta.item(delta.argmax()) <= gap:  # max over j of t_i - t_j
            converged = True
            break
        # Second-order partner: maximize the guaranteed objective gain
        # delta^2 / eta among violating candidates.
        eta_i = eta_rows[i]
        np.divide(np.multiply(delta, delta, out=gain), eta_i, out=gain)
        np.putmask(gain, np.less_equal(delta, 1e-15, out=flat), -inf)
        j = int(gain.argmax())
        if gain.item(j) == -inf:
            break
        # Two-variable subproblem on (i, j) with the rest fixed. Each
        # conditional expression is max(x, y) or min(x, y), which return x
        # on ties, at less cost.
        a_i, a_j, y_i, y_j = a[i], a[j], ys[i], ys[j]
        if y_i != y_j:
            lo_j, hi_j = a_j - a_i, C + a_j - a_i
        else:
            lo_j, hi_j = a_i + a_j - C, a_i + a_j
        lo_j = lo_j if lo_j > 0.0 else 0.0  # max(0.0, lo_j)
        hi_j = hi_j if hi_j < C else C  # min(C, hi_j)
        if hi_j - lo_j < 1e-14:
            break
        # E_i - E_j = t_j - t_i = -delta[j]
        aj_new = a_j - y_j * delta.item(j) / eta_i.item(j)
        aj_new = lo_j if lo_j > aj_new else aj_new  # max(aj_new, lo_j)
        aj_new = hi_j if hi_j < aj_new else aj_new  # min(aj_new, hi_j)
        delta_j = aj_new - a_j
        if abs(delta_j) < 1e-14:
            break
        ai_new = a_i - y_i * y_j * delta_j
        # t -= y_i (ai_new - a_i) K_i + y_j delta_j K_j, in that operation order.
        np.multiply(K_rows[i], y_i * (ai_new - a_i), out=step)
        step += np.multiply(K_rows[j], y_j * delta_j, out=gain)
        up -= step
        lo -= step
        a[i], a[j] = ai_new, aj_new
        t_i, t_j = up.item(i), lo.item(j)  # i came from `up` and j from `lo`, so both hold t
        toward, away = (ai_new < C_eps, ai_new > eps) if y_i > 0 else (ai_new > eps, ai_new < C_eps)
        up[i], lo[i] = (t_i if toward else -inf), (t_i if away else inf)
        toward, away = (aj_new < C_eps, aj_new > eps) if y_j > 0 else (aj_new > eps, aj_new < C_eps)
        up[j], lo[j] = (t_j if toward else -inf), (t_j if away else inf)
        iters += 1
    b_low = up.max()
    b_up = lo.min()
    if not np.isfinite(b_low):
        b = b_up if np.isfinite(b_up) else 0.0
    elif not np.isfinite(b_up):
        b = b_low
    else:
        b = 0.5 * (b_low + b_up)
    return np.array(a), float(b), iters, converged


# ------------------------------------------------- linear SVM: interior point

IPM_MAX_STEPS = 40
IPM_GAP_TOL = 1e-10  # stop when the duality gap is below this fraction of the dual objective


def _inverse_cholesky(G: np.ndarray):
    """(L^-1, ok) for a stack of symmetric matrices G = L L': ok marks the
    matrices whose Cholesky factor exists; the others get L = I."""
    ok = np.ones(len(G), dtype=bool)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:  # factor one at a time to find the failures
        L = np.zeros_like(G)
        for k, g in enumerate(G):
            try:
                L[k] = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                ok[k], L[k] = False, np.eye(len(g))
    return np.linalg.inv(L), ok


def _ipm_linear(Xs, ys, Cs, max_steps: int = IPM_MAX_STEPS) -> list:
    """Mehrotra predictor-corrector solves of a stack of linear SVM duals
    min 1/2 a'Qa - sum a, s.t. y'a = 0, a + s = C, a, s >= 0, with
    Q = Z Z' and Z = diag(y) X, one problem per (X, y, C) of `Xs`, `ys`
    and `Cs`, every X with the same column count d (Mehrotra 1992, SIAM
    J. Optim. 2:575; Ferris & Munson 2002, SIAM J. Optim. 13:783).

    Returns one (alpha, steps) per problem: its last iterate, strictly
    inside the box, and the Newton steps it took. The slack s = C - alpha
    is a variable of its own, with residual C - alpha - s, so no iterate
    reaches a bound by rounding. A problem stops when its duality gap
    falls below IPM_GAP_TOL of its dual objective and its dual residual
    below 1e-8 (1 + |Qa|), and early on a failed factorization,
    y'(Q + D)^-1 y outside (0, inf), a non-finite step or `max_steps`. A
    stopped problem is frozen while the others step on, and each problem
    takes its own step lengths, so its result depends on the others only
    through rounding. The problems are padded to the largest n with zero
    rows of Z and y, which enter no sum and never move.

    Each step solves, per problem, (Q + D) da + y db = r, y'da = -r_y,
    with D diagonal, through the d x d matrix G = I + Z' D^-1 Z
    (Woodbury) at O(n d^2) cost. One batched Cholesky factors the step's
    G of every problem still stepping; each factor L serves its
    problem's predictor and corrector solves, and G^-1 is applied as
    L^-T L^-1: a G^-1 formed from the factor loses the digits that the
    last steps, where D spans 20 or more orders of magnitude, need.
    """
    sizes = np.array([len(y) for y in ys])
    B, n_max, d = len(sizes), int(sizes.max()), Xs[0].shape[1]
    Z, y = np.zeros((B, n_max, d)), np.zeros((B, n_max))
    for k, (X_k, y_k) in enumerate(zip(Xs, ys)):
        Z[k, :len(y_k)] = X_k * y_k[:, None]
        y[k, :len(y_k)] = y_k
    ZT = Z.transpose(0, 2, 1).copy()
    own = np.abs(y)  # 1 on each problem's own rows, 0 on padding: the linear term of the objective
    C = np.asarray(Cs, dtype=float)[:, None]
    two_n = 2.0 * sizes[:, None]
    # Per problem, rows alpha, s and their multipliers z (of alpha >= 0) and
    # w (of s >= 0). Padding keeps alpha = s = C/2 and z = w = 1, so its
    # residuals r_d and r_s are exactly 0.
    v = np.ones((B, 4, n_max))
    v[:, :2] = 0.5 * C[:, :, None]
    b = np.zeros((B, 1))  # multipliers of y'alpha = 0: the SVMs' biases
    out, steps = v[:, 0].copy(), np.full(B, max_steps)
    live = np.arange(B)  # the problems still stepping
    eye = np.eye(d)
    for step in range(max_steps):
        alpha, s, z, w = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        Qa = (Z @ (ZT @ alpha[..., None]))[..., 0]  # 0 on padding
        r_d = Qa - own + b * y - z + w
        r_y = (y * alpha).sum(axis=1, keepdims=True)
        r_s = C - alpha - s
        products = v[:, :2] * v[:, 2:]  # alpha z, s w
        gap = (products.sum(axis=1) * own).sum(axis=1, keepdims=True)
        done = (gap[:, 0] < IPM_GAP_TOL * (alpha * (own - 0.5 * Qa)).sum(axis=1)) & (
            np.abs(r_d).max(axis=1) < 1e-8 * (1.0 + np.abs(Qa).max(axis=1)))
        D_inv = (1.0 / (z / alpha + w / s))[..., None]
        L_inv, factored = _inverse_cholesky(eye + ZT @ (D_inv * Z))

        def solve(R):  # (Q + D)^-1 R, for R holding one right side per column
            return D_inv * (R - Z @ (L_inv.transpose(0, 2, 1) @ (L_inv @ (ZT @ (D_inv * R)))))

        def reduced(r):  # the right side in da of the step with alpha dz + z da = r[:, 0], s dw + w ds = r[:, 1]
            return r[:, 0] / alpha - (r[:, 1] - w * r_s) / s - r_d

        # y and the predictor's right side, solved together.
        u, x = solve(np.stack([y, reduced(-products)], axis=2)).transpose(2, 0, 1)
        y_u = (y * u).sum(axis=1, keepdims=True)  # > 0 while the solve holds, as Q + D is positive definite
        stop = done | ~factored | ~((0.0 < y_u[:, 0]) & (y_u[:, 0] < math.inf))
        if stop.any():
            steps[live[stop]], out[live[stop]] = step, alpha[stop]
            keep = ~stop
            if not keep.any():
                break
            live, Z, ZT, y, own, C, two_n, v, b, r_d, r_y, r_s, products, gap, D_inv, L_inv, u, x, y_u = (
                a[keep] for a in (live, Z, ZT, y, own, C, two_n, v, b, r_d, r_y, r_s, products, gap, D_inv, L_inv,
                                  u, x, y_u))
            alpha, s, z, w = v[:, 0], v[:, 1], v[:, 2], v[:, 3]

        def newton(r, x):
            # The step in (v, b) with alpha dz + z da = r[:, 0] and s dw + w ds = r[:, 1],
            # from x = (Q + D)^-1 reduced(r); 0 on padding.
            db = ((y * x).sum(axis=1, keepdims=True) + r_y) / y_u
            dv = np.empty_like(v)
            dv[:, 0] = (x - u * db) * own
            dv[:, 1] = r_s - dv[:, 0]
            dv[:, 2:] = (r - v[:, 2:] * dv[:, :2]) / v[:, :2] * own[:, None]
            return dv, db

        def max_step(dv):  # per problem, the largest t <= 1 keeping v >= 0
            return 1.0 / np.maximum((-dv / v).max(axis=(1, 2)), 1.0)[:, None, None]

        affine, _ = newton(-products, x)
        trial = v + max_step(affine) * affine
        mu = gap / two_n
        mu_aff = ((trial[:, :2] * trial[:, 2:]).sum(axis=1) * own).sum(axis=1, keepdims=True) / two_n
        r = ((mu_aff / mu) ** 3 * mu)[..., None] - products - affine[:, :2] * affine[:, 2:]
        dv, db = newton(r, solve(reduced(r)[..., None])[..., 0])
        t = 0.99 * max_step(dv)
        v, b = v + t * dv, b + t[..., 0] * db
        if not (np.isfinite(v).all() and np.isfinite(b).all()):
            finite = np.isfinite(v).all(axis=(1, 2)) & np.isfinite(b[:, 0])
            steps[live[~finite]], out[live[~finite]] = step, alpha[~finite]
            if not finite.any():
                break
            live, Z, ZT, y, own, C, two_n, v, b = (a[finite] for a in (live, Z, ZT, y, own, C, two_n, v, b))
    out[live] = v[:, 0]
    return [(out[k, :sizes[k]].copy(), int(steps[k])) for k in range(B)]


def _onto_feasible(alpha: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """`alpha` clipped into [0, C], with values within 1e-6 C of a bound
    set onto it, then moved so that sum alpha y = 0: the items with the
    most room in the needed direction absorb the excess, largest first,
    those strictly inside the box before those on a bound."""
    C = float(C)
    alpha = np.clip(alpha, 0.0, C)
    alpha[alpha < 1e-6 * C] = 0.0
    alpha[alpha > C - 1e-6 * C] = C
    excess = float(alpha @ y)
    if excess:
        room = np.where(y * excess > 0.0, alpha, C - alpha)  # shrink y_i excess > 0 items, grow the others
        for i in np.lexsort((-room, (alpha == 0.0) | (alpha == C))):
            moved = min(room[i], abs(excess))
            alpha[i] -= y[i] * math.copysign(moved, excess)
            excess -= math.copysign(moved, excess)
            if excess == 0.0:
                break
    return alpha


def _linear_dual(X: np.ndarray, y: np.ndarray, C: float, max_steps: int = IPM_MAX_STEPS,
                 max_iter: int = SMO_MAX_ITER, start: tuple | None = None):
    """The linear SVM dual: an interior-point start, made feasible
    (`_onto_feasible`), then finished by `_smo` on K = X X'. The start is
    `start`, this problem's (alpha, steps) from an `_ipm_linear` run over a
    stack of problems, or else `_ipm_linear` run on this problem alone.

    Returns (alpha, b, iters, converged, steps): `iters` and `converged`
    are the SMO finish's, so the KKT test is the one every SMO solve meets,
    and a start that stopped early costs SMO work, never a wrong model.
    """
    alpha, steps = start if start is not None else _ipm_linear([X], [y], [C], max_steps)[0]
    alpha, b, iters, converged = _smo(X @ X.T, y, C, max_iter=max_iter, alpha=_onto_feasible(alpha, y, C))
    return alpha, b, iters, converged, steps


# --------------------------------------------------------- Platt scaling

def logistic(x):
    """1 / (1 + exp(-x)), evaluated without overflow on either tail."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def fit_platt(scores: np.ndarray, y: np.ndarray):
    """Fit P(High|f) = 1/(1 + exp(A f + B)) by Newton descent on the
    regularized log-loss with the usual prior-smoothed targets."""
    scores = np.asarray(scores, dtype=float)
    n_pos = float(np.sum(y > 0))
    n_neg = float(np.sum(y < 0))
    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    A, B = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    eps = 1e-12

    def apply(a, b):
        return np.clip(platt_posterior(scores, a, b), eps, 1.0 - eps)

    def loss(a, b):
        p = apply(a, b)
        return float(-np.sum(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))

    prev = loss(A, B)
    for _ in range(PLATT_MAX_ITER):
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
    return logistic(-(A * np.asarray(scores, dtype=float) + B))


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

    def to_dict(self) -> dict:
        """The fields a model file stores (all but `train_meta`); arrays stay arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "train_meta"}

    @classmethod
    def from_dict(cls, doc: dict) -> "ShallowModel":
        arrays = {k: None if doc[k] is None else np.asarray(doc[k], dtype=float)
                  for k in ("w", "support_vectors", "dual_coef")}
        return cls(doc["kind"], doc["hyperparams"], int(doc["n_dims"]), b=float(doc["b"]),
                   gamma=None if doc["gamma"] is None else float(doc["gamma"]),
                   calibration=tuple(doc["calibration"]), **arrays)

    def decision_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.n_dims:
            raise DimensionMismatchError(f"expected {self.n_dims} dims, got {X.shape[1]}")
        if self.kind == "lda" or self.kind == "linear_svm":
            out = X @ self.w + self.b
        else:
            out = _rbf_kernel(X, self.support_vectors, self.gamma) @ self.dual_coef + self.b
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


def _calibration_splits(y, n_folds: int, seed: int):
    """(training indices, test indices) of each calibration fold that holds
    an item and whose training side holds both classes (a 2-item set deals
    both items into one of its 2 folds)."""
    n_folds = max(2, min(n_folds, int(min(np.sum(y > 0), np.sum(y < 0)))))
    return [(fit_idx, test_idx) for fit_idx, test_idx in stratified_splits(y, n_folds, np.random.default_rng(seed))
            if len(test_idx) and len(np.unique(y[fit_idx])) == 2]


def _fit_uncalibrated(X, y, kind, hyper, start=None) -> ShallowModel:
    """The model without its posterior calibration. A linear SVM is solved
    by `_linear_dual`, from `start` when given: this problem's
    (alpha, steps) of an `_ipm_linear` run over a stack of problems. An
    RBF SVM is solved by `_smo`, from the feasible alpha `start` when
    given."""
    if kind == "lda":
        w, b = _fit_lda(X, y, hyper["shrinkage"])
        return ShallowModel(kind, dict(hyper), X.shape[1], w=w, b=b)
    if kind == "linear_svm":
        alpha, b, iters, converged, steps = _linear_dual(X, y, hyper["C"], start=start)
        coef = alpha * y
        return ShallowModel(kind, dict(hyper), X.shape[1], w=X.T @ coef, b=b, support_vectors=X, dual_coef=coef,
                            train_meta={"alpha": alpha, "iters": iters, "converged": converged,
                                        "ipm_steps": steps})
    gamma = hyper["gamma"]
    gamma = float(1.0 / X.shape[1] if gamma == "scale" else gamma)
    alpha, b, iters, converged = _smo(_rbf_kernel(X, X, gamma), y, hyper["C"], alpha=start)
    return ShallowModel(kind, dict(hyper), X.shape[1], b=b, support_vectors=X, dual_coef=alpha * y, gamma=gamma,
                        train_meta={"alpha": alpha, "iters": iters, "converged": converged})


def _fit_stack(sets, kind, hyper, starts=None) -> list:
    """The uncalibrated `kind` models at `hyper` of a stack of (X, y) sets,
    in order. Linear SVMs start from one `_ipm_linear` run over the stack;
    RBF SVMs from `starts`, one feasible alpha per set, when given."""
    if kind == "linear_svm":
        starts = _ipm_linear(*zip(*sets), [hyper["C"]] * len(sets))
    return [_fit_uncalibrated(X, y, kind, hyper, start) for (X, y), start in zip(sets, starts or [None] * len(sets))]


DEFAULT_HYPERPARAMS = {
    "lda": {"shrinkage": 0.1},
    "linear_svm": {"C": 1.0},
    "rbf_svm": {"C": 1.0, "gamma": "scale"},
}

#: Default inner-search grids for the SVMs ("scale" resolves to 1/dims).
DEFAULT_GRIDS = {
    "linear_svm": {"C": [0.1, 1.0, 10.0, 100.0]},
    "rbf_svm": {"C": [0.1, 1.0, 10.0, 100.0], "gamma": ["scale", 0.01, 0.1]},
}

#: Allowed values of the shallow hyperparameters: (test, description).
_HYPER_BOUNDS = {
    "C": (lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "gamma": (lambda v: 0.0 < v < math.inf, '"scale" or a finite number > 0'),
    "shrinkage": (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
}


def _hyperparams(kind: str, hyperparams: dict | None) -> dict:
    """The kind's defaults, overridden by `hyperparams`; a value out of
    bounds (see `_HYPER_BOUNDS`) is an error."""
    if kind not in SHALLOW_KINDS:
        raise ValueError(f"unknown shallow kind {kind!r}")
    hyper = dict(DEFAULT_HYPERPARAMS[kind])
    hyper.update(hyperparams or {})
    for name in DEFAULT_HYPERPARAMS[kind]:
        if not (name == "gamma" and hyper[name] == "scale"):
            check_real(f"{kind} {name}", hyper[name], *_HYPER_BOUNDS[name])
    return hyper


def _grid_models(sets, kind, candidates):
    """Yield the uncalibrated `kind` models of each hyperparameter point of
    `candidates` on the stack of (X, y) `sets`, point by point in order.

    Every point is checked (see `_hyperparams`) before the first solve.
    The RBF points that share a kernel are solved in ascending C, each
    starting from the solution at the next smaller C on the same set: alpha
    from a smaller C lies in the larger box and keeps sum alpha y = 0. So
    yielding a point first solves the smaller-C points of its kernel that
    are not solved yet, and no point is solved twice.
    """
    hypers = [_hyperparams(kind, c) for c in candidates]
    warm_from = dict.fromkeys(range(len(hypers)))  # point -> next smaller C on its RBF kernel, or None
    if kind == "rbf_svm":
        last = {}  # kernel -> its point with the largest C so far
        for i in sorted(warm_from, key=lambda i: hypers[i]["C"]):
            kernel = repr(sorted((k, v) for k, v in hypers[i].items() if k != "C"))
            warm_from[i], last[kernel] = last.get(kernel), i
    solved = {}  # point -> its models, one per set, until yielded and no larger C starts from them
    for i in range(len(hypers)):
        walk, m = [], i  # i and its unsolved warm-start predecessors, largest C first
        while m is not None and m not in solved:
            walk.append(m)
            m = warm_from[m]
        for m in reversed(walk):
            warm = solved.get(warm_from[m])
            solved[m] = _fit_stack(sets, kind, hypers[m], warm and [model.train_meta["alpha"] for model in warm])
        yield solved[i] if i in warm_from.values() else solved.pop(i)


def shallow_fit(X, y, kind: str, hyperparams: dict | None = None, seed: int = 0) -> ShallowModel:
    """Fit one shallow classifier and calibrate its posterior output.

    `y` holds +1/-1 labels. Calibration fits a logistic map on out-of-fold
    decision values so posteriors are honest on the training scale. An SVM's
    `train_meta` records whether its own solve ("converged") and each
    calibration solve ("calibration_converged") met the KKT tolerance.
    """
    hyper = _hyperparams(kind, hyperparams)
    X, y = _check_training_inputs(X, y)
    splits = _calibration_splits(y, CALIBRATION_FOLDS, seed)
    model, *folds = _fit_stack([(X, y)] + [(X[idx], y[idx]) for idx, _ in splits], kind, hyper)
    scores = np.zeros(len(y))
    for fold, (_, test_idx) in zip(folds, splits):
        scores[test_idx] = fold.decision_values(X[test_idx])
    model.calibration = fit_platt(scores, y)
    if kind != "lda":
        model.train_meta["calibration_converged"] = [fold.train_meta["converged"] for fold in folds]
    return model


def unconverged_solves(model) -> tuple[bool, int]:
    """Whether the model's own SMO solve stopped short of the KKT tolerance,
    and how many of its calibration solves did; (False, 0) for a model
    without SMO solves."""
    meta = getattr(model, "train_meta", {})
    return meta.get("converged") is False, meta.get("calibration_converged", []).count(False)


def shallow_predict_proba(model: ShallowModel, X) -> np.ndarray:
    """Per-item posterior pairs (High, Low); rows sum to 1."""
    f = model.decision_values(X)
    p_high = platt_posterior(np.atleast_1d(f), *model.calibration)
    return np.column_stack([p_high, 1.0 - p_high])
