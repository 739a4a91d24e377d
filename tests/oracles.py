"""Independent brute-force reference implementations used to check the
library's closed-form/vectorized routines. These deliberately stay naive:
explicit pair enumeration, dictionaries and Python loops only. The
exceptions are frozen copies of earlier implementations that the optimized
ones must reproduce bit for bit: `reference_smo` and `reference_seeded_smo`
(`shallow._smo`), `reference_cnn_train` and `reference_cnn_gradients`
(`cnn.cnn_train` and `cnn.cnn_gradients`), `reference_mtl_fit`
(`mtl.mtl_fit`) and `reference_ga_optimize` (`scheduler.ga_optimize`).
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def cohen_kappa_bruteforce(a, b):
    a, b = list(a), list(b)
    n = len(a)
    agree = sum(1 for x, y in zip(a, b) if x == y)
    p_o = agree / n
    cats = set(a) | set(b)
    p_e = 0.0
    for c in cats:
        p_e += (a.count(c) / n) * (b.count(c) / n)
    return (p_o - p_e) / (1.0 - p_e)


def fleiss_kappa_bruteforce(tallies):
    tallies = [list(row) for row in tallies]
    n = sum(tallies[0])
    n_items = len(tallies)
    p_is = []
    for row in tallies:
        pairs = sum(c * (c - 1) for c in row)
        p_is.append(pairs / (n * (n - 1)))
    p_bar = sum(p_is) / n_items
    total = n * n_items
    p_e = sum((sum(row[j] for row in tallies) / total) ** 2 for j in range(len(tallies[0])))
    return (p_bar - p_e) / (1.0 - p_e)


def krippendorff_alpha_bruteforce(values, metric):
    """Direct pair enumeration over units; values is a raters x items grid
    with None/NaN for missing."""

    def present(v):
        return v is not None and not (isinstance(v, float) and math.isnan(v))

    n_raters = len(values)
    n_items = len(values[0])
    units = []
    for i in range(n_items):
        col = [values[r][i] for r in range(n_raters) if present(values[r][i])]
        if len(col) >= 2:
            units.append(col)
    pooled = [v for col in units for v in col]
    n = len(pooled)
    if n <= 1:
        raise ValueError("no pairable values")

    domain = sorted(set(pooled))
    counts = {v: pooled.count(v) for v in domain}

    if metric == "interval":
        def delta_sq(a, b):
            return (a - b) ** 2
    else:
        # Ordinal: distance between rank positions weighted by how often
        # each intervening value occurs among pairable values.
        def delta_sq(a, b):
            lo, hi = min(a, b), max(a, b)
            span = sum(counts[v] for v in domain if lo <= v <= hi)
            return (span - (counts[lo] + counts[hi]) / 2.0) ** 2

    d_o_num = 0.0
    for col in units:
        m_u = len(col)
        for x, y in itertools.permutations(col, 2):
            d_o_num += delta_sq(x, y) / (m_u - 1)
    d_o = d_o_num / n

    d_e_num = 0.0
    for i, x in enumerate(pooled):
        for j, y in enumerate(pooled):
            if i != j:
                d_e_num += delta_sq(x, y)
    d_e = d_e_num / (n * (n - 1))
    if d_e == 0.0:
        raise ValueError("expected disagreement is zero")
    return 1.0 - d_o / d_e


def krippendorff_alpha_exact(values, metric):
    """Alpha as a `Fraction`, from per-unit value counts in exact rational
    arithmetic; values is a raters x items grid with None/NaN for missing.
    Raises ValueError when at most one value is pairable or the expected
    disagreement is zero."""

    def present(v):
        return v is not None and not (isinstance(v, float) and math.isnan(v))

    units = []
    for i in range(len(values[0])):
        col = [Fraction(row[i]) for row in values if present(row[i])]
        if len(col) >= 2:
            units.append(Counter(col))
    marginals = Counter()
    for unit in units:
        marginals.update(unit)
    domain = sorted(marginals)
    n = sum(marginals.values())
    if n <= 1:
        raise ValueError("no pairable values")

    def delta_sq(a, b):
        if metric == "interval":
            return (a - b) ** 2
        lo, hi = min(a, b), max(a, b)
        span = sum(marginals[v] for v in domain if lo <= v <= hi)
        return (span - Fraction(marginals[lo] + marginals[hi], 2)) ** 2

    d_o = Fraction(0)
    for unit in units:
        m_u = sum(unit.values())
        for a, n_a in unit.items():
            for b, n_b in unit.items():
                d_o += Fraction(n_a * n_b, m_u - 1) * delta_sq(a, b)
    d_o /= n
    d_e = Fraction(0)
    for a in domain:
        for b in domain:
            d_e += marginals[a] * marginals[b] * delta_sq(a, b)
    d_e /= n * (n - 1)
    if d_e == 0:
        raise ValueError("expected disagreement is zero")
    return 1 - d_o / d_e


def f1_bruteforce(pred, truth, positive):
    tp = sum(1 for p, t in zip(pred, truth) if p == positive and t == positive)
    fp = sum(1 for p, t in zip(pred, truth) if p == positive and t != positive)
    fn = sum(1 for p, t in zip(pred, truth) if p != positive and t == positive)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def wilcoxon_exact_p_bruteforce(x, y):
    """Two-sided exact rank-sum p-value: enumerate every n_x-subset of the
    pooled midranks and count the sums at or beyond the observed one."""
    pooled = list(x) + list(y)
    ranks = [sum(1 for v in pooled if v < p) + (sum(1 for v in pooled if v == p) + 1) / 2 for p in pooled]
    nx = len(x)
    w = sum(ranks[:nx])
    sums = [sum(c) for c in itertools.combinations(ranks, nx)]
    eps = 1e-9
    p_low = sum(1 for s in sums if s <= w + eps) / len(sums)
    p_high = sum(1 for s in sums if s >= w - eps) / len(sums)
    return min(1.0, 2.0 * min(p_low, p_high))


def reference_smo(K, y, C, tol=1e-3, max_iter=400000):
    """The original, plain-numpy SMO loop that `shallow._smo` must match
    bit for bit (same alpha array, same b) on every input.

    SMO with second-order working-pair selection on a precomputed kernel.

    Returns (alpha, b). Optimality: there is a b satisfying every KKT
    box condition within `tol`. State (t = y - G and the bound-set
    eligibility masks) is maintained incrementally to keep iterations cheap.
    """
    n = len(y)
    alpha = np.zeros(n)
    t = y.astype(float).copy()  # y - G, the per-item implied bias
    diag = np.diag(K).copy()
    y_pos = y > 0
    eps = 1e-12
    # Eligibility to bound b from below (i side) / above (j side).
    lb = y_pos.copy()   # at alpha = 0: +1 items can still grow
    ub = ~y_pos

    def refresh(k):
        a = alpha[k]
        if y_pos[k]:
            lb[k] = a < C - eps
            ub[k] = a > eps
        else:
            lb[k] = a > eps
            ub[k] = a < C - eps

    for _ in range(max_iter):
        t_lb = np.where(lb, t, -np.inf)
        i = int(np.argmax(t_lb))
        min_ub = np.min(np.where(ub, t, np.inf))
        if t_lb[i] - min_ub <= 2.0 * tol:
            break
        # Second-order partner: maximize the guaranteed objective gain
        # delta^2 / eta among violating candidates.
        delta = t_lb[i] - t
        cand = ub & (delta > 1e-15)
        if not cand.any():
            break
        eta_row = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        gain = np.where(cand, delta * delta / eta_row, -np.inf)
        j = int(np.argmax(gain))
        # Two-variable subproblem on (i, j) with the rest fixed.
        if y[i] != y[j]:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(C, C + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - C)
            hi = min(C, alpha[i] + alpha[j])
        if hi - lo < 1e-14:
            break
        # E_i - E_j = t_j - t_i = -delta[j]
        aj_new = min(max(alpha[j] - y[j] * delta[j] / eta_row[j], lo), hi)
        delta_j = aj_new - alpha[j]
        if abs(delta_j) < 1e-14:
            break
        ai_new = alpha[i] - y[i] * y[j] * delta_j
        t -= y[i] * (ai_new - alpha[i]) * K[i] + y[j] * delta_j * K[j]
        alpha[i], alpha[j] = ai_new, aj_new
        refresh(i)
        refresh(j)
    b_low = np.max(np.where(lb, t, -np.inf))
    b_up = np.min(np.where(ub, t, np.inf))
    if not np.isfinite(b_low):
        b = b_up if np.isfinite(b_up) else 0.0
    elif not np.isfinite(b_up):
        b = b_low
    else:
        b = 0.5 * (b_low + b_up)
    return alpha, float(b)


def reference_seeded_smo(K, y, C, tol=1e-3, max_iter=400000, alpha=None):
    """The penalty-array `shallow._smo` that the solver with maintained `up`
    and `lo` vectors must match bit for bit (alpha, b, iters, converged),
    cold and seeded.

    SMO with second-order working-pair selection on a precomputed kernel.

    Returns (alpha, b, iters, converged). Optimality: there is a b
    satisfying every KKT box condition within `tol`; `converged` is True
    only when the solver stopped on that test, and `iters` counts the pair
    updates made. State (t = y - G and the bound-set eligibility penalties)
    is maintained incrementally, in preallocated buffers, and the
    two-variable subproblem is solved on Python floats, to keep iterations
    cheap. The solve starts from alpha = 0, or from a given feasible
    `alpha` (0 <= alpha <= C, sum alpha y = 0), such as the solution at a
    smaller C on the same kernel.
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

    if alpha is not None:
        alpha = np.asarray(alpha, dtype=float)
        t -= K @ (alpha * y)
        a = alpha.tolist()
        for k in range(n):
            refresh(k)
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


def inner_grid_search_full(train, spec, seed):
    """`evaluation._inner_grid_search` without its early stop: every grid
    point is scored on every inner split. Returns (params, scores), scores
    being the F1 of each grid point (rows, in grid order) on each split.

    LDA and SVM points are scored by the sign of the uncalibrated decision
    value; on each split, the SVMs of one kernel are solved in ascending C,
    each seeded with the previous alpha. Other kinds are scored by their
    posterior argmax. The first point whose mean F1 beats every earlier one
    by more than 1e-12 is picked. The search fits through the library's own
    learners and F1, so only the search itself is independent.
    """
    from adaffect.core import stratified_folds
    from adaffect.evaluation import f1_score, fit_model, predict_proba
    from adaffect.learners import shallow

    names = sorted(spec.grid)
    candidates = [dict(spec.params, **dict(zip(names, values)))
                  for values in itertools.product(*(spec.grid[k] for k in names))]
    y = train.y_signs()
    n_folds = int(min(5, np.sum(y > 0), np.sum(y < 0)))
    splits = []
    for test_idx in stratified_folds(y, n_folds, np.random.default_rng(seed)):
        fit_idx = np.setdiff1d(np.arange(len(y)), test_idx)
        if len(test_idx) and len(np.unique(y[fit_idx])) == 2:
            splits.append((train.subset(fit_idx), train.subset(test_idx)))
    scores = np.zeros((len(candidates), len(splits)))
    for s, (fit_set, test_set) in enumerate(splits):
        truth = test_set.y_signs()
        if spec.kind not in shallow.SHALLOW_KINDS:
            for c, candidate in enumerate(candidates):
                proba = predict_proba(spec.kind, fit_model(spec.kind, fit_set, candidate, seed), test_set)
                scores[c, s] = f1_score(np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0), truth)
            continue
        hypers = [shallow._hyperparams(spec.kind, c) for c in candidates]
        kernel_keys = [sorted((k, v) for k, v in h.items() if k != "C") for h in hypers]
        done = set()
        for c in range(len(candidates)):
            if c in done:
                continue
            chain = [m for m in range(len(candidates)) if kernel_keys[m] == kernel_keys[c]]
            chain.sort(key=lambda m: hypers[m].get("C", 0.0))
            alpha = None
            for m in chain:
                model = shallow._fit_uncalibrated(fit_set.X, fit_set.y_signs(), spec.kind, hypers[m], alpha)
                alpha = model.train_meta.get("alpha")
                scores[m, s] = f1_score(np.where(model.decision_values(test_set.X) > 0.0, 1.0, -1.0), truth)
                done.add(m)
    best, best_f1 = 0, -1.0
    for c in range(len(candidates)):
        mean = float(np.mean(scores[c]))
        if mean > best_f1 + 1e-12:
            best, best_f1 = c, mean
    return candidates[best], scores


# --------------------------------------------------------------------- cnn
# The per-array CNN step that `cnn.cnn_train` replaced: every activation,
# window matrix and gradient is a fresh array, and SGD updates each
# parameter array on its own.

def _ref_init_params(k, config, rng):
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


def _ref_window_matrix(x, w):
    """x: (B, C, L) -> contiguous (B, L - w + 1, C * w) sliding windows."""
    L_out = x.shape[2] - w + 1
    view = np.lib.stride_tricks.sliding_window_view(x, w, axis=2)[:, :, :L_out]
    return np.ascontiguousarray(view.transpose(0, 2, 1, 3)).reshape(x.shape[0], L_out, -1)


def _ref_conv1d_valid(x, W):
    """x: (B, C_in, L); W: (C_out, C_in, w) -> (B, C_out, L - w + 1)."""
    flat = _ref_window_matrix(x, W.shape[2])
    out = flat @ W.reshape(W.shape[0], -1).T
    return out.transpose(0, 2, 1)


def _ref_conv1d_grad_w(x, grad_out, shape):
    """Gradient of a valid conv w.r.t. its kernel; shape = (C_out, C_in, w)."""
    flat = _ref_window_matrix(x, shape[2])  # (B, L_out, C_in * w)
    g = grad_out.transpose(0, 2, 1)     # (B, L_out, C_out)
    grad = np.tensordot(g, flat, axes=([0, 1], [0, 1]))  # (C_out, C_in * w)
    return grad.reshape(shape)


def _ref_conv1d_grad_x(grad_out, W, L_in):
    """Gradient of a valid conv w.r.t. its input (full correlation)."""
    B, _, L_out = grad_out.shape
    C_in, w = W.shape[1], W.shape[2]
    g = np.ascontiguousarray(grad_out.transpose(0, 2, 1))  # (B, L_out, C_out)
    gx = np.zeros((B, C_in, L_in))
    for tau in range(w):
        gx[:, :, tau : tau + L_out] += (g @ W[:, :, tau]).transpose(0, 2, 1)
    return gx


def _ref_forward(params, X, dropout_mask=None):
    """X: (B, k). Returns (probabilities, cache)."""
    x = X[:, None, :]
    z1 = _ref_conv1d_valid(x, params["W1"]) + params["b1"][None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = _ref_conv1d_valid(a1, params["W2"]) + params["b2"][None, :, None]
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


def _ref_loss_from_probs(probs, targets, params, weight_decay):
    ce = -np.mean(np.log(np.clip(probs[np.arange(len(targets)), targets], 1e-300, None)))
    reg = 0.5 * weight_decay * sum(
        float(np.sum(params[k] ** 2)) for k in ("W1", "W2", "W3", "W4")
    )
    return float(ce + reg)


def _ref_backward(params, cache, probs, targets, weight_decay, dropout_mask=None):
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
    grads["W2"] = _ref_conv1d_grad_w(a1, dz2, params["W2"].shape) + weight_decay * params["W2"]
    grads["b2"] = dz2.sum(axis=(0, 2))
    da1 = _ref_conv1d_grad_x(dz2, params["W2"], a1.shape[2])
    dz1 = da1 * (z1 > 0)
    grads["W1"] = _ref_conv1d_grad_w(x, dz1, params["W1"].shape) + weight_decay * params["W1"]
    grads["b1"] = dz1.sum(axis=(0, 2))
    return grads


def reference_cnn_gradients(params, X, targets, weight_decay):
    """Gradients of the regularized cross-entropy (dropout disabled) that
    `cnn.cnn_gradients` must match bit for bit."""
    X = np.asarray(X, dtype=float)
    probs, cache = _ref_forward(params, X)
    return _ref_backward(params, cache, probs, np.asarray(targets), weight_decay)


def _ref_targets_from_signs(y):
    return np.where(np.asarray(y, dtype=float) > 0, 0, 1).astype(int)


def reference_cnn_train(X, y, config, val_data=None):
    """The training loop that `cnn.cnn_train` must match bit for bit.

    Returns (params, history) with history = {"val_loss", "stopped_epoch"}.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    k = X.shape[1]
    rng = np.random.default_rng(config.seed)

    if val_data is not None:
        X_tr, y_tr = X, y
        X_val = np.asarray(val_data[0], dtype=float)
        t_val = _ref_targets_from_signs(np.asarray(val_data[1]))
    else:
        n = len(y)
        n_val = max(1, int(round(config.val_fraction * n)))
        perm = rng.permutation(n)
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
        if len(np.unique(y[tr_idx])) < 2:  # tiny sets: keep everything
            tr_idx = perm
        X_tr, y_tr = X[tr_idx], y[tr_idx]
        X_val, t_val = X[val_idx], _ref_targets_from_signs(y[val_idx])
    t_tr = _ref_targets_from_signs(y_tr)

    params = _ref_init_params(k, config, rng)
    velocity = {key: np.zeros_like(val) for key, val in params.items()}

    val_history = []
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
            probs, cache = _ref_forward(params, Xb, mask)
            grads = _ref_backward(params, cache, probs, tb, config.weight_decay, mask)
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grads[key]
                params[key] += velocity[key]
        val_loss = _ref_loss_from_probs(_ref_forward(params, X_val)[0], t_val, params,
                                        config.weight_decay)
        if val_history and val_loss > val_history[-1]:
            streak += 1
        else:
            streak = 0
        val_history.append(val_loss)
        if streak >= config.patience:
            stopped_epoch = epoch
            break

    return params, {"val_loss": val_history, "stopped_epoch": stopped_epoch}


# --------------------------------------------------------------------- mtl
# The monotone FISTA loop that `mtl.mtl_fit` replaced, which forms the
# residuals four times per iteration.

def _ref_smooth_value(W, bias, Xs, Ys, alpha, gamma, R):
    val = 0.0
    for t, (X, Y) in enumerate(zip(Xs, Ys)):
        r = X @ W[:, t] + bias[t] - Y
        val += float(r @ r)
    if alpha > 0.0:
        WR = W @ R
        val += alpha * float(np.sum(WR * WR))
    if gamma > 0.0:
        val += gamma * float(np.sum(W * W))
    return val


def _ref_smooth_grad(W, bias, Xs, Ys, alpha, gamma, R, RRt, fit_intercept):
    gW = np.zeros_like(W)
    gb = np.zeros_like(bias)
    for t, (X, Y) in enumerate(zip(Xs, Ys)):
        r = X @ W[:, t] + bias[t] - Y
        gW[:, t] = 2.0 * (X.T @ r)
        if fit_intercept:
            gb[t] = 2.0 * float(r.sum())
    if alpha > 0.0:
        gW += 2.0 * alpha * (W @ RRt)
    if gamma > 0.0:
        gW += 2.0 * gamma * W
    return gW, gb


def _ref_soft_threshold(W, thresh):
    return np.sign(W) * np.maximum(np.abs(W) - thresh, 0.0)


def reference_mtl_fit(Xs, Ys, alpha, beta, gamma, R, fit_intercept=False, tol=1e-6, max_iter=10000):
    """The fitting loop that `mtl.mtl_fit` must match bit for bit; R is the
    task graph's incidence matrix. Returns (W, bias, objective_history)."""
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    Ys = [np.asarray(Y, dtype=float).reshape(-1) for Y in Ys]
    d = Xs[0].shape[1]
    T = len(Xs)
    RRt = R @ R.T

    W = np.zeros((d, T))
    bias = np.zeros(T)

    def smooth(Wm, bm):
        return _ref_smooth_value(Wm, bm, Xs, Ys, alpha, gamma, R)

    def full(Wm, bm):
        return smooth(Wm, bm) + beta * float(np.sum(np.abs(Wm)))

    x_W, x_b = W.copy(), bias.copy()
    x_W_old, x_b_old = W.copy(), bias.copy()
    y_W, y_b = W.copy(), bias.copy()
    t_momentum = 1.0
    L = 1.0
    history = [full(x_W, x_b)]

    for _ in range(max_iter):
        gW, gb = _ref_smooth_grad(y_W, y_b, Xs, Ys, alpha, gamma, R, RRt, fit_intercept)
        f_y = smooth(y_W, y_b)
        while True:
            z_W = _ref_soft_threshold(y_W - gW / L, beta / L)
            z_b = y_b - gb / L if fit_intercept else y_b
            d_W = z_W - y_W
            d_b = z_b - y_b
            quad = (
                f_y
                + float(np.sum(d_W * gW))
                + float(d_b @ gb)
                + 0.5 * L * (float(np.sum(d_W * d_W)) + float(d_b @ d_b))
            )
            if smooth(z_W, z_b) <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            L *= 2.0
        f_z = full(z_W, z_b)
        x_W_old, x_b_old = x_W, x_b
        accepted = f_z <= history[-1]
        if accepted:
            x_W, x_b = z_W, z_b
            f_x = f_z
        else:
            f_x = history[-1]
        history.append(f_x)

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        y_W = x_W + (t_momentum / t_next) * (z_W - x_W) + ((t_momentum - 1.0) / t_next) * (
            x_W - x_W_old
        )
        y_b = x_b + (t_momentum / t_next) * (z_b - x_b) + ((t_momentum - 1.0) / t_next) * (
            x_b - x_b_old
        )
        t_momentum = t_next

        if accepted and abs(history[-2] - history[-1]) <= tol * max(abs(history[-2]), 1e-12):
            break

    return x_W, x_b, history


# ---------------------------------------------------------------- scheduler
# The per-row generation loop that `scheduler.ga_optimize` replaced: each
# child is repaired and mutated on its own, with set/iterator bookkeeping.

def _ref_repair_row(child, k, n_ads, slot_order, ad_order):
    """Deduplicate ads (first slot wins) and re-pad to exactly k of them,
    consuming pre-drawn slot/ad orderings for all randomness."""
    seen = set()
    filled = 0
    for s in range(len(child)):
        a = child[s]
        if a < 0:
            continue
        if a in seen:
            child[s] = -1
        else:
            seen.add(a)
            filled += 1
    if filled > k:
        for s in slot_order:
            if filled == k:
                break
            if child[s] >= 0:
                seen.discard(child[s])
                child[s] = -1
                filled -= 1
    elif filled < k:
        spare = iter(a for a in ad_order if a not in seen)
        for s in slot_order:
            if filled == k:
                break
            if child[s] < 0:
                child[s] = next(spare)
                filled += 1


def reference_ga_optimize(problem, config):
    """The GA that `scheduler.ga_optimize` must match exactly, result for
    result, with tournaments of three."""
    from adaffect.scheduler import AdSchedule, GaResult, _population_feasible, _population_fitness

    rng = np.random.default_rng(config.seed)
    n, k, m = problem.n_slots, problem.k, len(problem.ads)
    P = config.population
    M = problem.match_matrix()

    pop = np.full((P, n), -1, dtype=int)
    for row in range(P):
        slots = rng.choice(n, size=k, replace=False)
        ads = rng.choice(m, size=k, replace=False)
        pop[row, slots] = ads
    fits = _population_fitness(pop, M)
    best_idx = int(np.argmax(fits))
    best_chrom = pop[best_idx].copy()
    best_fit = float(fits[best_idx])
    history = []

    for gen in range(config.generations):
        # Batched randomness for the whole generation.
        contenders = rng.integers(0, P, size=(2, P, 3))
        idx1 = contenders[0][np.arange(P), np.argmax(fits[contenders[0]], axis=1)]
        idx2 = contenders[1][np.arange(P), np.argmax(fits[contenders[1]], axis=1)]
        do_cross = rng.random(P) < config.crossover_rate
        masks = rng.random((P, n)) < 0.5
        slot_orders = np.argsort(rng.random((P, n)), axis=1)
        ad_orders = np.argsort(rng.random((P, m)), axis=1)
        do_swap = rng.random(P) < config.mutation_rate
        swap_pairs = rng.integers(0, n, size=(P, 2))
        do_replace = rng.random(P) < config.mutation_rate
        replace_draws = rng.integers(0, 1 << 30, size=(P, 2))

        children = np.where(masks, pop[idx1], pop[idx2])
        children[~do_cross] = pop[idx1[~do_cross]]
        children[0] = best_chrom  # elitism

        for row in range(P):
            child = children[row]
            if row > 0 and do_cross[row]:
                _ref_repair_row(child, k, m, slot_orders[row], ad_orders[row])
            if row > 0 and do_swap[row]:
                s1, s2 = swap_pairs[row]
                child[s1], child[s2] = child[s2], child[s1]
            if row > 0 and do_replace[row]:
                filled = np.flatnonzero(child >= 0)
                used = set(child[filled].tolist())
                unused = [a for a in range(m) if a not in used]
                if unused:
                    slot = filled[replace_draws[row, 0] % len(filled)]
                    child[slot] = unused[replace_draws[row, 1] % len(unused)]

        pop = children
        fits = _population_fitness(pop, M)
        assert _population_feasible(pop, k)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_chrom = pop[gen_best].copy()
        history.append(best_fit)

    slots = np.flatnonzero(best_chrom >= 0)
    schedule = AdSchedule({int(s): problem.ads[int(best_chrom[s])].id for s in slots})
    return GaResult(schedule=schedule, fitness=best_fit, best_history=history)
