"""Independent brute-force reference implementations used to check the
library's closed-form/vectorized routines. These deliberately stay naive:
explicit pair enumeration, dictionaries and Python loops only. The one
exception is `reference_smo`, a frozen copy of the solver the optimized
`shallow._smo` must reproduce exactly.
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
