"""Reference computations the benchmark checks the program against.

Each function here is written from the method's definition, not from the
program's code path: agreement coefficients from per-unit value counts,
SVM optimality from the dual variables and a kernel matrix built here, the
MTL objective from its formula, schedule optima by enumeration, and the
spectrogram's frame count and Parseval energy from the raw samples.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist


def load_test_oracles(root: Path):
    """The repository's pair-enumeration oracles (tests/oracles.py)."""
    spec = importlib.util.spec_from_file_location("adaffect_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------- agreement

def krippendorff_alpha_counts(values: np.ndarray, metric: str) -> float:
    """Krippendorff's alpha from per-unit value counts (Krippendorff 2011):
    o_ck = sum_u n_uc (n_uk - [c == k]) / (m_u - 1) over units with m_u >= 2.
    This is the pair enumeration of the definition grouped by value."""
    values = np.asarray(values, dtype=float)
    present = np.isfinite(values)
    m_u = present.sum(axis=0)
    keep = m_u >= 2
    domain = np.unique(values[:, keep][present[:, keep]])
    counts = np.stack([((values == v) & present).sum(axis=0) for v in domain], axis=1)[keep]
    weights = 1.0 / (m_u[keep] - 1.0)
    coincidence = (counts * weights[:, None]).T @ counts
    coincidence -= np.diag((counts * weights[:, None]).sum(axis=0))
    n_c = coincidence.sum(axis=1)
    n = n_c.sum()
    if metric == "interval":
        delta_sq = (domain[:, None] - domain[None, :]) ** 2
    else:
        cum = np.concatenate(([0.0], np.cumsum(n_c)))
        lo = np.minimum.outer(np.arange(len(domain)), np.arange(len(domain)))
        hi = np.maximum.outer(np.arange(len(domain)), np.arange(len(domain)))
        delta_sq = (cum[hi + 1] - cum[lo] - (n_c[lo] + n_c[hi]) / 2.0) ** 2
    d_o = float(np.sum(coincidence * delta_sq)) / n
    d_e = float(n_c @ delta_sq @ n_c) / (n * (n - 1.0))
    return 1.0 - d_o / d_e


def binary_tallies(values: np.ndarray, reference: str) -> np.ndarray:
    """Items x (High, Low) tallies after thresholding each rating at the
    rater's mean (per_rater_mean) or the grand mean (group_mean); ties are
    Low. Only items rated by every rater are kept."""
    present = np.isfinite(values)
    if reference == "per_rater_mean":
        thresholds = np.array([values[r, present[r]].mean() for r in range(values.shape[0])])[:, None]
    else:
        thresholds = values[present].mean()
    high = present & (np.where(present, values, -np.inf) > thresholds)
    low = present & ~high
    tallies = np.column_stack([high.sum(axis=0), low.sum(axis=0)])
    return tallies[present.all(axis=0)]


# ------------------------------------------------------------------- SVM

def svm_optimality(X, y, alpha, b, C, kind, gamma, tol):
    """Check one trained SVM from its dual variables.

    Builds the kernel matrix here, then returns (max KKT violation, duality
    gap, list of failures). The gap P - D equals
    sum_i alpha_i (y_i f_i - 1) + C xi_i, so a solution within `tol` of
    every KKT condition has 0 <= gap <= 2 C n tol.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if kind == "linear_svm":
        K = X @ X.T
    else:
        K = np.exp(-gamma * cdist(X, X, "sqeuclidean"))
    coef = alpha * y
    quad = float(coef @ K @ coef)
    f = K @ coef + b
    margins = y * f
    at_zero = alpha <= 1e-9 * C
    at_c = alpha >= C * (1.0 - 1e-9)
    interior = ~(at_zero | at_c)
    viol = np.zeros(len(y))
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[interior] = np.abs(1.0 - margins[interior])
    primal = 0.5 * quad + C * float(np.maximum(0.0, 1.0 - margins).sum())
    dual = float(alpha.sum()) - 0.5 * quad
    gap = primal - dual
    slack = 1e-9 * (1.0 + abs(primal) + abs(dual))
    failures = []
    if np.any(alpha < -1e-12) or np.any(alpha > C * (1.0 + 1e-12)):
        failures.append("alpha outside [0, C]")
    if abs(float(coef.sum())) > 1e-8 * max(1.0, C * len(y)):
        failures.append(f"sum alpha*y = {coef.sum():.3g}, not 0")
    if viol.max() > tol + 1e-9:
        failures.append(f"KKT violation {viol.max():.3g} > solver tolerance {tol}")
    if gap < -slack or gap > 2.0 * C * len(y) * tol + slack:
        failures.append(f"duality gap {gap:.3g} outside [0, {2.0 * C * len(y) * tol:.3g}]")
    return float(viol.max()), gap, failures


# ------------------------------------------------------------------- MTL

def mtl_objective(W, bias, Xs, Ys, codes, alpha, beta, gamma) -> float:
    """sum_t ||X_t W_t + b_t - Y_t||^2 + alpha sum over related task pairs
    ||W_i - W_j||^2 + beta ||W||_1 + gamma ||W||_F^2, where two quadrant
    codes are related when they share their arousal or valence letter."""
    value = 0.0
    for t, (X, Y) in enumerate(zip(Xs, Ys)):
        r = X @ W[:, t] + bias[t] - Y
        value += float(r @ r)
    for i, j in itertools.combinations(range(len(codes)), 2):
        if codes[i][0] == codes[j][0] or codes[i][1] == codes[j][1]:
            diff = W[:, i] - W[:, j]
            value += alpha * float(diff @ diff)
    return value + beta * float(np.abs(W).sum()) + gamma * float((W * W).sum())


# -------------------------------------------------------------- schedule

def relevance(scene, ad, lambda_v=1.0, lambda_a=1.0) -> float:
    return lambda_v * (1.0 - abs(ad["val"] - scene["val"])) + lambda_a * (1.0 - abs(ad["asl"] - scene["asl"]))


def schedule_optimum(scenes, ads, k) -> float:
    """Best total relevance over every choice of k slots (slot s follows
    scene s) and every ordered choice of k distinct ads."""
    slots = len(scenes) - 1
    M = np.array([[relevance(scenes[s], ad) for ad in ads] for s in range(slots)])
    perms = np.array(list(itertools.permutations(range(len(ads)), k)))
    best = -np.inf
    for chosen in itertools.combinations(range(slots), k):
        totals = M[np.array(chosen)[None, :], perms].sum(axis=1)
        best = max(best, float(totals.max()))
    return best


# ----------------------------------------------------------- spectrogram

def spectrogram_identities(samples, sample_rate, magnitudes, window_ms=40.0, hop_ms=20.0):
    """Frame count floor((N - W) / H) + 1, W // 2 + 1 bins, and Parseval:
    the one-sided |X|^2 sum / W equals the energy of the Hann-windowed
    frames. Returns a list of failures."""
    samples = np.asarray(samples, dtype=float)
    W = int(round(window_ms / 1000.0 * sample_rate))
    H = int(round(hop_ms / 1000.0 * sample_rate))
    frames = (len(samples) - W) // H + 1
    failures = []
    if magnitudes.shape != (frames, W // 2 + 1):
        return [f"spectrogram shape {magnitudes.shape}, expected {(frames, W // 2 + 1)}"]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(W) / (W - 1))
    windowed = np.stack([samples[i * H : i * H + W] for i in range(frames)]) * hann
    time_energy = float(np.sum(windowed**2))
    weights = np.full(W // 2 + 1, 2.0)
    weights[0] = 1.0
    if W % 2 == 0:
        weights[-1] = 1.0
    freq_energy = float(np.sum(magnitudes**2 @ weights)) / W
    if abs(freq_energy - time_energy) > 1e-9 * time_energy:
        failures.append(f"Parseval: spectrum energy {freq_energy!r} vs samples {time_energy!r}")
    return failures


# ------------------------------------------------------------ posteriors

def posterior_failures(name, proba) -> list[str]:
    proba = np.asarray(proba, dtype=float)
    if proba.ndim != 2 or proba.shape[1] != 2:
        return [f"{name}: posteriors have shape {proba.shape}"]
    if np.any(proba < 0.0) or np.any(proba > 1.0):
        return [f"{name}: posterior outside [0, 1]"]
    if np.max(np.abs(proba.sum(axis=1) - 1.0)) > 1e-9:
        return [f"{name}: posterior rows do not sum to 1"]
    return []


def f1(pred, truth) -> float:
    """F1 of the +1 class for +1/-1 arrays."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    tp = float(np.sum((pred == 1) & (truth == 1)))
    fp = float(np.sum((pred == 1) & (truth != 1)))
    fn = float(np.sum((pred != 1) & (truth == 1)))
    return 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
