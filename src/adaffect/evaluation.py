"""Evaluation harness: F1, repeated stratified cross-validation with inner
hyperparameter search, weighted decision fusion of two posterior streams,
and ad-level score aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AffectLabel, FeatureMatrix, stratified_folds
from .learners.cnn import CnnConfig, cnn_predict_proba, cnn_train
from .learners.mtl import build_task_graph, mtl_fit, mtl_predict_proba
from .learners.shallow import SHALLOW_KINDS, shallow_fit, shallow_predict_proba

#: Default inner-search grids for the SVMs ("scale" resolves to 1/dims).
DEFAULT_GRIDS = {
    "linear_svm": {"C": [0.1, 1.0, 10.0, 100.0]},
    "rbf_svm": {"C": [0.1, 1.0, 10.0, 100.0], "gamma": ["scale", 0.01, 0.1]},
}

#: Multi-task regularizer weights; model params override them key by key.
MTL_DEFAULTS = {"alpha": 1.0, "beta": 0.01, "gamma": 0.1, "fit_intercept": True}


class InsufficientClassCountError(ValueError):
    """Fewer items in a class than folds."""


class MisalignedItemsError(ValueError):
    """Fusion inputs do not describe the same items."""


def f1_score(pred, truth, positive=AffectLabel.HIGH) -> float:
    """Harmonic mean of precision and recall; 0 when both are undefined.

    pred/truth may be AffectLabel sequences or +1/-1 sign arrays.
    """
    pred = _as_signs(pred)
    truth = _as_signs(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    pos = 1.0 if positive is AffectLabel.HIGH else -1.0
    tp = float(np.sum((pred == pos) & (truth == pos)))
    fp = float(np.sum((pred == pos) & (truth != pos)))
    fn = float(np.sum((pred != pos) & (truth == pos)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _as_signs(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.dtype == object or (arr.size and isinstance(arr.reshape(-1)[0], AffectLabel)):
        return np.array([lab.sign for lab in arr.reshape(-1)])
    return arr.astype(float).reshape(-1)


# ------------------------------------------------------------ model kinds
# Each kind's learners are looked up in this module's globals at call time,
# so a caller that replaces `evaluation.shallow_fit` (or another learner
# name) sees every fit and prediction made here.

def _fit_shallow(kind, features, params, seed):
    return shallow_fit(features.X, features.y_signs(), kind, params, seed=seed)


def _fit_mtl(kind, features, params, seed):
    graph = build_task_graph()
    y = features.y_signs()
    Xs, Ys = [], []
    for quad in graph.tasks:
        # A quadrant with no items gives a (0, d) block, which mtl_fit rejects.
        idx = [i for i, q in enumerate(features.quadrants) if q == quad]
        Xs.append(features.X[idx])
        Ys.append(y[idx])
    params = dict(MTL_DEFAULTS, **params)
    return mtl_fit(
        Xs, Ys,
        alpha=params["alpha"], beta=params["beta"], gamma=params["gamma"],
        graph=graph, fit_intercept=params["fit_intercept"],
        tol=params.get("tol", 1e-6), max_iter=int(params.get("max_iter", 10000)),
    )


def _fit_cnn(kind, features, params, seed):
    return cnn_train(features.X, features.y_signs(), CnnConfig(**dict(params, seed=seed)))


#: kind -> (fit(kind, features, params, seed), posteriors(model, features)).
_LEARNERS = {
    **{kind: (_fit_shallow, lambda model, f: shallow_predict_proba(model, f.X)) for kind in SHALLOW_KINDS},
    "mtl": (_fit_mtl, lambda model, f: mtl_predict_proba(model, f.X, f.quadrants)),
    "cnn": (_fit_cnn, lambda model, f: cnn_predict_proba(model, f.X)),
}

MODEL_KINDS = tuple(_LEARNERS)


def fit_model(kind: str, features: FeatureMatrix, params: dict, seed: int):
    """Fit one model of `kind` on every item of `features`.

    `params` are the kind's hyperparameters (for mtl, overrides of
    MTL_DEFAULTS; for cnn, CnnConfig fields); `seed` drives any randomness.
    """
    if kind not in _LEARNERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _LEARNERS[kind][0](kind, features, params, seed)


def predict_proba(kind: str, model, features: FeatureMatrix) -> np.ndarray:
    """Posterior pairs (High, Low) of a fitted `kind` model on `features`."""
    return _LEARNERS[kind][1](model, features)


@dataclass
class ModelSpec:
    """What to train inside each CV fold.

    `params` are fixed hyperparameters; `grid` (SVMs only) maps a
    hyperparameter name to candidate values searched by inner 5-fold CV.
    """

    kind: str
    params: dict = field(default_factory=dict)
    grid: dict | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.grid is None and self.kind in DEFAULT_GRIDS:
            self.grid = {k: list(v) for k, v in DEFAULT_GRIDS[self.kind].items()}


@dataclass
class CvReport:
    setting: dict
    rows: list[tuple[int, int, float]]  # (run/repetition, fold, f1)
    mean: float
    std: float
    oof_posteriors: np.ndarray | None = None  # first-repetition out-of-fold (High, Low)

    @property
    def f1_values(self) -> np.ndarray:
        return np.array([f1 for _, _, f1 in self.rows])


def _grid_points(grid: dict) -> list[dict]:
    items = sorted(grid.items())
    points = [{}]
    for key, values in items:
        points = [dict(p, **{key: v}) for p in points for v in values]
    return points


def _inner_grid_search(X, y, kind, params, grid, seed) -> dict:
    """Pick SVM hyperparameters by mean F1 over an inner 5-fold split."""
    points = _grid_points(grid)
    if len(points) == 1:
        return dict(params, **points[0])
    rng = np.random.default_rng(seed)
    n_folds = int(min(5, np.sum(y > 0), np.sum(y < 0)))
    if n_folds < 2:
        return dict(params, **points[0])
    folds = stratified_folds(y, n_folds, rng)
    best_f1, best_point = -1.0, points[0]
    for point in points:
        candidate = dict(params, **point)
        scores = []
        for test_idx in folds:
            mask = np.ones(len(y), dtype=bool)
            mask[test_idx] = False
            if len(np.unique(y[mask])) < 2 or len(test_idx) == 0:
                continue
            model = shallow_fit(X[mask], y[mask], kind, candidate, seed=seed)
            proba = shallow_predict_proba(model, X[test_idx])
            pred = np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0)
            scores.append(f1_score(pred, y[test_idx]))
        mean = float(np.mean(scores)) if scores else -1.0
        if mean > best_f1 + 1e-12:
            best_f1, best_point = mean, candidate
    return dict(params, **best_point) if best_point else dict(params)


def _fit_predict(train: FeatureMatrix, test: FeatureMatrix, spec: ModelSpec, seed: int):
    """Returns posterior pairs (High, Low) for the test items."""
    params = dict(spec.params)
    if spec.kind in DEFAULT_GRIDS and spec.grid:
        params = _inner_grid_search(train.X, train.y_signs(), spec.kind, params, spec.grid, seed)
    model = fit_model(spec.kind, train, params, seed)
    return predict_proba(spec.kind, model, test)


def cross_validate(
    features: FeatureMatrix,
    spec: ModelSpec,
    reps: int = 10,
    folds: int = 5,
    seed: int = 0,
    setting: dict | None = None,
) -> CvReport:
    """Repeated stratified k-fold evaluation; F1 per (repetition, fold).

    Reproducible for a fixed seed.
    """
    y = features.y_signs()
    n_pos, n_neg = int(np.sum(y > 0)), int(np.sum(y < 0))
    if min(n_pos, n_neg) < folds:
        raise InsufficientClassCountError(
            f"need at least {folds} items per class, have {n_pos} positive / {n_neg} negative"
        )
    setting = dict(setting or {})
    setting.setdefault("model", spec.kind)

    rows = []
    # Out-of-fold posteriors from the first repetition, for downstream fusion.
    oof = np.zeros((features.n_items, 2))
    for rep, seq in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        rng = np.random.default_rng(seq)
        fold_sets = stratified_folds(y, folds, rng)
        inner_seeds = rng.integers(0, 2**31 - 1, size=folds)
        for fold, test_idx in enumerate(fold_sets):
            mask = np.ones(features.n_items, dtype=bool)
            mask[test_idx] = False
            test = features.subset(test_idx)
            proba = _fit_predict(features.subset(np.flatnonzero(mask)), test, spec, int(inner_seeds[fold]))
            pred = np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0)
            rows.append((rep, fold, f1_score(pred, test.y_signs())))
            if rep == 0:
                oof[test_idx] = proba
    values = np.array([f1 for _, _, f1 in rows])
    return CvReport(
        setting=setting,
        rows=rows,
        mean=float(values.mean()),
        std=float(values.std()),
        oof_posteriors=oof,
    )


# ------------------------------------------------------------------ fusion

@dataclass
class FusionResult:
    alpha: tuple[float, float]
    weights: tuple[float, float]  # t_i = alpha_i F_i / sum alpha_i F_i
    posteriors: np.ndarray        # combined scores per class (not renormalized)
    labels: np.ndarray            # +1/-1
    tuning_f1: float


def _fused_labels_for_grid(alphas, d1, d2, f1_train, f2_train):
    """Sign of the fused High-minus-Low score for every grid point."""
    a1 = alphas[:, 0]
    a2 = alphas[:, 1]
    denom = a1 * f1_train + a2 * f2_train
    c1 = a1 * (a1 * f1_train) / denom
    c2 = a2 * (a2 * f2_train) / denom
    return c1[:, None] * d1[None, :] + c2[:, None] * d2[None, :]


def west_fuse(
    p1: np.ndarray,
    p2: np.ndarray,
    f1_train: float,
    f2_train: float,
    truth=None,
    alphas: tuple[float, float] | None = None,
    grid_step: float = 0.01,
    mode: str = "joint",
) -> FusionResult:
    """Weighted decision fusion of two posterior streams.

    P_j = sum_i alpha_i t_i p_ij with t_i = alpha_i F_i / sum_i alpha_i F_i.
    With `alphas` given the weights are fixed; otherwise a grid search over
    alpha in [0,1]^2 (or alpha2 = 1 - alpha1 when mode="convex") picks the
    pair maximizing F1 against `truth`, breaking ties toward the smallest
    (alpha1, alpha2) lexicographically. Grid points where both effective
    weights vanish are skipped.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape or p1.ndim != 2 or p1.shape[1] != 2:
        raise MisalignedItemsError("posterior arrays must share one items x 2 shape")
    if not (0.0 <= f1_train <= 1.0 and 0.0 <= f2_train <= 1.0):
        raise ValueError("training F1 weights must lie in [0, 1]")
    if mode not in ("joint", "convex"):
        raise ValueError(f"unknown mode {mode!r}")

    def fuse_at(a1, a2):
        denom = a1 * f1_train + a2 * f2_train
        if denom <= 0.0:
            raise ValueError("sum of alpha_i * F_i must be positive")
        t1 = a1 * f1_train / denom
        t2 = a2 * f2_train / denom
        posts = a1 * t1 * p1 + a2 * t2 * p2
        labels = np.where(posts[:, 0] > posts[:, 1], 1.0, -1.0)
        return (t1, t2), posts, labels

    if alphas is not None:
        weights, posts, labels = fuse_at(*alphas)
        tuning = f1_score(labels, truth) if truth is not None else float("nan")
        return FusionResult(tuple(alphas), weights, posts, labels, tuning)

    if truth is None:
        raise ValueError("grid search needs tuning-set truth labels")
    truth_signs = _as_signs(truth)

    n_steps = int(round(1.0 / grid_step))
    values = np.arange(n_steps + 1) * grid_step
    if mode == "joint":
        grid = np.array([(a1, a2) for a1 in values for a2 in values])
    else:
        grid = np.column_stack([values, 1.0 - values])
    keep = grid[:, 0] * f1_train + grid[:, 1] * f2_train > 0.0
    grid = grid[keep]
    if not len(grid):
        raise ValueError("every grid point zeroes the fusion weights")

    d1 = p1[:, 0] - p1[:, 1]
    d2 = p2[:, 0] - p2[:, 1]
    scores = _fused_labels_for_grid(grid, d1, d2, f1_train, f2_train)
    labels_grid = np.where(scores > 0.0, 1.0, -1.0)
    pos_truth = truth_signs == 1.0
    tp = (labels_grid[:, pos_truth] == 1.0).sum(axis=1).astype(float)
    fp = (labels_grid[:, ~pos_truth] == 1.0).sum(axis=1).astype(float)
    fn = float(pos_truth.sum()) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1s = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    best = int(np.argmax(f1s))  # grid is lexicographically ordered; first wins ties
    a1, a2 = grid[best]
    weights, posts, labels = fuse_at(float(a1), float(a2))
    return FusionResult((float(a1), float(a2)), weights, posts, labels, float(f1s[best]))


def ad_level_score(segment_posteriors) -> float:
    """Mean positive-class (High) posterior over an ad's segments."""
    arr = np.asarray(segment_posteriors, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one segment posterior")
    if arr.ndim == 2:
        arr = arr[:, 0]
    return float(arr.mean())
