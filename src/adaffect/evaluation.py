"""Evaluation harness: F1, repeated stratified cross-validation with inner
hyperparameter search, weighted decision fusion of two posterior streams,
and ad-level score aggregation.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import MODEL_KINDS
from .core import AffectLabel, FeatureMatrix, check_real, stratified_splits
from .learners import cnn, mtl, shallow
from .learners.cnn import CnnConfig, cnn_predict_proba, cnn_train
from .learners.mtl import build_task_graph, mtl_fit, mtl_predict_proba
from .learners.shallow import (DEFAULT_GRIDS, DEFAULT_HYPERPARAMS, SHALLOW_KINDS, shallow_fit,
                               shallow_predict_proba)

#: mtl_fit's regularizer weights and solver limits; model params override them key by key.
MTL_DEFAULTS = {"alpha": 1.0, "beta": 0.01, "gamma": 0.1, "fit_intercept": True, "tol": 1e-6, "max_iter": 10000}


class InsufficientClassCountError(ValueError):
    """Fewer items in a class than folds."""


class MisalignedItemsError(ValueError):
    """Fusion inputs do not describe the same items."""


def f1_score(pred, truth) -> float:
    """Harmonic mean of precision and recall of the High class; 0 when both
    are undefined.

    pred/truth may be AffectLabel sequences or +1/-1 sign arrays.
    """
    pred = _as_signs(pred)
    truth = _as_signs(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    return float(_f1_rows(pred == 1.0, truth == 1.0))


def _f1_rows(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """F1 of each row of boolean positive-class predictions (..., items)
    against boolean truth (items,)."""
    tp = np.count_nonzero(pred & truth, axis=-1)
    fp = np.count_nonzero(pred & ~truth, axis=-1)
    fn = np.count_nonzero(truth) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        return np.where(precision + recall > 0, 2.0 * precision * recall / (precision + recall), 0.0)


def _as_signs(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.dtype == object or (arr.size and isinstance(arr.reshape(-1)[0], AffectLabel)):
        return np.array([lab.sign for lab in arr.reshape(-1)])
    return arr.astype(float).reshape(-1)


# ------------------------------------------------------------ model kinds
# Each kind's learners are looked up in this module's globals at call time,
# so a caller that replaces `evaluation.shallow_fit` (or another learner
# name) sees every fit and prediction made here. A worker process imports
# this code afresh and cannot see such a replacement, so one rule
# (`_stages_away`) places each fold unit from the names, at import, of this
# module and of the learner modules:
# - the unit stays here when a name of `learners.shallow` or of its kind's
#   learner module has changed, or a name of this module other than a
#   learner name (a function or class imported from a learner module), even
#   one no unit reaches (`west_fuse`): that costs time, never a byte;
# - when its own kind's learner name was replaced here, a shallow kind with
#   a grid sends its search alone to a worker, as the search solves through
#   `learners.shallow`, and other units stay here;
# - otherwise the whole unit goes: no stage looks up another kind's names.

def _fit_shallow(kind, features, params, seed):
    return shallow_fit(features.X, features.y_signs(), kind, params, seed=seed)


def _fit_mtl(features, params, seed):
    graph = build_task_graph()
    y = features.y_signs()
    Xs, Ys = [], []
    for quad in graph.tasks:
        # A quadrant with no items gives a (0, d) block, which mtl_fit rejects.
        idx = [i for i, q in enumerate(features.quadrants) if q == quad]
        Xs.append(features.X[idx])
        Ys.append(y[idx])
    return mtl_fit(Xs, Ys, graph=graph, **dict(MTL_DEFAULTS, **params))


def _fit_cnn(features, params, seed):
    return cnn_train(features.X, features.y_signs(), CnnConfig(**dict(params, seed=seed)))


#: kind -> (fit(features, params, seed), posteriors(model, features),
#: names of the kind's hyperparameters), one entry per MODEL_KINDS in its order.
#: Final fold models, and the inner search's mtl and cnn points, are fitted here.
_LEARNERS = {
    **{kind: (functools.partial(_fit_shallow, kind), lambda model, f: shallow_predict_proba(model, f.X),
              tuple(DEFAULT_HYPERPARAMS[kind])) for kind in SHALLOW_KINDS},
    "mtl": (_fit_mtl, lambda model, f: mtl_predict_proba(model, f.X, f.quadrants), tuple(MTL_DEFAULTS)),
    "cnn": (_fit_cnn, lambda model, f: cnn_predict_proba(model, f.X),
            tuple(c.name for c in fields(CnnConfig) if c.name != "seed")),
}


def fit_model(kind: str, features: FeatureMatrix, params: dict, seed: int):
    """Fit one model of `kind` on every item of `features`.

    `params` are the kind's hyperparameters (for mtl, overrides of
    MTL_DEFAULTS; for cnn, CnnConfig fields other than seed); `seed` drives
    any randomness. A name that is not a hyperparameter of `kind` is an error.
    """
    if kind not in _LEARNERS:
        raise ValueError(f"unknown model kind {kind!r}")
    _check_hyperparameter_names(kind, params)
    return _LEARNERS[kind][0](features, params, seed)


def _check_hyperparameter_names(kind: str, keys) -> None:
    names = _LEARNERS[kind][2]
    unknown = sorted(set(keys) - set(names))
    if unknown:
        raise ValueError(f"{kind} has no hyperparameter {', '.join(unknown)} (known: {', '.join(names)})")


def predict_proba(kind: str, model, features: FeatureMatrix) -> np.ndarray:
    """Posterior pairs (High, Low) of a fitted `kind` model on `features`."""
    return _LEARNERS[kind][1](model, features)


@dataclass
class ModelSpec:
    """What to train inside each CV fold.

    `params` are fixed hyperparameters; `grid` maps a hyperparameter name
    to a list or tuple of candidate values searched by inner 5-fold CV (the SVMs
    default to DEFAULT_GRIDS less the keys `params` fixes). A key of either
    that is not a hyperparameter of `kind`, or a key of both, is an error
    here, before any fit.
    """

    kind: str
    params: dict = field(default_factory=dict)
    grid: dict | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        _check_hyperparameter_names(self.kind, [*self.params, *(self.grid or {})])
        for key, values in (self.grid or {}).items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{self.kind} grid {key} must be a list or tuple of values, got {values!r}")
            if len(values) == 0:
                raise ValueError(f"{self.kind} grid {key} has no values")
        both = sorted(set(self.params) & set(self.grid or {}))
        if both:
            raise ValueError(f"{self.kind} {', '.join(both)} is both fixed by params and searched by the grid")
        if self.grid is None and self.kind in DEFAULT_GRIDS:
            self.grid = {k: list(v) for k, v in DEFAULT_GRIDS[self.kind].items() if k not in self.params}


@dataclass
class CvReport:
    rows: list[tuple[int, int, float]]  # (run/repetition, fold, f1)
    mean: float
    std: float
    oof_posteriors: np.ndarray | None = None  # first-repetition out-of-fold (High, Low)
    # Final fold models whose own SMO solve or any calibration solve stopped short of the KKT tolerance.
    unconverged_fits: int = 0


def _inner_grid_search(train: FeatureMatrix, spec: ModelSpec, seed: int) -> dict:
    """Pick the spec's params plus the grid point with the best mean F1
    over an inner 5-fold split of `train` (the first point wins ties).

    LDA and SVM points are ranked by the sign of their uncalibrated
    decision value (`learners.shallow` schedules their solves), other
    kinds by their posterior argmax. Grid points are scored in order, and
    the search stops after the first one that scores F1 1 on every split:
    a later point would need a mean above it by 1e-12, and no F1 exceeds 1.
    """
    names = sorted(spec.grid)
    candidates = [dict(spec.params, **dict(zip(names, values)))
                  for values in itertools.product(*(spec.grid[k] for k in names))]
    y = train.y_signs()
    n_folds = int(min(5, np.sum(y > 0), np.sum(y < 0)))
    if len(candidates) == 1 or n_folds < 2:
        return candidates[0]
    # Each class holds at least n_folds items, so every split has items on
    # its test side and both classes on its training side.
    splits = [(train.subset(fit_idx), train.subset(test_idx))
              for fit_idx, test_idx in stratified_splits(y, n_folds, np.random.default_rng(seed))]
    kind = spec.kind
    if kind in SHALLOW_KINDS:
        models = shallow._grid_models([(fit_set.X, fit_set.y_signs()) for fit_set, _ in splits], kind, candidates)
        points = ([np.where(model.decision_values(test_set.X) > 0.0, 1.0, -1.0)
                   for model, (_, test_set) in zip(point, splits)] for point in models)
    else:
        points = ([_argmax_signs(predict_proba(kind, fit_model(kind, fit_set, candidate, seed), test_set))
                   for fit_set, test_set in splits] for candidate in candidates)
    truths = [test_set.y_signs() for _, test_set in splits]
    best_f1, best = -1.0, candidates[0]
    for candidate, labels in zip(candidates, points):
        f1s = np.array([f1_score(pred, truth) for pred, truth in zip(labels, truths)])
        mean = f1s.mean()
        if mean > best_f1 + 1e-12:
            best_f1, best = float(mean), candidate
        if np.all(f1s == 1.0):
            break
    return best


def _argmax_signs(proba: np.ndarray) -> np.ndarray:
    """+1 where the High posterior beats the Low one, else -1."""
    return np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0)


def fold_plan(y_signs: np.ndarray, reps: int, folds: int, seed: int) -> list[tuple]:
    """(rep, fold, training indices, test indices, inner seed) per outer fold,
    in report order. Each rep draws its stratified folds, then one inner seed
    per fold, from its own SeedSequence(seed) child; no other CV step draws."""
    if reps < 1 or folds < 2:
        raise ValueError(f"need reps >= 1 and folds >= 2, got reps={reps}, folds={folds}")
    n_pos, n_neg = int(np.sum(y_signs > 0)), int(np.sum(y_signs < 0))
    if min(n_pos, n_neg) < folds:
        raise InsufficientClassCountError(f"need at least {folds} items per class, "
                                          f"have {n_pos} positive / {n_neg} negative")
    plan = []
    for rep, seq in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        rng = np.random.default_rng(seq)
        splits = stratified_splits(y_signs, folds, rng)
        plan += [(rep, fold, *split, int(inner_seed))
                 for fold, (split, inner_seed) in enumerate(zip(splits, rng.integers(0, 2**31 - 1, size=folds)))]
    return plan


def _unit_params(features: FeatureMatrix, spec: ModelSpec, unit: tuple) -> dict:
    """The params of one plan unit's final fit: the inner search's pick on
    its training side, or the spec's params when there is no grid."""
    _, _, train_idx, _, inner_seed = unit
    return _inner_grid_search(features.subset(train_idx), spec, inner_seed) if spec.grid else dict(spec.params)


def _fit_unit(features: FeatureMatrix, spec: ModelSpec, unit: tuple, params: dict | None = None
              ) -> tuple[np.ndarray, bool]:
    """The test-side posteriors of the model `spec` fits on one plan unit with
    `params` (by default `_unit_params`'s), and whether that fit stopped short
    of its solver tolerance."""
    _, _, train_idx, test_idx, inner_seed = unit
    if params is None:
        params = _unit_params(features, spec, unit)
    model = fit_model(spec.kind, features.subset(train_idx), params, inner_seed)
    return predict_proba(spec.kind, model, features.subset(test_idx)), any(shallow.unconverged_solves(model))


def cross_validate(
    features: FeatureMatrix,
    spec: ModelSpec,
    reps: int = 10,
    folds: int = 5,
    seed: int = 0,
) -> CvReport:
    """Repeated stratified k-fold evaluation; F1 per (repetition, fold).

    Reproducible for a fixed seed; the outer folds are `fold_plan`'s.
    """
    y = features.y_signs()
    plan = fold_plan(y, reps, folds, seed)
    fitted = _fit_units(features, spec, plan)
    rows, oof = [], np.zeros((features.n_items, 2))
    for (rep, fold, _, test_idx, _), (proba, _) in zip(plan, fitted):
        rows.append((rep, fold, f1_score(_argmax_signs(proba), y[test_idx])))
        if rep == 0:
            oof[test_idx] = proba
    values = np.array([f1 for _, _, f1 in rows])
    return CvReport(rows=rows, mean=float(values.mean()), std=float(values.std()), oof_posteriors=oof,
                    unconverged_fits=sum(unconverged for _, unconverged in fitted))


#: Seconds of fold-unit stages that workers could have taken which this
#: process runs itself before it starts workers, about what starting two
#: spawned workers costs; no value changes a result.
_POOL_AFTER_S = 1.0
_portable_fit_s = 0.0  # such seconds spent so far


def _worker_count() -> int:
    """CPUs this process may run on: the number of workers."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fit_units(features: FeatureMatrix, spec: ModelSpec, plan: list[tuple]) -> list[tuple[np.ndarray, bool]]:
    """_fit_unit of each plan unit, in plan order.

    A unit has two stages: the inner search (`_unit_params`), then the
    final fit. With at least 2 units and 2 CPUs, `_stages_away` places
    them: a unit stays here when a name of this module, of
    `learners.shallow` or of its kind's learner module has changed since
    import, even one no unit reaches, such as `west_fuse`; but a shallow
    kind with a grid whose own learner name was replaced here sends its
    search alone, and another kind's learner name is passed over.
    Otherwise the whole unit goes. Such stages run here until this process
    has spent _POOL_AFTER_S on them; then each remaining unit goes to
    `_workers.run` once, one worker per CPU, and when only the searches
    go, this process fits the final models in plan order meanwhile.
    """
    global _portable_fit_s
    workers = _worker_count()
    away = _stages_away(spec.kind, spec.grid) if workers > 1 and len(plan) > 1 else 0
    fitted = []
    for unit in plan:
        if away and _portable_fit_s >= _POOL_AFTER_S and len(plan) - len(fitted) > 1:
            break
        start = time.perf_counter()
        params = _unit_params(features, spec, unit)
        searched = time.perf_counter()
        fitted.append(_fit_unit(features, spec, unit, params))
        if away:
            _portable_fit_s += (time.perf_counter() if away == 2 else searched) - start
    else:
        return fitted
    from . import _workers

    rest = plan[len(fitted):]
    results = _workers.run(_fit_unit if away == 2 else _unit_params, [(features, spec, unit) for unit in rest], workers)
    try:
        for unit, result in zip(rest, results):
            fitted.append(result if away == 2 else _fit_unit(features, spec, unit, result))
    finally:
        results.close()
    return fitted


def _stages_away(kind: str, grid: dict | None) -> int:
    """How many stages of each `kind` unit searched over `grid` may run in a
    worker, which sees every name as `_AS_IMPORTED` holds it: 2, the whole
    unit; 1, the search alone; 0, none (the rule above `_fit_shallow`)."""
    own = shallow if kind in SHALLOW_KINDS else {"mtl": mtl, "cnn": cnn}[kind]
    away = 2
    for module, as_imported in _AS_IMPORTED:
        namespace = vars(module)
        for name, value in as_imported.items():
            if namespace.get(name, _AS_IMPORTED) is value:
                continue
            if module is shallow or module is own:
                return 0
            if module.__name__ != __name__:
                continue  # another kind's learner module, which no stage of this unit reaches
            home = sys.modules.get(getattr(value, "__module__", None))  # a learner name's module
            if home is own and own is shallow and grid:
                away = 1
            elif home is own or home not in (shallow, mtl, cnn):
                return 0
    return away


# ------------------------------------------------------------------ fusion

#: Fused scores alive at once in west_fuse's grid search; no value changes a result.
_FUSION_BLOCK = 2**16


@dataclass
class FusionResult:
    alpha: tuple[float, float]
    weights: tuple[float, float]  # t_i = alpha_i F_i / sum alpha_i F_i
    posteriors: np.ndarray        # combined scores per class (not renormalized)
    labels: np.ndarray            # +1/-1
    tuning_f1: float


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
    alpha in [0,1]^2, each alpha_i taking the multiples of `grid_step` (a
    number in (0, 1]) below 1 and then 1 (or alpha2 = 1 - alpha1 when
    mode="convex"), picks the pair maximizing F1 against `truth`, breaking
    ties toward the smallest (alpha1, alpha2) lexicographically. Grid points where both effective
    weights vanish are skipped. The labels are the sign of the fused
    High-minus-Low score that the grid scores, so `tuning_f1` is their F1.
    The search takes O(grid x items) time, and its memory does not grow
    with the grid size. There must be at least one item, posteriors must
    be finite and in [0, 1], and `truth` must label every item.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape or p1.ndim != 2 or p1.shape[1] != 2:
        raise MisalignedItemsError("posterior arrays must share one items x 2 shape")
    if len(p1) == 0:
        raise ValueError("fusion needs at least one item")
    for name, p in (("p1", p1), ("p2", p2)):
        if not np.isfinite(p).all():
            raise ValueError(f"posterior stream {name} holds a non-finite value")
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise ValueError(f"posterior stream {name} holds a value outside [0, 1]")
    if not (0.0 <= f1_train <= 1.0 and 0.0 <= f2_train <= 1.0):
        raise ValueError("training F1 weights must lie in [0, 1]")
    if mode not in ("joint", "convex"):
        raise ValueError(f"unknown mode {mode!r}")
    check_real("grid_step", grid_step, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
    if truth is not None:
        truth = _as_signs(truth) == 1.0
        if len(truth) != len(p1):
            raise MisalignedItemsError(f"truth has {len(truth)} labels for {len(p1)} items")

    if alphas is not None:
        grid = np.array([alphas], dtype=float)
    elif truth is None:
        raise ValueError("grid search needs tuning-set truth labels")
    else:
        # k * grid_step below 1, then 1 itself, so both endpoints are tried.
        values = np.append(np.arange(int(np.ceil(1.0 / grid_step - 1e-9))) * grid_step, 1.0)
        if mode == "joint":
            grid = np.column_stack([np.repeat(values, len(values)), np.tile(values, len(values))])
        else:
            grid = np.column_stack([values, 1.0 - values])
    weighted = grid * np.array([f1_train, f2_train])  # alpha_i F_i
    denom = weighted[:, 0] + weighted[:, 1]
    keep = denom > 0.0
    if not keep.any():
        raise ValueError("sum of alpha_i * F_i must be positive" if alphas is not None
                         else "every grid point zeroes the fusion weights")
    grid, weights = grid[keep], weighted[keep] / denom[keep, None]
    coef = grid * weights  # alpha_i t_i
    d1, d2 = p1[:, 0] - p1[:, 1], p2[:, 0] - p2[:, 1]

    def high(rows):  # High labels of grid rows `rows`, one row per grid point
        return coef[rows, :1] * d1 + coef[rows, 1:] * d2 > 0.0

    best, tuning = 0, float("nan")
    if truth is not None:
        block = max(1, _FUSION_BLOCK // max(1, len(d1)))
        f1s = np.concatenate([_f1_rows(high(slice(r, r + block)), truth) for r in range(0, len(coef), block)])
        best = int(np.argmax(f1s))  # grid is lexicographically ordered; first wins ties
        tuning = float(f1s[best])
    c1, c2 = coef[best]
    return FusionResult(tuple(map(float, grid[best])), tuple(map(float, weights[best])),
                        c1 * p1 + c2 * p2, np.where(high(slice(best, best + 1))[0], 1.0, -1.0), tuning)


def ad_level_score(segment_posteriors) -> float:
    """Mean positive-class (High) posterior over an ad's segments."""
    arr = np.asarray(segment_posteriors, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one segment posterior")
    if arr.ndim == 2:
        arr = arr[:, 0]
    return float(arr.mean())


#: (module, {name: value at import}) of this module, once its last name is
#: bound, and of each learner module; the pool's own settings and counter,
#: which change no result, are left out.
_AS_IMPORTED = tuple((module, {name: value for name, value in vars(module).items() if not name.startswith("__")
                               and name not in ("_POOL_AFTER_S", "_portable_fit_s", "_worker_count")})
                     for module in (sys.modules[__name__], shallow, mtl, cnn))
