"""Sparse graph-regularized multi-task learning.

Jointly fits one weight column per task by minimizing

    sum_t ||X_t W_t + c_t - Y_t||^2 + alpha ||W R||_F^2
        + beta ||W||_1 + gamma ||W||_F^2

where R is the incidence matrix of the task-relatedness graph (column
e_i - e_j per related pair), so ||W R||_F^2 = sum_edges ||W_i - W_j||^2.
The smooth part is a function of the stacked unknowns
v = [W_0; ...; W_{T-1}; c] (`_smooth_part`): the loss is one least-squares
term ||A v - b||^2, A block diagonal over the tasks' items, and the graph
and ridge terms act on the W block. Minimization uses a monotone
accelerated proximal-gradient scheme with backtracking (Beck & Teboulle
2009) on v, soft-thresholding the W block for the l1 term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import ALL_QUADRANTS, Quadrant, check_real
from .shallow import logistic


class EmptyTaskError(ValueError):
    """A task arrived with no training items."""


@dataclass
class TaskGraph:
    tasks: list[Quadrant]
    edges: list[tuple[int, int]]
    incidence: np.ndarray  # T x E, column (e_i - e_j) per edge

    def task_index(self, quadrant: Quadrant) -> int:
        return self.tasks.index(quadrant)


def build_task_graph(quadrants=ALL_QUADRANTS) -> TaskGraph:
    """Relate every pair of quadrants sharing an arousal or valence level."""
    tasks = list(quadrants)
    if len(tasks) != 4 or len(set(tasks)) != 4:
        raise ValueError("expected the 4 distinct quadrants")
    edges = [
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if tasks[i].related_to(tasks[j])
    ]
    incidence = np.zeros((4, len(edges)))
    for e, (i, j) in enumerate(edges):
        incidence[i, e] = 1.0
        incidence[j, e] = -1.0
    return TaskGraph(tasks=tasks, edges=edges, incidence=incidence)


@dataclass
class MtlModel:
    W: np.ndarray                 # dims x T
    bias: np.ndarray              # T
    graph: TaskGraph
    alpha: float
    beta: float
    gamma: float
    objective_history: list[float] = field(default_factory=list)
    fit_intercept: bool = False

    @property
    def n_dims(self) -> int:
        return self.W.shape[0]

    def to_dict(self) -> dict:
        """The fields a model file stores (not `objective_history`); arrays stay arrays."""
        return {
            "kind": "mtl",
            "hyperparams": {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                            "fit_intercept": self.fit_intercept},
            "tasks": [t.code for t in self.graph.tasks],
            "edges": self.graph.edges,
            "W": self.W,
            "bias": self.bias,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MtlModel":
        graph = build_task_graph([Quadrant.from_code(c) for c in doc["tasks"]])
        if [tuple(e) for e in doc["edges"]] != graph.edges:
            raise ValueError(f"mtl model edges {doc['edges']} differ from the task graph's {graph.edges}")
        hyper = doc["hyperparams"]
        return cls(W=np.asarray(doc["W"], dtype=float), bias=np.asarray(doc["bias"], dtype=float), graph=graph,
                   alpha=float(hyper["alpha"]), beta=float(hyper["beta"]), gamma=float(hyper["gamma"]),
                   fit_intercept=bool(hyper.get("fit_intercept", False)))


def _smooth_part(Xs, Ys, alpha, gamma, R):
    """The smooth part of the objective as a function of the stacked unknowns
    v = [W[:, 0]; ...; W[:, T-1]; c].

    The loss is ||A v - b||^2 for the block-diagonal A whose block t is
    [X_t, 1] (acting on W_t and c_t) and b = [Y_0; ...; Y_{T-1}]. A is stored
    as its T blocks, each padded with zero rows to the largest task's n_max
    items (`live` masks the bias on the padding), so A v is one batched
    product and storage is T n_max d, the data's size when the tasks are
    balanced. The graph and ridge terms act on the W block viewed as
    W' = v[:T d].reshape(T, d). Returns smooth(v, grad=False), which gives the
    value, or (value, gradient) with grad=True.
    """
    T, d = len(Xs), Xs[0].shape[1]
    n_w = T * d
    n_max = max(X.shape[0] for X in Xs)
    X3 = np.zeros((T, n_max, d))
    Y3 = np.zeros((T, n_max))
    live = np.zeros((T, n_max))
    for t, (X, Y) in enumerate(zip(Xs, Ys)):
        X3[t, :len(X)] = X
        Y3[t, :len(X)] = Y
        live[t, :len(X)] = 1.0
    Q = 2.0 * (alpha * (R @ R.T) + gamma * np.eye(T))  # the penalties' gradient is Q W'

    def smooth(v, grad=False):
        Wt = v[:n_w].reshape(T, d)
        r = (X3 @ Wt[:, :, None]).reshape(T, n_max) + live * v[n_w:, None] - Y3
        WR = R.T @ Wt
        value = float(np.vdot(r, r)) + alpha * float(np.sum(WR * WR)) + gamma * float(np.sum(Wt * Wt))
        if not grad:
            return value
        gW = 2.0 * (r[:, None, :] @ X3).reshape(T, d) + Q @ Wt
        return value, np.concatenate([gW.reshape(-1), 2.0 * r.sum(axis=1)])

    return smooth


def mtl_objective(W, bias, Xs, Ys, alpha, beta, gamma, graph: TaskGraph) -> float:
    W = np.asarray(W, dtype=float)
    v = np.concatenate([W.T.reshape(-1), bias])
    return _smooth_part(Xs, Ys, alpha, gamma, graph.incidence)(v) + beta * float(np.sum(np.abs(W)))


def mtl_fit(
    Xs,
    Ys,
    alpha: float,
    beta: float,
    gamma: float,
    graph: TaskGraph,
    fit_intercept: bool = False,
    tol: float = 1e-6,
    max_iter: int = 10000,
) -> MtlModel:
    """Fit the joint weight matrix; Xs/Ys are per-task (n_t x d, n_t) pairs
    ordered like graph.tasks.

    Terminates when an accepted iterate changes the objective by at most
    `tol` relative to the previous one, or after `max_iter` iterations.
    That is a stall test, not an optimality test: a fit can stop above the
    minimum by more than `tol`. The recorded objective history is
    nonincreasing (monotone accelerated scheme with backtracking).
    """
    if len(Xs) != len(graph.tasks) or len(Ys) != len(Xs):
        raise ValueError("need one (X, Y) pair per task")
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    Ys = [np.asarray(Y, dtype=float).reshape(-1) for Y in Ys]
    for t, (X, Y) in enumerate(zip(Xs, Ys)):
        if X.ndim != 2 or X.shape[0] == 0:
            raise EmptyTaskError(f"task {graph.tasks[t]} has no training items")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"task {graph.tasks[t]}: X and Y row counts differ")
    d = Xs[0].shape[1]
    if any(X.shape[1] != d for X in Xs):
        raise ValueError("all tasks must share one feature dimensionality")
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("tol", tol)):
        check_real(f"mtl {name}", value, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
    check_real("mtl max_iter", max_iter, lambda v: isinstance(v, (int, np.integer)) and v >= 1, "an integer >= 1")
    if not isinstance(fit_intercept, bool):
        raise ValueError(f"mtl fit_intercept must be true or false, got {fit_intercept!r}")
    T = len(Xs)
    smooth = _smooth_part(Xs, Ys, alpha, gamma, graph.incidence)
    n_w = T * d  # v[:n_w] is the W block, v[n_w:] the biases

    # Monotone FISTA: accelerate through a search point y but never accept
    # an iterate whose objective exceeds the previous one.
    x = x_old = y = np.zeros(n_w + T)
    t_momentum = 1.0
    L = 1.0
    history = [smooth(x)]

    for _ in range(max_iter):
        f_y, g = smooth(y, grad=True)
        if not fit_intercept:
            g[n_w:] = 0.0
        while True:
            z = y - g / L
            z[:n_w] = np.sign(z[:n_w]) * np.maximum(np.abs(z[:n_w]) - beta / L, 0.0)
            step = z - y
            quad = f_y + float(step @ g) + 0.5 * L * float(step @ step)
            f_z = smooth(z)
            if f_z <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            L *= 2.0
        f_z += beta * float(np.sum(np.abs(z[:n_w])))
        x_old = x
        accepted = f_z <= history[-1]
        if accepted:
            x = z
        history.append(f_z if accepted else history[-1])

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        y = x + (t_momentum / t_next) * (z - x) + ((t_momentum - 1.0) / t_next) * (x - x_old)
        t_momentum = t_next

        if accepted and abs(history[-2] - history[-1]) <= tol * max(abs(history[-2]), 1e-12):
            break

    return MtlModel(
        W=np.ascontiguousarray(x[:n_w].reshape(T, d).T),
        bias=x[n_w:].copy(),
        graph=graph,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        objective_history=history,
        fit_intercept=fit_intercept,
    )


def mtl_scores(model: MtlModel, X) -> np.ndarray:
    """Per-task decision scores, items x T."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_dims:
        raise ValueError(f"expected {model.n_dims} dims, got {X.shape[1]}")
    return X @ model.W + model.bias


def mtl_predict(model: MtlModel, x, task: Quadrant | None = None):
    """Predict one item's High/Low sign and confidence.

    With a known task the score is W_t'x + b_t; with task=None every task
    is scored and the maximum-|score| task decides. Returns
    (+1/-1, confidence) where confidence is the logistic squash of the
    winning score (0.5 at a zero score, which maps to Low).
    """
    scores = mtl_scores(model, x)[0]
    if task is not None:
        s = float(scores[model.graph.task_index(task)])
    else:
        s = float(scores[int(np.argmax(np.abs(scores)))])
    label = 1.0 if s > 0 else -1.0
    p_high = float(logistic(s))
    confidence = p_high if label > 0 else 1.0 - p_high
    return label, confidence


def mtl_predict_proba(model: MtlModel, X, tasks) -> np.ndarray:
    """Posterior pairs (High, Low) for items with known task ids."""
    scores = mtl_scores(model, X)
    idx = [model.graph.task_index(t) for t in tasks]
    s = scores[np.arange(len(idx)), idx]
    p_high = logistic(s)
    return np.column_stack([p_high, 1.0 - p_high])
