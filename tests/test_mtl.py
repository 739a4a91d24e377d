import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _ref_smooth_value, reference_mtl_fit

from adaffect.core import ALL_QUADRANTS, Quadrant
from adaffect.learners.mtl import (
    EmptyTaskError,
    build_task_graph,
    mtl_fit,
    mtl_objective,
    mtl_predict,
    mtl_predict_proba,
)


class TestTaskGraph:
    def test_four_related_pairs(self):
        g = build_task_graph()
        codes = {frozenset((g.tasks[i].code, g.tasks[j].code)) for i, j in g.edges}
        assert codes == {
            frozenset(("HH", "HL")),
            frozenset(("HH", "LH")),
            frozenset(("LL", "HL")),
            frozenset(("LL", "LH")),
        }

    def test_diagonal_pairs_unrelated(self):
        g = build_task_graph()
        codes = {frozenset((g.tasks[i].code, g.tasks[j].code)) for i, j in g.edges}
        assert frozenset(("HH", "LL")) not in codes
        assert frozenset(("HL", "LH")) not in codes

    def test_incidence_columns(self):
        g = build_task_graph()
        for e, (i, j) in enumerate(g.edges):
            col = g.incidence[:, e]
            assert col[i] == 1.0 and col[j] == -1.0
            assert np.count_nonzero(col) == 2

    def test_graph_penalty_is_pairwise_distance(self):
        g = build_task_graph()
        rng = np.random.default_rng(0)
        W = rng.normal(size=(6, 4))
        penalty = np.sum((W @ g.incidence) ** 2)
        direct = sum(np.sum((W[:, i] - W[:, j]) ** 2) for i, j in g.edges)
        assert penalty == pytest.approx(direct)


def single_task_graph_data(rng, n=12, d=4):
    """Consistent per-task linear systems: Y = X w_t exactly."""
    Xs, Ys, ws = [], [], []
    for _ in range(4):
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        Xs.append(X)
        Ys.append(X @ w)
        ws.append(w)
    return Xs, Ys, ws


class TestMtlFit:
    def test_uncoupled_reduces_to_least_squares(self):
        rng = np.random.default_rng(1)
        g = build_task_graph()
        Xs, Ys, ws = single_task_graph_data(rng)
        model = mtl_fit(Xs, Ys, 0.0, 0.0, 0.0, g, tol=1e-14, max_iter=20000)
        for t in range(4):
            residual = np.linalg.norm(Xs[t] @ model.W[:, t] - Ys[t])
            assert residual <= 1e-6

    def test_one_dimensional_prox_case(self):
        g = build_task_graph()
        Xs = [np.array([[1.0]])] * 4
        Ys = [np.array([1.0])] * 4
        model = mtl_fit(Xs, Ys, 0.0, 1.0, 0.0, g, tol=1e-14)
        assert abs(model.W[0, 0] - 0.5) <= 1e-9

    def test_huge_graph_weight_forces_equal_columns(self):
        rng = np.random.default_rng(2)
        g = build_task_graph()
        X = rng.normal(size=(20, 5))
        w = rng.normal(size=5)
        Y = X @ w
        model = mtl_fit([X] * 4, [Y] * 4, 1e6, 0.0, 0.0, g, tol=1e-14, max_iter=20000)
        for i, j in g.edges:
            assert np.linalg.norm(model.W[:, i] - model.W[:, j]) <= 1e-3

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(3)
        g = build_task_graph()
        for trial in range(10):
            Xs = [rng.normal(size=(8, 6)) for _ in range(4)]
            Ys = [np.sign(rng.normal(size=8)) for _ in range(4)]
            model = mtl_fit(Xs, Ys, 0.5, 0.05, 0.1, g)
            hist = np.array(model.objective_history)
            assert np.all(np.diff(hist) <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))

    def test_l1_produces_exact_zeros_on_noise_dims(self):
        rng = np.random.default_rng(4)
        g = build_task_graph()
        n, d = 40, 10
        w_true = np.zeros(d)
        w_true[:2] = (2.0, -1.5)  # informative dims; the rest are noise
        Xs, Ys = [], []
        for _ in range(4):
            X = rng.normal(size=(n, d))
            Ys.append(X @ w_true + 0.01 * rng.normal(size=n))
            Xs.append(X)
        model = mtl_fit(Xs, Ys, 0.0, 5.0, 0.0, g, tol=1e-12)
        assert np.sum(model.W == 0.0) >= 1

    def test_empty_task_error(self):
        g = build_task_graph()
        with pytest.raises(EmptyTaskError):
            mtl_fit(
                [np.zeros((0, 3)), np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))],
                [np.zeros(0), np.ones(2), np.ones(2), np.ones(2)],
                0.0, 0.0, 0.0, g,
            )

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, 0, np.int64(0)])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, max_iter):
        rng = np.random.default_rng(0)
        Xs, Ys = [rng.normal(size=(5, 3)) for _ in range(4)], [rng.normal(size=5) for _ in range(4)]
        with pytest.raises(ValueError, match=r"^mtl max_iter must be an integer >= 1, got "):
            mtl_fit(Xs, Ys, 0.0, 0.0, 0.0, build_task_graph(), max_iter=max_iter)
        model = mtl_fit(Xs, Ys, 0.0, 0.0, 0.0, build_task_graph(), tol=0.0, max_iter=np.int64(2))
        assert len(model.objective_history) == 3

    def test_objective_helper_matches_history_tail(self):
        rng = np.random.default_rng(5)
        g = build_task_graph()
        Xs = [rng.normal(size=(10, 4)) for _ in range(4)]
        Ys = [np.sign(rng.normal(size=10)) for _ in range(4)]
        model = mtl_fit(Xs, Ys, 0.3, 0.2, 0.1, g)
        value = mtl_objective(model.W, model.bias, Xs, Ys, 0.3, 0.2, 0.1, g)
        assert value == pytest.approx(model.objective_history[-1], rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=4, max_size=4), d=st.integers(1, 8),
           regs=st.tuples(*[st.floats(0.0, 10.0)] * 3), with_bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_objective_is_its_definition(self, sizes, d, regs, with_bias, seed):
        # The block-diagonal ||A v - b||^2 plus the penalties against the per-task sums.
        rng = np.random.default_rng(seed)
        g = build_task_graph()
        alpha, beta, gamma = regs
        Xs = [rng.normal(size=(n, d)) for n in sizes]
        Ys = [np.sign(rng.normal(size=n)) for n in sizes]
        W = rng.normal(size=(d, 4))
        bias = rng.normal(size=4) if with_bias else np.zeros(4)
        value = mtl_objective(W, bias, Xs, Ys, alpha, beta, gamma, g)
        expected = _ref_smooth_value(W, bias, Xs, Ys, alpha, gamma, g.incidence) + beta * float(np.sum(np.abs(W)))
        assert abs(value - expected) <= 1e-13 * expected

    def test_wide_features_fit_in_memory_linear_in_the_data(self):
        # `preprocess-eeg --retain 0` writes ~5e4 dims for a few dozen items.
        # The fit's working memory must grow with n d, not with d^2 (a dense
        # graph or ridge operator on the T d weights would need d^2 T^2 floats:
        # 3.2 GB here).
        rng = np.random.default_rng(3)
        d = 5000
        Xs = [rng.normal(size=(n, d)) for n in (3, 4, 2, 3)]
        Ys = [np.sign(rng.normal(size=len(X))) for X in Xs]
        data_bytes = sum(X.nbytes for X in Xs)
        tracemalloc.start()
        try:
            model = mtl_fit(Xs, Ys, 1.0, 0.01, 0.1, build_task_graph(), fit_intercept=True, max_iter=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.W.shape == (d, 4)
        assert peak < 16 * data_bytes


class TestReferenceIdentity:
    """mtl_fit takes the iterations of the per-task loop kept in
    tests/oracles.py, with iterates equal up to summation order (one dot
    product over all of the stacked operator's rows against one per task)."""

    @pytest.mark.parametrize("fit_intercept, regs", itertools.product(
        (True, False), ((0.0, 0.0, 0.0), (1.0, 0.01, 0.1), (0.3, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.2))))
    def test_fit_matches_reference(self, fit_intercept, regs):
        rng = np.random.default_rng(11)
        g = build_task_graph()
        Xs = [rng.normal(size=(9, 6)) + 0.2 for _ in range(4)]
        Ys = [np.sign(rng.normal(size=9)) for _ in range(4)]
        model = mtl_fit(Xs, Ys, *regs, g, fit_intercept=fit_intercept, max_iter=3000)
        W, bias, history = reference_mtl_fit(Xs, Ys, *regs, g.incidence, fit_intercept=fit_intercept,
                                             max_iter=3000)
        assert len(model.objective_history) == len(history)
        np.testing.assert_allclose(model.objective_history, history, rtol=1e-13, atol=0.0)
        scale = 1e-13 * (1.0 + np.max(np.abs(W)))
        assert model.W.shape == W.shape
        assert np.max(np.abs(model.W - W)) <= scale
        assert np.max(np.abs(model.bias - bias)) <= scale

    def test_refit_is_byte_equal(self):
        rng = np.random.default_rng(12)
        g = build_task_graph()
        Xs = [rng.normal(size=(n, 5)) for n in (7, 3, 9, 5)]
        Ys = [np.sign(rng.normal(size=len(X))) for X in Xs]
        first, second = (mtl_fit(Xs, Ys, 0.7, 0.05, 0.3, g, fit_intercept=True) for _ in range(2))
        assert first.objective_history == second.objective_history
        assert first.W.tobytes() == second.W.tobytes()
        assert first.bias.tobytes() == second.bias.tobytes()


class TestMtlPredict:
    def fitted(self):
        rng = np.random.default_rng(6)
        g = build_task_graph()
        Xs = [rng.normal(size=(30, 5)) + 0.3 for _ in range(4)]
        Ys = [np.sign(X @ np.array([1.0, -0.5, 0.2, 0.0, 0.3])) for X in Xs]
        return mtl_fit(Xs, Ys, 0.1, 0.01, 0.05, g), g

    def test_known_task_sign_rule(self):
        model, g = self.fitted()
        x = np.ones(5)
        for task in ALL_QUADRANTS:
            score = float(x @ model.W[:, g.task_index(task)] + model.bias[g.task_index(task)])
            label, _ = mtl_predict(model, x, task)
            assert label == (1.0 if score > 0 else -1.0)

    def test_zero_model_ties_to_low(self):
        g = build_task_graph()
        model_zero = mtl_fit(
            [np.zeros((2, 3)) for _ in range(4)],
            [np.zeros(2) for _ in range(4)],
            0.0, 1.0, 0.0, g,
        )
        label, confidence = mtl_predict(model_zero, np.ones(3), ALL_QUADRANTS[0])
        assert label == -1.0
        assert confidence == pytest.approx(0.5)

    def test_unknown_task_max_magnitude(self):
        g = build_task_graph()
        W = np.array([[2.0, -1.0, 0.5, -0.2]])
        model = mtl_fit([np.eye(1)] * 4, [np.zeros(1)] * 4, 0, 0, 0, g)
        model.W = W
        model.bias = np.zeros(4)
        label, _ = mtl_predict(model, np.array([1.0]), task=None)
        assert label == 1.0  # task 0 has the largest |score| = 2

    def test_dimension_mismatch(self):
        model, _ = self.fitted()
        with pytest.raises(ValueError, match="dims"):
            mtl_predict(model, np.ones(9), ALL_QUADRANTS[0])

    def test_posteriors_sum_to_one(self):
        model, _ = self.fitted()
        X = np.random.default_rng(7).normal(size=(6, 5))
        proba = mtl_predict_proba(model, X, [ALL_QUADRANTS[i % 4] for i in range(6)])
        assert np.allclose(proba.sum(axis=1), 1.0)
