import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaffect.evaluation import _argmax_signs
from adaffect.learners.shallow import (
    KKT_TOL,
    DimensionMismatchError,
    SingleClassError,
    _fit_uncalibrated,
    _inverse_cholesky,
    _ipm_linear,
    _linear_dual,
    _rbf_kernel,
    _smo,
    shallow_fit,
    shallow_predict_proba,
    unconverged_solves,
)
from oracles import reference_seeded_smo, reference_smo


def gaussian_clouds(n=40, separation=6.0, dims=4, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, dims)) + separation / 2.0
    neg = rng.normal(size=(n, dims)) - separation / 2.0
    X = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(n), -np.ones(n)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def xor_data(n=40, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float) * 2.0
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    X, y = [], []
    for c, lab in zip(centers, labels):
        X.append(c + 0.3 * rng.normal(size=(n, 2)))
        y.append(np.full(n, lab))
    return np.concatenate(X), np.concatenate(y)


def train_f1(model, X, y):
    pred = _argmax_signs(shallow_predict_proba(model, X))
    tp = np.sum((pred > 0) & (y > 0))
    fp = np.sum((pred > 0) & (y < 0))
    fn = np.sum((pred < 0) & (y > 0))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


class TestSeparableData:
    @pytest.mark.parametrize("kind", ["lda", "linear_svm", "rbf_svm"])
    def test_training_f1_is_one(self, kind):
        X, y = gaussian_clouds()
        model = shallow_fit(X, y, kind)
        assert train_f1(model, X, y) == 1.0


class TestLda:
    def test_weight_direction_matches_closed_form(self):
        rng = np.random.default_rng(3)
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(cov)
        mu0, mu1 = np.array([-1.0, 0.5]), np.array([1.5, -0.25])
        n = 400
        neg = rng.normal(size=(n, 2)) @ chol.T + mu0
        pos = rng.normal(size=(n, 2)) @ chol.T + mu1
        X = np.concatenate([pos, neg])
        y = np.concatenate([np.ones(n), -np.ones(n)])
        model = shallow_fit(X, y, "lda", {"shrinkage": 0.0})
        # Oracle: pooled sample covariance inverse applied to the mean gap.
        mp, mn = pos.mean(axis=0), neg.mean(axis=0)
        centered = np.concatenate([pos - mp, neg - mn])
        pooled = centered.T @ centered / (2 * n - 2)
        expect = np.linalg.solve(pooled, mp - mn)
        cosine = np.dot(model.w, expect) / (np.linalg.norm(model.w) * np.linalg.norm(expect))
        assert np.arccos(np.clip(cosine, -1, 1)) < 1e-3

    def test_affine_invariance_of_labels(self):
        rng = np.random.default_rng(4)
        X, y = gaussian_clouds(n=60, separation=2.0, seed=5)
        X_test = rng.normal(size=(50, 4)) * 2.0
        A = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        c = rng.normal(size=4)
        base = shallow_fit(X, y, "lda", {"shrinkage": 0.0})
        transformed = shallow_fit(X @ A.T + c, y, "lda", {"shrinkage": 0.0})
        lab_base = _argmax_signs(shallow_predict_proba(base, X_test))
        lab_trans = _argmax_signs(shallow_predict_proba(transformed, X_test @ A.T + c))
        assert np.array_equal(lab_base, lab_trans)


class TestSvm:
    def test_xor_kernel_separability(self):
        X, y = xor_data()
        rbf = shallow_fit(X, y, "rbf_svm", {"C": 10.0, "gamma": 0.5})
        linear = shallow_fit(X, y, "linear_svm", {"C": 10.0})
        assert train_f1(rbf, X, y) == 1.0
        assert train_f1(linear, X, y) <= 0.75

    @pytest.mark.parametrize("kind", ["linear_svm", "rbf_svm"])
    def test_dual_coefficients_in_box_and_kkt(self, kind):
        X, y = gaussian_clouds(n=30, separation=1.5, seed=6)
        C = 2.0
        model = shallow_fit(X, y, kind, {"C": C} if kind == "linear_svm" else {"C": C, "gamma": 0.2})
        alpha = model.train_meta["alpha"]
        assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-12)
        assert model.kkt_violation(X, y) <= 1e-3

    def test_solver_diagnostics_recorded(self):
        X, y = gaussian_clouds(n=30, separation=3.0, seed=12)
        meta = shallow_fit(X, y, "linear_svm").train_meta
        assert meta["converged"] is True
        assert meta["ipm_steps"] > 0 and meta["iters"] >= 0

    def test_calibration_solves_recorded(self, monkeypatch):
        from adaffect.learners import shallow

        X, y = gaussian_clouds(n=30, separation=3.0, seed=12)
        model = shallow_fit(X, y, "linear_svm")
        assert model.train_meta["calibration_converged"] == [True] * 3
        assert unconverged_solves(model) == (False, 0)
        assert unconverged_solves(shallow_fit(X, y, "lda")) == (False, 0)

        solve = shallow._linear_dual
        calls = []

        def fail_after_first(X, y, C, start):  # the model's own solve comes first
            calls.append(len(y))
            # A capped solve drops its batched start and runs its own capped interior point.
            return solve(X, y, C, start=start) if len(calls) == 1 else solve(X, y, C, max_steps=1, max_iter=1)

        monkeypatch.setattr(shallow, "_linear_dual", fail_after_first)
        model = shallow_fit(X, y, "linear_svm")
        assert calls[0] == len(y) and len(calls) == 4
        assert model.train_meta["converged"] is True
        assert model.train_meta["calibration_converged"] == [False] * 3
        assert unconverged_solves(model) == (False, 3)

    @pytest.mark.parametrize("kind", ["linear_svm", "rbf_svm"])
    def test_two_item_set_has_no_calibration_solve(self, monkeypatch, kind):
        # Both items fall into one of the two calibration folds: that fold
        # trains on no item and the other scores none, so no fold is solved.
        from adaffect.learners import shallow

        y = np.array([1.0, -1.0])
        assert shallow._calibration_splits(y, 3, 0) == []
        calls = []
        original = shallow._fit_uncalibrated

        def spy(*args):
            calls.append(len(args[1]))
            return original(*args)

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        model = shallow_fit(np.array([[1.0, 0.5], [-1.0, 0.0]]), y, kind)
        assert calls == [2]
        assert model.train_meta["calibration_converged"] == []
        assert unconverged_solves(model) == (False, 0)

    def test_iteration_cap_reports_not_converged(self):
        X, y = gaussian_clouds(n=30, separation=1.5, seed=13)
        alpha, b, iters, converged = _smo(X @ X.T, y, 1.0, max_iter=1)
        assert iters == 1
        assert converged is False
        *_, iters, converged, steps = _linear_dual(X, y, 1.0, max_steps=1, max_iter=1)
        assert (iters, converged, steps) == (1, False, 1)

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassError):
            shallow_fit(X, np.ones(4), "linear_svm")

    def test_nonfinite_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            shallow_fit(X, np.array([1.0, -1.0]), "linear_svm")


class TestPosteriors:
    def test_rows_sum_to_one(self):
        X, y = gaussian_clouds(n=25, separation=2.0, seed=7)
        model = shallow_fit(X, y, "rbf_svm")
        proba = shallow_predict_proba(model, X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_boundary_point_near_half(self):
        X, y = gaussian_clouds(n=100, separation=4.0, dims=2, seed=8)
        model = shallow_fit(X, y, "linear_svm")
        # Construct a point on the fitted hyperplane.
        x0 = -model.b * model.w / np.dot(model.w, model.w)
        proba = shallow_predict_proba(model, x0[None, :])[0]
        assert abs(proba[0] - 0.5) <= 0.05

    def test_deep_positive_point_confident(self):
        X, y = gaussian_clouds(n=100, separation=4.0, dims=2, seed=9)
        model = shallow_fit(X, y, "linear_svm")
        deep = X[y > 0].mean(axis=0) * 2.0
        proba = shallow_predict_proba(model, deep[None, :])[0]
        assert proba[0] > 0.9

    def test_dimension_mismatch(self):
        X, y = gaussian_clouds(n=10, seed=10)
        model = shallow_fit(X, y, "linear_svm")
        with pytest.raises(DimensionMismatchError):
            shallow_predict_proba(model, np.zeros((2, 7)))

    def test_argmax_is_label(self):
        X, y = gaussian_clouds(n=30, separation=3.0, seed=11)
        model = shallow_fit(X, y, "lda")
        proba = shallow_predict_proba(model, X)
        labels = _argmax_signs(proba)
        assert np.array_equal(labels > 0, proba[:, 0] > proba[:, 1])


def gram(kind, gamma, X):
    return X @ X.T if kind == "linear_svm" else _rbf_kernel(X, X, gamma)


def dual_objective(alpha, y, X):
    """D(alpha) = sum alpha - 1/2 ||sum alpha_i y_i x_i||^2 of the linear SVM."""
    w = X.T @ (alpha * y)
    return float(alpha.sum() - 0.5 * w @ w)


def random_linear_set(n, d, log_c, shift, case, seed):
    """(X, y, C): n items in d dims, shifted apart by class; "duplicates"
    repeats the first half under opposite labels, and "equal" makes every
    row the same."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) < int(rng.integers(1, n)), 1.0, -1.0)
    X = rng.normal(size=(n, d)) + shift * y[:, None] / np.sqrt(d)
    if case == "duplicates":
        half = n // 2
        X[half:2 * half], y[half:2 * half] = X[:half], -y[:half]
    elif case == "equal":
        X[:] = X[0]
    return X, y, 10.0 ** log_c


def quadrant_set(n, variant, seed):
    """Weakly separated 4-quadrant items; +1 is two quadrants, or one
    against the rest; "duplicates" repeats the first fifth of the rows,
    two of them under the opposite label."""
    rng = np.random.default_rng(seed)
    quadrant = np.arange(n) % 4
    centers = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=float)
    X = rng.normal(size=(n, 4))
    X[:, :2] += centers[quadrant]
    y = np.where(quadrant == 0 if variant == "one_vs_rest" else quadrant % 2 == 0, 1.0, -1.0)
    if variant == "duplicates":
        k = n // 5
        X[-k:] = X[:k]
        y[-2:] = -y[k - 2:k]
    return X, y


class TestSmoMatchesReference:
    """The optimized solver reproduces the reference loop bit for bit."""

    @pytest.mark.parametrize("variant", ["balanced", "duplicates", "one_vs_rest"])
    @pytest.mark.parametrize("n", [20, 50, 96])
    @pytest.mark.parametrize("kind,gamma", [("linear_svm", None), ("rbf_svm", 1.0 / 16),
                                            ("rbf_svm", 0.01), ("rbf_svm", 0.1)])
    def test_alpha_and_b_identical(self, variant, n, kind, gamma):
        X, y = quadrant_set(n, variant, seed=n)
        K = gram(kind, gamma, X)
        for C in (0.1, 1.0, 10.0, 100.0):
            ref_alpha, ref_b = reference_smo(K, y, C)
            alpha, b, _, _ = _smo(K, y, C)
            assert np.array_equal(alpha, ref_alpha), f"C={C}"
            assert b == ref_b, f"C={C}"


class TestSmoSeededMatchesReference:
    """Along a warm-started C chain, every solve reproduces the penalty-array
    solver bit for bit: alpha, b, iteration count and convergence flag."""

    @pytest.mark.parametrize("variant", ["balanced", "duplicates", "one_vs_rest"])
    @pytest.mark.parametrize("n", [20, 50, 96])
    @pytest.mark.parametrize("kind,gamma", [("linear_svm", None), ("rbf_svm", 1.0 / 16),
                                            ("rbf_svm", 0.01), ("rbf_svm", 0.1)])
    def test_chain_identical(self, variant, n, kind, gamma):
        X, y = quadrant_set(n, variant, seed=n)
        K = gram(kind, gamma, X)
        seed = None
        for C in (0.1, 1.0, 10.0, 100.0):
            ref_alpha, ref_b, ref_iters, ref_converged = reference_seeded_smo(K, y, C, alpha=seed)
            alpha, b, iters, converged = _smo(K, y, C, alpha=seed)
            assert alpha.tobytes() == ref_alpha.tobytes(), f"C={C}"  # -0.0 differs from 0.0
            assert repr(b) == repr(ref_b) and iters == ref_iters and converged is ref_converged, f"C={C}"
            seed = alpha


class TestSmoWarmStart:
    """A solve seeded with the solution at a smaller C is a solution at the
    larger C: alpha(C_small) lies in the larger box and keeps sum alpha y = 0."""

    @staticmethod
    def dual(alpha, y, K):
        coef = alpha * y
        return float(alpha.sum() - 0.5 * coef @ K @ coef)

    @pytest.mark.parametrize("data", ["balanced", "weak"])
    @pytest.mark.parametrize("kind,gamma", [("linear_svm", None), ("rbf_svm", 1.0 / 16)])
    @pytest.mark.parametrize("C_small,C_large", [(0.1, 1.0), (1.0, 10.0), (10.0, 100.0)])
    def test_seeded_solve_is_optimal(self, data, kind, gamma, C_small, C_large):
        if data == "balanced":
            X, y = quadrant_set(64, "balanced", seed=64)
        else:
            X, y = gaussian_clouds(n=32, separation=0.5, dims=4, seed=5)
        K = gram(kind, gamma, X)
        seed_alpha, _, _, seed_converged = _smo(K, y, C_small)
        assert seed_converged
        alpha, b, _, converged = _smo(K, y, C_large, alpha=seed_alpha)
        cold_alpha, _, _, _ = _smo(K, y, C_large)
        assert converged
        # In the box up to the rounding of the pair updates, as in a cold solve.
        assert np.all(alpha >= -1e-12 * C_large) and np.all(alpha <= C_large * (1.0 + 1e-12))
        assert abs(float(alpha @ y)) <= 1e-8 * C_large * len(y)
        margins = y * (K @ (alpha * y) + b)
        at_zero, at_c = alpha <= 1e-9 * C_large, alpha >= C_large * (1.0 - 1e-9)
        interior = ~(at_zero | at_c)
        viol = np.concatenate([np.maximum(0.0, 1.0 - margins[at_zero]),
                               np.maximum(0.0, margins[at_c] - 1.0),
                               np.abs(1.0 - margins[interior])])
        assert viol.max() <= KKT_TOL + 1e-9
        assert self.dual(alpha, y, K) == pytest.approx(self.dual(cold_alpha, y, K), rel=1e-5)


class TestLinearDual:
    """The interior-point start with its SMO finish meets the KKT test and
    reaches at least the dual objective of a cold `_smo` solve."""

    @staticmethod
    def check(X, y, C, cold_alpha, start=None):
        model = _fit_uncalibrated(X, y, "linear_svm", {"C": C}, start)
        alpha = model.train_meta["alpha"]
        assert model.train_meta["converged"] is True
        # In the box up to the rounding of the SMO pair updates, as in a cold solve.
        assert np.all(alpha >= -1e-12 * C) and np.all(alpha <= C * (1.0 + 1e-12))
        assert abs(float(alpha @ y)) <= 1e-8 * C * len(y)
        assert model.kkt_violation(X, y) <= KKT_TOL
        cold = dual_objective(cold_alpha, y, X)
        assert dual_objective(alpha, y, X) >= cold - 1e-9 * abs(cold)

    @pytest.mark.parametrize("variant", ["balanced", "duplicates", "one_vs_rest"])
    @pytest.mark.parametrize("n", [20, 50, 96])
    def test_reference_sets(self, variant, n):
        X, y = quadrant_set(n, variant, seed=n)
        for C in (0.1, 1.0, 10.0, 100.0):
            self.check(X, y, C, reference_smo(X @ X.T, y, C)[0])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 60), d=st.integers(1, 8), log_c=st.floats(-2.0, 3.0),
           shift=st.floats(0.0, 3.0), case=st.sampled_from(["random", "duplicates", "equal"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=4, d=8, log_c=0.0, shift=1.0, case="random", seed=0)  # n < d
    @example(n=5, d=1, log_c=-2.0, shift=1.0, case="duplicates", seed=0)  # a flat face at small C
    @example(n=13, d=1, log_c=3.0, shift=3.0, case="equal", seed=226)  # y'(Q + D)^-1 y comes out 0
    def test_random_sets(self, n, d, log_c, shift, case, seed):
        X, y, C = random_linear_set(n, d, log_c, shift, case, seed)
        self.check(X, y, C, _smo(X @ X.T, y, C)[0])


class TestStackedInteriorPoint:
    """A problem solved in a stack of `_ipm_linear` problems gets the start
    it gets alone, up to rounding, and its finished model passes
    `TestLinearDual.check` against the finished lone solve, which
    `TestLinearDual.test_random_sets` holds to a cold `_smo` solve."""

    # A stack rounds differently from a lone solve (padded sums, other BLAS
    # paths). Where the optimal alphas form a flat face, rounding moves the
    # iterate along it: over 3,000 random stacks of the test below the
    # largest gap was 3e-6 C, and on the cv-svm sets it is below 1e-10 C.
    START_TOL = 1e-4

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), members=st.lists(
        st.tuples(st.integers(4, 60), st.floats(-2.0, 3.0), st.floats(0.0, 3.0),
                  st.sampled_from(["random", "duplicates", "equal"]), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=8))
    # The third member converges at step 29 alone; in this stack its
    # y'(Q + D)^-1 y comes out <= 0 at step 23, far from the optimum, and
    # its SMO finish takes thousands of pair updates.
    @example(d=7, members=[(4, 0.0005, 0.0, "random", 0), (4, 0.0, 0.0, "random", 0),
                           (18, 2.96875, 0.0, "random", 100), (20, 0.0, 0.0, "random", 0)])
    def test_members_match_their_lone_solves(self, d, members):
        stack = [random_linear_set(n, d, log_c, shift, case, seed) for n, log_c, shift, case, seed in members]
        for (X, y, C), start in zip(stack, _ipm_linear(*zip(*stack))):
            alone = _ipm_linear([X], [y], [C])[0]
            if start[1] == alone[1]:
                assert np.abs(start[0] - alone[0]).max() <= self.START_TOL * C
                TestLinearDual.check(X, y, C, _linear_dual(X, y, C, start=alone)[0], start=start)
            else:
                # Where y'(Q + D)^-1 y or the factorization of G breaks
                # down, rounding decides the step, so the two runs can stop
                # at different ones, and the SMO finishes from different
                # starts end anywhere within the KKT tolerance.
                model = _fit_uncalibrated(X, y, "linear_svm", {"C": C}, start)
                assert model.train_meta["converged"] is True and model.kkt_violation(X, y) <= KKT_TOL

    @pytest.mark.parametrize("d, early", [
        # y'(Q + D)^-1 y comes out <= 0 at step 8, in a stack and alone.
        (1, (13, 1, 3.0, 3.0, "equal", 226)),
        # Stops at step 7 or 8, on y'(Q + D)^-1 y <= 0 or a failed
        # factorization of G: rounding decides which comes first.
        (2, (20, 2, 3.0, 2.0, "equal", 16)),
    ])
    def test_a_member_that_stops_early_stops_alone(self, d, early):
        others = [random_linear_set(n, d, log_c, 1.0, "random", seed)
                  for n, log_c, seed in ((40, 2.0, 1), (60, 1.0, 2), (30, 3.0, 3), (50, 0.0, 4))]
        stack = [others[0], random_linear_set(*early), *others[1:]]
        starts = _ipm_linear(*zip(*stack))
        alone = [_ipm_linear([X], [y], [C])[0] for X, y, C in stack]
        # The others take 10 to 14 steps, so they step on after it stops.
        assert starts[1][1] <= 8 and alone[1][1] <= 8
        assert all(start[1] == lone[1] > 8 for k, (start, lone) in enumerate(zip(starts, alone)) if k != 1)
        for (X, y, C), start, lone in zip(stack, starts, alone):
            assert np.abs(start[0] - lone[0]).max() <= self.START_TOL * C
            TestLinearDual.check(X, y, C, _linear_dual(X, y, C, start=lone)[0], start=start)

    def test_matrices_without_a_cholesky_factor_are_marked(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 4, 4))
        G = np.eye(4) + A @ A.transpose(0, 2, 1)
        G[1, 0, 1] = G[1, 1, 0] = 2.0 * np.sqrt(G[1, 0, 0] * G[1, 1, 1])  # indefinite
        L_inv, ok = _inverse_cholesky(G)
        assert ok.tolist() == [True, False, True]
        for k in (0, 2):
            assert np.allclose(L_inv[k], np.linalg.inv(np.linalg.cholesky(G[k])), rtol=1e-12, atol=0.0)
        assert np.array_equal(L_inv[1], np.eye(4))
