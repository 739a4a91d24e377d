import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaffect.core import AffectLabel, FeatureMatrix, Quadrant
from adaffect.evaluation import (
    CvReport,
    InsufficientClassCountError,
    MisalignedItemsError,
    ModelSpec,
    ad_level_score,
    cross_validate,
    f1_score,
    fit_model,
    west_fuse,
)
from adaffect.synthgen import GenSpec, gen_quadrant_data
from oracles import f1_bruteforce, inner_grid_search_full

H = AffectLabel.HIGH
L = AffectLabel.LOW


class TestF1:
    def test_perfect(self):
        assert f1_score([H, L, H], [H, L, H]) == 1.0

    def test_hand_counts(self):
        # TP=2, FP=1, FN=1 -> P=R=2/3 -> F1=2/3
        pred = [H, H, H, L, L]
        truth = [H, H, L, H, L]
        assert f1_score(pred, truth) == pytest.approx(2.0 / 3.0)

    def test_degenerate_zero(self):
        assert f1_score([L, L], [H, H]) == 0.0
        assert f1_score([L, L], [L, L]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            f1_score([H], [H, L])

    def test_matches_bruteforce_and_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(3, 30))
            pred = [H if v else L for v in rng.integers(0, 2, n)]
            truth = [H if v else L for v in rng.integers(0, 2, n)]
            expect = f1_bruteforce(pred, truth, H)
            assert f1_score(pred, truth) == pytest.approx(expect)
            perm = rng.permutation(n)
            assert f1_score([pred[i] for i in perm], [truth[i] for i in perm]) == pytest.approx(expect)

    def test_sign_arrays_accepted(self):
        assert f1_score(np.array([1.0, -1.0]), np.array([1.0, -1.0])) == 1.0


def small_features(n_per=8, seed=0, separation=6.0):
    return gen_quadrant_data(
        GenSpec(seed=seed, n_per_task=n_per, dims=9, class_separation=separation,
                task_correlation=0.5, noise_std=0.1)
    ).features


def weak_features():
    """A set on which no default or test grid point scores F1 1 on every
    inner split of `cross_validate(..., reps=1, folds=3, seed=6)`, so the
    inner search scores every grid point."""
    return small_features(seed=2, separation=2.0)


def tie_heavy_features():
    """Two item patterns, each under both labels: every model predicts one
    label per pattern, so many grid points score the same F1."""
    rng = np.random.default_rng(12)
    base = rng.normal(size=(2, 9))
    X = np.repeat(base, 12, axis=0) + 1e-3 * rng.normal(size=(24, 9))
    labels = ([H] * 8 + [L] * 4) + ([H] * 4 + [L] * 8)
    quads = [Quadrant.from_code(code) for code in ("HH", "HL", "LL", "LH")] * 6
    return FeatureMatrix(X, labels, quads, [f"i{i}" for i in range(24)])


class TestCrossValidate:
    def test_deterministic_for_fixed_seed(self):
        feats = small_features()
        spec = ModelSpec("lda")
        r1 = cross_validate(feats, spec, reps=2, folds=3, seed=9)
        r2 = cross_validate(feats, spec, reps=2, folds=3, seed=9)
        assert r1.rows == r2.rows
        assert r1.mean == r2.mean

    def test_row_count_is_reps_times_folds(self):
        feats = small_features()
        report = cross_validate(feats, ModelSpec("lda"), reps=2, folds=4, seed=1)
        assert len(report.rows) == 8
        runs = {r for r, _, _ in report.rows}
        assert runs == {0, 1}

    def test_separable_data_high_f1(self):
        feats = small_features()
        report = cross_validate(feats, ModelSpec("lda"), reps=2, folds=5, seed=2)
        assert report.mean >= 0.95

    def test_shuffled_labels_near_chance(self):
        feats = small_features(n_per=10, seed=3)
        rng = np.random.default_rng(4)
        shuffled = FeatureMatrix(
            feats.X,
            [feats.labels[i] for i in rng.permutation(feats.n_items)],
            feats.quadrants,
            feats.item_ids,
        )
        report = cross_validate(shuffled, ModelSpec("lda"), reps=4, folds=5, seed=5)
        assert 0.3 <= report.mean <= 0.7

    def test_insufficient_class_count(self):
        X = np.random.default_rng(0).normal(size=(6, 9))
        labels = [H, H, H, H, H, L]
        quads = [Quadrant.from_code("HH")] * 6
        feats = FeatureMatrix(X, labels, quads, [f"i{i}" for i in range(6)])
        with pytest.raises(InsufficientClassCountError):
            cross_validate(feats, ModelSpec("lda"), reps=1, folds=5)

    def test_duplicated_data_zero_std(self):
        # Single duplicated item pattern per class; every fold sees the same
        # distribution, and lda is deterministic -> identical F1 every run.
        rng = np.random.default_rng(6)
        base = rng.normal(size=(2, 9))
        X = np.tile(base, (10, 1)) + 0.001 * np.tile(rng.normal(size=(2, 9)), (10, 1))
        labels = [H, L] * 10
        quads = [Quadrant.from_code("HH"), Quadrant.from_code("LL")] * 10
        feats = FeatureMatrix(X, labels, quads, [f"i{i}" for i in range(20)])
        report = cross_validate(feats, ModelSpec("lda"), reps=3, folds=2, seed=7)
        assert report.std == pytest.approx(0.0, abs=1e-12)

    def test_oof_posteriors_shape(self):
        feats = small_features()
        report = cross_validate(feats, ModelSpec("lda"), reps=1, folds=4, seed=8)
        assert report.oof_posteriors.shape == (feats.n_items, 2)
        assert np.allclose(report.oof_posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_mtl_spec_runs(self):
        feats = small_features()
        report = cross_validate(feats, ModelSpec("mtl"), reps=1, folds=3, seed=10)
        assert report.mean >= 0.9

    @pytest.mark.parametrize("reps, folds", [(0, 5), (1, 1)])
    def test_rejects_degenerate_reps_and_folds(self, reps, folds):
        with pytest.raises(ValueError, match="reps >= 1 and folds >= 2"):
            cross_validate(small_features(), ModelSpec("lda"), reps=reps, folds=folds)

    @pytest.mark.parametrize("kind, point", [("lda", {"shrinkage": 0.9}), ("mtl", {"alpha": 0.2})])
    def test_one_point_grid_equals_fixed_params(self, kind, point):
        # A one-point grid skips the search and trains with that point; the
        # default lda shrinkage (0.1) and mtl alpha (1.0) give other posteriors.
        feats = small_features(seed=3)
        grid = {key: [value] for key, value in point.items()}
        searched = cross_validate(feats, ModelSpec(kind, grid=grid), reps=1, folds=3, seed=4)
        fixed = cross_validate(feats, ModelSpec(kind, params=point), reps=1, folds=3, seed=4)
        default = cross_validate(feats, ModelSpec(kind), reps=1, folds=3, seed=4)
        assert np.array_equal(searched.oof_posteriors, fixed.oof_posteriors)
        assert not np.array_equal(searched.oof_posteriors, default.oof_posteriors)

    def test_lda_grid_runs_inner_search(self, monkeypatch):
        from adaffect import evaluation
        from adaffect.learners import shallow

        shrinkages = []
        final = []  # non-empty while the final, calibrated fit runs
        rank, fit = shallow._fit_uncalibrated, evaluation.shallow_fit

        def rank_spy(X, y, kind, hyper, *args):
            if not final:
                shrinkages.append(hyper["shrinkage"])
            return rank(X, y, kind, hyper, *args)

        def fit_spy(X, y, kind, params, seed):
            shrinkages.append(params["shrinkage"])
            final.append(kind)
            try:
                return fit(X, y, kind, params, seed=seed)
            finally:
                final.pop()

        monkeypatch.setattr(shallow, "_fit_uncalibrated", rank_spy)
        monkeypatch.setattr(evaluation, "shallow_fit", fit_spy)
        spec = ModelSpec("lda", grid={"shrinkage": [0.2, 0.7]})
        cross_validate(weak_features(), spec, reps=1, folds=3, seed=6)
        # Per outer fold: 2 grid points x 5 inner folds, then the final fit.
        assert len(shrinkages) == 3 * (2 * 5 + 1)
        assert shrinkages[:10] == [0.2] * 5 + [0.7] * 5

    @pytest.mark.parametrize("kind, per_fold", [("linear_svm", 4 * 5 + 1 + 3), ("rbf_svm", 12 * 5 + 4)])
    def test_inner_search_calibrates_only_the_final_model(self, monkeypatch, kind, per_fold):
        # Each default grid point is solved once per inner fold, uncalibrated;
        # the final model adds one solve plus its 3 calibration solves.
        from adaffect.learners import shallow

        calls = []
        original = shallow._fit_uncalibrated

        def spy(*args, **kwargs):
            calls.append(args[3]["C"])
            return original(*args, **kwargs)

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        cross_validate(weak_features(), ModelSpec(kind), reps=1, folds=3, seed=6)
        assert len(calls) == 3 * per_fold

    @pytest.mark.parametrize("kind", ["linear_svm", "rbf_svm"])
    def test_search_stops_at_the_first_perfect_grid_point(self, monkeypatch, kind):
        # On a well-separated set the first default grid point scores F1 1 on
        # every inner split, so it is the only one solved: 5 inner solves,
        # then the final model's solve and its 3 calibration solves.
        from adaffect.learners import shallow

        calls = []
        original = shallow._fit_uncalibrated

        def spy(*args, **kwargs):
            calls.append(args[3]["C"])
            return original(*args, **kwargs)

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        feats = gen_quadrant_data(GenSpec(seed=7101, n_per_task=30, dims=16, class_separation=10.0,
                                          task_correlation=0.5, noise_std=0.1)).features
        cross_validate(feats, ModelSpec(kind), reps=1, folds=5, seed=71)
        assert len(calls) == 5 * (5 + 4)
        assert calls[:5] == [0.1] * 5

    @pytest.mark.parametrize("data", ["separable", "weak", "tie_heavy"])
    @pytest.mark.parametrize("kind, grid", [
        ("linear_svm", None),
        ("rbf_svm", None),
        ("lda", {"shrinkage": [0.0, 0.2, 0.7, 1.0]}),
        ("linear_svm", {"C": [10.0, 1.0]}),
        ("mtl", {"alpha": [0.1, 1.0, 10.0]}),
    ])
    def test_search_picks_what_scoring_every_grid_point_picks(self, data, kind, grid):
        from adaffect.evaluation import _inner_grid_search

        feats = {"separable": small_features, "weak": weak_features, "tie_heavy": tie_heavy_features}[data]()
        spec = ModelSpec(kind, grid=grid)
        for seed in (0, 1, 2):
            assert _inner_grid_search(feats, spec, seed) == inner_grid_search_full(feats, spec, seed)[0], seed

    @pytest.mark.parametrize("grid_C", [[10.0, 1.0], [1.0, 10.0]])
    def test_equal_scoring_grid_points_pick_the_first(self, monkeypatch, grid_C):
        from adaffect import evaluation

        searches, finals = [], []
        search, fit = evaluation._inner_grid_search, evaluation.shallow_fit

        def search_spy(*args):
            searches.append(args)
            return search(*args)

        def fit_spy(X, y, kind, params, seed):
            finals.append(params["C"])
            return fit(X, y, kind, params, seed=seed)

        monkeypatch.setattr(evaluation, "_inner_grid_search", search_spy)
        monkeypatch.setattr(evaluation, "shallow_fit", fit_spy)
        spec = ModelSpec("linear_svm", grid={"C": grid_C})
        cross_validate(weak_features(), spec, reps=1, folds=3, seed=6)
        # Each search's mean F1 per grid point, scoring every point on every split.
        means = [inner_grid_search_full(*args)[1].mean(axis=1) for args in searches]
        assert len(means) == 3 and all(m[0] == m[1] < 1.0 for m in means)
        assert finals == [grid_C[0]] * 3


class TestWestFuse:
    def test_hand_example(self):
        p1 = np.array([[0.9, 0.1]])
        p2 = np.array([[0.4, 0.6]])
        res = west_fuse(p1, p2, 0.5, 0.5, alphas=(0.5, 0.5))
        assert res.weights == (pytest.approx(0.5), pytest.approx(0.5))
        assert res.posteriors[0, 0] == pytest.approx(0.325)
        assert res.posteriors[0, 1] == pytest.approx(0.175)
        assert res.labels[0] == 1.0

    def test_identical_posteriors_any_alpha(self):
        rng = np.random.default_rng(1)
        p = rng.random((20, 1))
        posts = np.column_stack([p[:, 0], 1 - p[:, 0]])
        expect = np.where(posts[:, 0] > posts[:, 1], 1.0, -1.0)
        for alphas in [(1.0, 0.0), (0.3, 0.9), (0.5, 0.5), (0.0, 1.0)]:
            res = west_fuse(posts, posts, 0.7, 0.4, alphas=alphas)
            assert np.array_equal(res.labels, expect)

    def test_endpoint_reproduces_modality_one(self):
        rng = np.random.default_rng(2)
        p1 = rng.dirichlet((1, 1), size=30)
        p2 = rng.dirichlet((1, 1), size=30)
        res = west_fuse(p1, p2, 0.8, 0.6, alphas=(1.0, 0.0))
        expect = np.where(p1[:, 0] > p1[:, 1], 1.0, -1.0)
        assert np.array_equal(res.labels, expect)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["joint", "convex"]),
           step=st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.7, 1.0]),
           f1t=st.floats(0.01, 1.0), f2t=st.floats(0.01, 1.0))
    def test_grid_search_beats_both_endpoints(self, data, mode, step, f1t, f2t):
        # The grid holds alpha = (1, 0) and (0, 1), where the fusion weights
        # (summing to 1) are (1, 0) and (0, 1): the labels of one stream alone,
        # ties going to Low. Quarter-step posteriors make such ties.
        n = data.draw(st.integers(1, 30))
        high = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
        p1, p2 = (np.array([[p, 1.0 - p] for p in data.draw(st.lists(high, min_size=n, max_size=n))])
                  for _ in range(2))
        truth = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
        res = west_fuse(p1, p2, f1t, f2t, truth=truth, grid_step=step, mode=mode)
        for p in (p1, p2):
            assert res.tuning_f1 >= f1_score(np.where(p[:, 0] > p[:, 1], 1.0, -1.0), truth)

    @pytest.mark.parametrize("mode", ["joint", "convex"])
    def test_tuning_f1_is_the_f1_of_the_returned_labels(self, mode):
        # Quarter-step posteriors and training F1s make fused scores that
        # sit exactly on zero, where rounding decides the label.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 25))
            p1 = rng.integers(0, 5, (n, 2)) / 4
            p2 = rng.integers(0, 5, (n, 2)) / 4
            truth = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            f1t, f2t = rng.integers(1, 5, 2) / 4
            res = west_fuse(p1, p2, f1t, f2t, truth=truth, mode=mode)
            assert res.tuning_f1 == f1_score(res.labels, truth), seed
            fixed = west_fuse(p1, p2, f1t, f2t, truth=truth, alphas=res.alpha)
            assert np.array_equal(fixed.labels, res.labels) and fixed.tuning_f1 == res.tuning_f1

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), f1t=st.floats(0.01, 1.0),
           f2t=st.floats(0.01, 1.0), alphas=st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0)))
    @example(p=[0.6, 0.4, 0.2, 0.8], f1t=0.9, f2t=0.3, alphas=(0.7, 0.4))
    def test_weights_sum_to_one(self, p, f1t, f2t, alphas):
        res = west_fuse(np.array([p[:2]]), np.array([p[2:]]), f1t, f2t, alphas=alphas)
        assert sum(res.weights) == pytest.approx(1.0)

    @pytest.mark.parametrize("step", [0.3, 0.4, 0.7])
    def test_grid_reaches_one_when_the_step_does_not_divide_it(self, step):
        # Stream 2 is wrong on every item and far more confident, so only
        # alpha = (1, 0) gives every label right.
        truth = np.array([1.0, -1.0, 1.0, -1.0])
        p1 = np.column_stack([0.5 + 5e-4 * truth, 0.5 - 5e-4 * truth])
        p2 = np.column_stack([truth < 0, truth > 0]).astype(float)
        res = west_fuse(p1, p2, 0.5, 0.5, truth=truth, grid_step=step, mode="convex")
        assert res.alpha == (1.0, 0.0) and res.tuning_f1 == 1.0

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(MisalignedItemsError):
            west_fuse(np.zeros((3, 2)), np.zeros((4, 2)), 0.5, 0.5, alphas=(1, 1))

    def test_convex_mode(self):
        rng = np.random.default_rng(4)
        truth = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        p1 = rng.dirichlet((1, 1), size=30)
        p2 = rng.dirichlet((1, 1), size=30)
        res = west_fuse(p1, p2, 0.5, 0.5, truth=truth, grid_step=0.01, mode="convex")
        assert res.alpha[0] + res.alpha[1] == pytest.approx(1.0)


class TestAdLevelScore:
    def test_mean(self):
        assert ad_level_score([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_single_segment(self):
        assert ad_level_score([0.73]) == pytest.approx(0.73)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        vals = rng.random(9)
        assert ad_level_score(vals) == pytest.approx(ad_level_score(vals[::-1]))

    def test_posterior_pairs_accepted(self):
        pairs = np.array([[0.2, 0.8], [0.6, 0.4]])
        assert ad_level_score(pairs) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad_level_score([])


class TestFitModel:
    @pytest.mark.parametrize("kind, name", [
        ("lda", "C"), ("linear_svm", "Cc"), ("rbf_svm", "shrinkage"),
        ("mtl", "alpah"), ("cnn", "seed"),
    ])
    def test_unknown_hyperparameter_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"{kind} has no hyperparameter {name} "):
            fit_model(kind, small_features(), {name: 1}, seed=0)

    def test_mtl_solver_limits_are_hyperparameters(self):
        model = fit_model("mtl", small_features(), {"max_iter": 3, "tol": 0.0}, seed=0)
        assert len(model.objective_history) == 1 + 3
