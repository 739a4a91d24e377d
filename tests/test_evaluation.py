import json
import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaffect import MODEL_KINDS, _workers, evaluation
from adaffect.cli import main
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
    fold_plan,
    west_fuse,
)
from adaffect.fileio import write_feature_csv
from adaffect.learners.cnn import TooShortInputError
from adaffect.synthgen import GenSpec, gen_quadrant_data
from oracles import f1_bruteforce, inner_grid_search_full, reference_fold_plan, west_fuse_whole_grid

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
        with pytest.raises(ValueError, match="^need reps >= 1 and folds >= 2"):
            fold_plan(small_features().y_signs(), reps, folds, 0)

    @pytest.mark.parametrize("kind, params, grid, name", [
        ("lda", {}, {"C": [1, 10]}, "C"),
        ("rbf_svm", {}, {"shrinkage": [0.1, 0.5]}, "shrinkage"),
        ("linear_svm", {"Cc": 1}, None, "Cc"),
    ])
    def test_unknown_hyperparameter_fails_before_any_solve(self, monkeypatch, kind, params, grid, name):
        from adaffect.learners import shallow

        calls = []
        original = shallow._fit_uncalibrated

        def spy(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        with pytest.raises(ValueError, match=f"^{kind} has no hyperparameter {name} \\(known: "):
            cross_validate(weak_features(), ModelSpec(kind, params=params, grid=grid), reps=1, folds=3, seed=6)
        assert calls == []

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

    def test_linear_svm_stacks_each_grid_point_and_each_final_model(self, monkeypatch):
        # One interior-point run per grid point over its 5 inner splits, then
        # one per final model over it and its 3 calibration folds.
        from adaffect.learners import shallow

        stacks = []
        original = shallow._ipm_linear

        def spy(Xs, ys, Cs, *args):
            stacks.append(len(Xs))
            return original(Xs, ys, Cs, *args)

        monkeypatch.setattr(shallow, "_ipm_linear", spy)
        cross_validate(weak_features(), ModelSpec("linear_svm"), reps=1, folds=3, seed=6)
        assert stacks == 3 * ([5] * 4 + [4])

    @pytest.mark.parametrize("kind, params, grid", [
        ("linear_svm", {"C": 5.0}, {}),
        ("rbf_svm", {"C": 5.0}, {"gamma": ["scale", 0.01, 0.1]}),
        ("rbf_svm", {"gamma": 0.1}, {"C": [0.1, 1.0, 10.0, 100.0]}),
    ])
    def test_fixed_params_leave_the_default_grid(self, kind, params, grid):
        assert ModelSpec(kind, params=params).grid == grid

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

    def test_rbf_points_start_from_the_next_smaller_c_on_their_kernel(self, monkeypatch):
        from adaffect.evaluation import _inner_grid_search
        from adaffect.learners import shallow

        solves = {}  # (id of the split's X, gamma) -> [(C, starting alpha, solved alpha)] in call order
        arrays = []  # keeps each X alive, so no two splits share an id
        original = shallow._fit_uncalibrated

        def spy(X, y, kind, hyper, alpha=None):
            model = original(X, y, kind, hyper, alpha)
            arrays.append(X)
            solves.setdefault((id(X), hyper["gamma"]), []).append((hyper["C"], alpha, model.train_meta["alpha"]))
            return model

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        spec = ModelSpec("rbf_svm", grid={"C": [100, 1, 10, 1], "gamma": [0.1, "scale"]})
        _inner_grid_search(weak_features(), spec, seed=6)
        # Every point is solved once on each of the 5 inner splits; the two
        # C=1 points of a gamma are two points, solved in grid order.
        assert len(solves) == 5 * 2
        for chain in solves.values():
            Cs, starts, solved = zip(*chain)
            assert Cs == (1, 1, 10, 100) and starts[0] is None
            assert all(start is previous for start, previous in zip(starts[1:], solved))

    def test_search_leaves_no_split_data_alive(self, monkeypatch):
        # With the cyclic garbage collector off, every inner split's training
        # matrix must be freed by reference counting once the search returns.
        import gc
        import weakref

        from adaffect.evaluation import _inner_grid_search
        from adaffect.learners import shallow

        refs = []
        original = shallow._fit_uncalibrated

        def spy(X, *args):
            refs.append(weakref.ref(X))
            return original(X, *args)

        monkeypatch.setattr(shallow, "_fit_uncalibrated", spy)
        gc.collect()
        gc.disable()
        try:
            _inner_grid_search(weak_features(), ModelSpec("rbf_svm"), seed=6)
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) == 12 * 5 and alive == 0


@st.composite
def plan_draws(draw):
    """(±1 labels with at least 2 of each class, reps, folds, seed), folds at
    most the minority class's count."""
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=40)))
    y[:2], y[2:4] = 1.0, -1.0
    y = y[draw(st.permutations(range(len(y))))]
    minority = int(min(np.sum(y > 0), np.sum(y < 0)))
    return y, draw(st.integers(1, 3)), draw(st.integers(2, minority)), draw(st.integers(0, 2**32 - 1))


class TestFoldPlan:
    @settings(max_examples=200, deadline=None)
    @given(draws=plan_draws())
    def test_matches_the_reference_plan(self, draws):
        y, reps, folds, seed = draws
        plan = fold_plan(y, reps, folds, seed)
        expect = reference_fold_plan(y, reps, folds, seed)
        assert [unit[:2] for unit in plan] == [(rep, fold) for rep in range(reps) for fold in range(folds)]
        assert len(plan) == len(expect)
        for (rep, fold, train_idx, test_idx, inner_seed), ref in zip(plan, expect):
            assert (rep, fold, inner_seed) == (ref[0], ref[1], ref[4])
            assert np.array_equal(train_idx, ref[2]) and np.array_equal(test_idx, ref[3])
            assert type(inner_seed) is int and 0 <= inner_seed < 2**31 - 1
        everyone = np.arange(len(y))
        for rep in range(reps):
            units = plan[rep * folds:(rep + 1) * folds]
            assert np.array_equal(np.sort(np.concatenate([test_idx for *_, test_idx, _ in units])), everyone)
            for _, _, train_idx, test_idx, _ in units:
                assert np.array_equal(train_idx, np.setdiff1d(everyone, test_idx))
            for cls in (1.0, -1.0):
                counts = [int(np.sum(y[test_idx] == cls)) for *_, test_idx, _ in units]
                assert max(counts) - min(counts) <= 1

    def test_rejects_a_class_smaller_than_the_fold_count(self):
        with pytest.raises(InsufficientClassCountError, match="^need at least 3 items per class, have 4 positive"):
            fold_plan(np.array([1.0] * 4 + [-1.0] * 2), 1, 3, 0)

    @pytest.mark.parametrize("spec", [
        ModelSpec("lda"), ModelSpec("linear_svm"), ModelSpec("rbf_svm"),
        ModelSpec("mtl", grid={"alpha": [0.1, 1.0, 10.0]}), ModelSpec("cnn", params={"max_epochs": 5}),
    ], ids=["lda", "linear_svm", "rbf_svm", "mtl-grid", "cnn"])
    def test_the_plan_alone_fixes_every_number(self, spec):
        # Fitting the plan's units in reverse order gives each row's F1 and
        # the first rep's out-of-fold posteriors byte for byte.
        feats = weak_features()
        report = cross_validate(feats, spec, reps=2, folds=3, seed=6)
        plan = fold_plan(feats.y_signs(), 2, 3, 6)
        rows = dict(((rep, fold), f1) for rep, fold, f1 in report.rows)
        assert len(rows) == len(plan) == 6
        for unit in reversed(plan):
            rep, fold, _, test_idx, _ = unit
            proba, _ = evaluation._fit_unit(feats, spec, unit)
            pred = np.where(proba[:, 0] > proba[:, 1], 1.0, -1.0)
            assert f1_score(pred, feats.subset(test_idx).y_signs()) == rows[rep, fold]
            if rep == 0:
                assert proba.tobytes() == report.oof_posteriors[test_idx].tobytes()

    def test_calls_with_one_seed_share_their_folds(self, monkeypatch):
        # Reports of two kinds on one seed pair row by row over the same folds.
        units, fit_unit = [], evaluation._fit_unit

        def spy(features, spec, unit, params=None):
            units.append((spec.kind, unit))
            return fit_unit(features, spec, unit, params)

        monkeypatch.setattr(evaluation, "_fit_unit", spy)
        feats = weak_features()
        lda = cross_validate(feats, ModelSpec("lda"), reps=2, folds=3, seed=4)
        mtl = cross_validate(feats, ModelSpec("mtl"), reps=2, folds=3, seed=4)
        assert [row[:2] for row in lda.rows] == [row[:2] for row in mtl.rows]
        by_kind = {kind: [u for k, u in units if k == kind] for kind in ("lda", "mtl")}
        assert len(by_kind["lda"]) == len(by_kind["mtl"]) == 6
        for a, b in zip(by_kind["lda"], by_kind["mtl"]):
            assert a[:2] == b[:2] and a[4] == b[4]
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])


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

    @pytest.mark.parametrize("alphas", [None, (0.5, 0.5)])
    def test_truth_of_another_length_rejected(self, alphas):
        p = np.full((5, 2), 0.5)
        with pytest.raises(MisalignedItemsError, match="^truth has 4 labels for 5 items$"):
            west_fuse(p, p, 0.5, 0.5, truth=[1.0, -1.0, 1.0, -1.0], alphas=alphas)

    @pytest.mark.parametrize("stream", ["p1", "p2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_posterior_rejected_naming_its_stream(self, stream, bad):
        posts = {"p1": np.full((4, 2), 0.5), "p2": np.full((4, 2), 0.5)}
        posts[stream][2, 0] = bad
        with pytest.raises(ValueError, match=f"^posterior stream {stream} holds a non-finite value$"):
            west_fuse(posts["p1"], posts["p2"], 0.5, 0.5, truth=[1.0, -1.0, 1.0, -1.0])

    @pytest.mark.parametrize("alphas", [None, (0.5, 0.5)])
    def test_zero_items_rejected(self, alphas):
        with pytest.raises(ValueError, match="^fusion needs at least one item$"):
            west_fuse(np.zeros((0, 2)), np.zeros((0, 2)), 0.5, 0.5, truth=[], alphas=alphas)

    @pytest.mark.parametrize("stream", ["p1", "p2"])
    @pytest.mark.parametrize("bad", [5.0, -3.0, 1.0 + 1e-12, -1e-300])
    def test_posterior_outside_unit_interval_rejected_naming_its_stream(self, stream, bad):
        posts = {"p1": np.full((4, 2), 0.5), "p2": np.full((4, 2), 0.5)}
        posts[stream][1, 1] = bad
        with pytest.raises(ValueError, match=f"^posterior stream {stream} holds a value outside \\[0, 1\\]$"):
            west_fuse(posts["p1"], posts["p2"], 0.5, 0.5, truth=[1.0, -1.0, 1.0, -1.0])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), quarter=st.booleans(),
           mode=st.sampled_from(["joint", "convex"]), step=st.sampled_from([0.01, 0.05, 0.3, 1.0]))
    @example(n=7, seed=1, quarter=True, mode="joint", step=0.01)
    @example(n=300, seed=2, quarter=True, mode="joint", step=0.01)
    @example(n=300, seed=3, quarter=False, mode="joint", step=0.01)
    @example(n=300, seed=4, quarter=True, mode="convex", step=0.01)
    def test_blocked_search_matches_whole_grid_scoring(self, n, seed, quarter, mode, step):
        # At step 0.01 the joint grid has 10,200 scored points, so seven or
        # more items span at least two blocks of fused scores. Quarter-step
        # posteriors and training F1s make exact F1 ties between grid points
        # and fused scores that sit exactly on zero.
        rng = np.random.default_rng(seed)
        if quarter:
            p1, p2 = (rng.integers(0, 5, (n, 2)) / 4 for _ in range(2))
            f1t, f2t = (float(f) for f in rng.integers(1, 5, 2) / 4)
        else:
            p1, p2 = (rng.dirichlet((1, 1), size=n) for _ in range(2))
            f1t, f2t = (float(f) for f in rng.uniform(0.01, 1.0, 2))
        truth = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        res = west_fuse(p1, p2, f1t, f2t, truth=truth, grid_step=step, mode=mode)
        expect = west_fuse_whole_grid(p1, p2, f1t, f2t, truth, grid_step=step, mode=mode)
        names = ("alpha", "weights", "posteriors", "labels", "tuning_f1")
        for name, got, want in zip(names, (getattr(res, name) for name in names), expect):
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("block", [1, 7, 500, 2**20])
    def test_block_size_changes_no_result(self, monkeypatch, block):
        rng = np.random.default_rng(8)
        p1, p2 = (rng.integers(0, 5, (40, 2)) / 4 for _ in range(2))
        truth = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        expect = west_fuse_whole_grid(p1, p2, 0.75, 0.5, truth, grid_step=0.05)
        monkeypatch.setattr(evaluation, "_FUSION_BLOCK", block)
        res = west_fuse(p1, p2, 0.75, 0.5, truth=truth, grid_step=0.05)
        assert (res.alpha, res.weights, res.tuning_f1) == expect[:2] + expect[4:]
        assert np.array_equal(res.posteriors, expect[2]) and np.array_equal(res.labels, expect[3])

    def test_joint_search_memory_does_not_grow_with_the_grid(self):
        # Scoring all 10,200 points of the default joint grid at once on 500
        # items held three (points x items) arrays: a traced peak of ~79 MB.
        import tracemalloc

        rng = np.random.default_rng(9)
        p1, p2 = (rng.dirichlet((1, 1), size=500) for _ in range(2))
        truth = np.where(rng.random(500) < 0.5, 1.0, -1.0)
        tracemalloc.start()
        try:
            west_fuse(p1, p2, 0.7, 0.6, truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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
    def test_one_learner_per_model_kind_in_its_order(self):
        # The CLI offers adaffect.MODEL_KINDS as --model choices without importing this module.
        assert tuple(evaluation._LEARNERS) == MODEL_KINDS

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


@pytest.fixture
def workers(monkeypatch):
    """`workers(n)` sends every fold-unit stage that may leave the process to
    `n` worker processes; returns, per call that went to workers since, its
    kind and what the workers ran: "unit", the whole unit, or "search"."""
    sent, run = [], _workers.run

    def spy(fn, calls, count):
        sent.append((calls[0][1].kind, {evaluation._fit_unit: "unit", evaluation._unit_params: "search"}[fn]))
        return run(fn, calls, count)

    def use(n):
        monkeypatch.setattr(evaluation, "_worker_count", lambda: n)
        sent.clear()
        return sent

    monkeypatch.setattr(evaluation, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(_workers, "run", spy)
    yield use
    _workers.shutdown()


EVERY_KIND = [ModelSpec("lda"), ModelSpec("linear_svm"), ModelSpec("rbf_svm"), ModelSpec("mtl"),
              ModelSpec("cnn", params={"max_epochs": 5})]


class TestWorkerProcesses:
    def test_reports_do_not_depend_on_the_worker_count(self, workers):
        feats = weak_features()

        def reports():
            return [cross_validate(feats, spec, reps=2, folds=3, seed=6) for spec in EVERY_KIND]

        assert workers(1) == []
        expected = reports()
        assert workers(1) == []  # one CPU: every fit stays in this process
        for count in (2, 3):
            sent = workers(count)
            for report, want in zip(reports(), expected):
                assert report.rows == want.rows
                assert report.oof_posteriors.tobytes() == want.oof_posteriors.tobytes()
                assert report.unconverged_fits == want.unconverged_fits
            assert sent == [(kind, "unit") for kind in MODEL_KINDS]

    def test_a_replaced_learner_keeps_its_kind_in_this_process(self, workers, monkeypatch):
        # As the benchmark's MTL capture does: the spy sees every MTL fit,
        # while CNN fits in the same process still go to workers.
        fits, mtl_fit = [], evaluation.mtl_fit

        def spy(*args, **kwargs):
            fits.append(args)
            return mtl_fit(*args, **kwargs)

        monkeypatch.setattr(evaluation, "mtl_fit", spy)
        sent = workers(2)
        feats = weak_features()
        cross_validate(feats, ModelSpec("mtl"), reps=2, folds=3, seed=6)
        cross_validate(feats, ModelSpec("cnn", params={"max_epochs": 5}), reps=2, folds=3, seed=6)
        assert len(fits) == 6
        assert sent == [("cnn", "unit")]
        # An MTL search fits through the replaced name too, so it stays here.
        fits.clear()
        cross_validate(feats, ModelSpec("mtl", grid={"alpha": [0.1, 10.0]}), reps=1, folds=3, seed=6)
        assert len(fits) == 3 * (1 + 2 * 5)
        assert sent == [("cnn", "unit")]

    def test_a_replaced_final_fit_leaves_the_search_to_workers(self, workers, monkeypatch):
        # As the benchmark's final-model capture does: the spy sees every
        # final fit, on its unit's training fold and in plan order, while
        # workers run the inner searches. An LDA spec has no grid, so
        # nothing to search, and stays in this process.
        specs = [ModelSpec("linear_svm"), ModelSpec("rbf_svm"),
                 ModelSpec("rbf_svm", params={"gamma": 0.1}, grid={"C": [0.1, 10.0]}), ModelSpec("lda")]
        feats = weak_features()
        train_sets = [feats.X[train_idx].tobytes() for _, _, train_idx, _, _ in fold_plan(feats.y_signs(), 2, 3, 6)]
        fits, shallow_fit = [], evaluation.shallow_fit

        def spy(X, y, *args, **kwargs):
            fits.append(np.array(X).tobytes())
            return shallow_fit(X, y, *args, **kwargs)

        monkeypatch.setattr(evaluation, "shallow_fit", spy)
        subsets, subset = [], FeatureMatrix.subset

        def subset_spy(self, idx):
            subsets.append(len(idx))
            return subset(self, idx)

        monkeypatch.setattr(FeatureMatrix, "subset", subset_spy)
        reports = {}
        for count in (1, 2, 3):
            sent = workers(count)
            for spec in specs:
                fits.clear()
                subsets.clear()
                reports[count, spec.kind, str(spec.grid)] = cross_validate(feats, spec, reps=2, folds=3, seed=6)
                assert fits == train_sets, spec
                if count > 1 or not spec.grid:  # no search here: each unit's final fit takes its two sides
                    assert len(subsets) == 2 * len(train_sets), spec
            assert sent == ([] if count == 1 else [(spec.kind, "search") for spec in specs[:3]])
        for (count, *key), report in reports.items():
            expected = reports[(1, *key)]  # made in this process, as every report is with one worker
            assert report.rows == expected.rows
            assert report.oof_posteriors.tobytes() == expected.oof_posteriors.tobytes()
            assert report.unconverged_fits == expected.unconverged_fits

    def test_stage_name_lists_cover_every_name_the_stages_load(self):
        # A stage goes to a worker only while every name on its list holds
        # what it held at import; a name the code loads but the list lacks
        # could be replaced by a caller and go unseen in a worker. A worker
        # runs `_unit_params` (the search) or `_fit_unit` (search and final fit).
        for kind in MODEL_KINDS:
            lookups = evaluation._stage_lookups(kind)
            search = set(lookups["search"][0]), set(lookups["search"][1])
            final = search[0] | set(lookups["final"][0]), search[1] | set(lookups["final"][1])
            for entry, (names, modules) in ((evaluation._unit_params, search), (evaluation._fit_unit, final)):
                loaded, reached = module_globals_loaded(entry, kind)
                assert loaded <= names, (kind, entry.__name__, sorted(loaded - names))
                assert reached <= modules, (kind, entry.__name__, reached - modules)
            if kind in evaluation.SHALLOW_KINDS:
                loaded, _ = module_globals_loaded(evaluation._unit_params, kind)
                assert not loaded & {"shallow_fit", "fit_model", "predict_proba"}

    def test_a_final_fit_that_raises_while_searches_are_pending(self, tmp_path):
        # In a process of its own session, whose timeout fails the test if a
        # wait hangs: the parent's final fit raises while workers still search
        # later units; the error reaches the caller unchanged, the next call
        # goes to workers and matches this process's fits, and no process of
        # the session outlives it.
        code = (
            "import json\n"
            "from adaffect import evaluation\n"
            "from adaffect.synthgen import GenSpec, gen_quadrant_data\n"
            "if __name__ == '__main__':\n"
            "    feats = gen_quadrant_data(GenSpec(seed=3, n_per_task=10, dims=9, class_separation=1.0,"
            " task_correlation=0.9, noise_std=0.1)).features\n"
            "    spec = evaluation.ModelSpec('rbf_svm')\n"
            "    expected = evaluation.cross_validate(feats, spec, reps=2, folds=3, seed=6)\n"
            "    evaluation._POOL_AFTER_S, evaluation._worker_count = 0.0, lambda: 2\n"
            "    fit, finals = evaluation.shallow_fit, []\n"
            "    def failing(*args, **kwargs):\n"
            "        finals.append(1)\n"
            "        if len(finals) == 2:\n"
            "            raise ArithmeticError('final fit 2 failed')\n"
            "        return fit(*args, **kwargs)\n"
            "    evaluation.shallow_fit = failing\n"
            "    try:\n"
            "        evaluation.cross_validate(feats, spec, reps=2, folds=3, seed=6)\n"
            "    except ArithmeticError as exc:\n"
            "        error = [type(exc).__name__, str(exc), len(finals)]\n"
            "    evaluation.shallow_fit = fit\n"
            "    again = evaluation.cross_validate(feats, spec, reps=2, folds=3, seed=6)\n"
            "    same = (again.rows == expected.rows\n"
            "            and again.oof_posteriors.tobytes() == expected.oof_posteriors.tobytes())\n"
            "    import multiprocessing\n"
            "    print(json.dumps([error, same, len(multiprocessing.active_children())]))\n"
        )
        src = str(Path(evaluation.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert json.loads(out) == [["ArithmeticError", "final fit 2 failed", 2], True, 2]
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)  # the session's process group is empty
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_an_error_in_a_worker_reaches_the_caller_unchanged(self, workers, tmp_path, capsys):
        feats = small_features()
        short = FeatureMatrix(feats.X[:, :4], feats.labels, feats.quadrants, feats.item_ids)
        write_feature_csv(tmp_path / "f.csv", short)
        errors = {}
        for count in (1, 2):
            sent = workers(count)
            with pytest.raises(TooShortInputError) as exc:
                cross_validate(short, ModelSpec("cnn"), reps=1, folds=3, seed=0)
            assert main(["evaluate", "--features", str(tmp_path / "f.csv"), "--model", "cnn", "--reps", "1",
                         "--folds", "3", "--out", str(tmp_path / "r.csv")]) == 1
            errors[count] = (str(exc.value), capsys.readouterr().err)
            assert sent == [("cnn", "unit")] * (count - 1) * 2
        assert errors[1] == errors[2] == ("need at least 8 input features, got 4",
                                          "error: need at least 8 input features, got 4\n")
        assert not (tmp_path / "r.csv").exists()

    def test_cli_outputs_do_not_depend_on_the_worker_count(self, workers, tmp_path):
        write_feature_csv(tmp_path / "f.csv", weak_features())
        outputs = []
        for count in (1, 2):
            sent = workers(count)
            out = tmp_path / str(count)
            assert main(["evaluate", "--features", str(tmp_path / "f.csv"), "--model", "cnn", "--hyper",
                         "max_epochs=5", "--reps", "2", "--folds", "3", "--out", str(out / "r.csv"),
                         "--predictions", str(out / "p.csv")]) == 0
            outputs.append([(out / name).read_bytes() for name in ("r.csv", "p.csv")])
            assert sent == [("cnn", "unit")] * (count - 1)
        assert outputs[0] == outputs[1]

    def test_closing_the_iterator_cancels_the_calls_not_started(self, tmp_path):
        # Twelve slow calls on two workers; after the first result the
        # iterator is closed, and the calls no worker had started never run,
        # not even before a later call, which the pool runs after them.
        (tmp_path / "slow_touch.py").write_text(
            "import pathlib, time\n"
            "def touch(path):\n"
            "    time.sleep(0.1)\n"
            "    pathlib.Path(path).touch()\n"
        )
        code = (
            "import sys\n"
            "from adaffect import _workers\n"
            "from slow_touch import touch\n"
            "if __name__ == '__main__':\n"
            "    results = _workers.run(touch, [(f'{sys.argv[1]}/{i}',) for i in range(12)], 2)\n"
            "    next(results)\n"
            "    results.close()\n"
            "    print(list(_workers.run(abs, [(-1,)], 2)))\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        src = str(Path(evaluation.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, str(out)], env=dict(os.environ, PYTHONPATH=f"{src}:{tmp_path}"),
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout == "[1]\n"
        assert 1 <= len(list(out.iterdir())) < 12

    def test_a_worker_that_dies_raises_and_the_next_call_starts_new_workers(self):
        # In a process of its own, whose timeout fails the test if a wait hangs.
        code = (
            "import os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from adaffect import _workers\n"
            "try:\n"
            "    list(_workers.run(os._exit, [(3,), (3,)], 2))\n"
            "except BrokenProcessPool:\n"
            "    print(list(_workers.run(abs, [(-1,), (2,), (-3,)], 2)))\n"
        )
        assert run_python(code) == "[1, 2, 3]\n"

    def test_a_short_run_starts_no_worker(self):
        # Below _POOL_AFTER_S of fold fits a process imports no pool machinery
        # and has no child process; importing this module imports none either.
        code = (
            "import json, sys\n"
            "from adaffect import evaluation\n"
            "from adaffect.synthgen import GenSpec, gen_quadrant_data\n"
            "pool = ('multiprocessing', 'concurrent.futures', 'adaffect._workers')\n"
            "loaded = [[m for m in pool if m in sys.modules]]\n"
            "feats = gen_quadrant_data(GenSpec(seed=2, n_per_task=8, dims=9, class_separation=2.0,"
            " task_correlation=0.5, noise_std=0.1)).features\n"
            "evaluation.cross_validate(feats, evaluation.ModelSpec('lda'), reps=2, folds=3, seed=6)\n"
            "assert 0.0 < evaluation._portable_fit_s < evaluation._POOL_AFTER_S\n"
            "loaded.append([m for m in pool if m in sys.modules])\n"
            "import multiprocessing\n"
            "print(json.dumps([loaded, len(multiprocessing.active_children())]))\n"
        )
        assert json.loads(run_python(code)) == [[[], []], 0]


def module_globals_loaded(fn, kind: str) -> tuple[set, set]:
    """The `evaluation` globals that running `fn`, an evaluation function,
    for a `kind` unit loads by name, and the learner modules it reaches.

    Follows each code object's `co_names` (attribute names among them may
    add a name, never lose one), its nested code objects, and the
    evaluation functions it loads; of a table keyed by kind, such as
    `_LEARNERS`, only `kind`'s entry.
    """
    namespace, loaded, reached = vars(evaluation), set(), set()
    todo, seen = [fn.__code__], set()
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        for name in set(code.co_names) & set(namespace):
            loaded.add(name)
            value = namespace[name]
            if isinstance(value, dict) and kind in value:
                value = value[kind]
            for item in value if isinstance(value, tuple) else (value,):
                item = getattr(item, "func", item)  # a functools.partial
                module = item if isinstance(item, types.ModuleType) else sys.modules.get(getattr(item, "__module__", ""))
                if isinstance(item, types.FunctionType) and module is evaluation:
                    todo.append(item.__code__)
                elif module is not None and module.__name__.startswith("adaffect.learners."):
                    reached.add(module)
    return loaded, reached


def run_python(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter that imports this
    checkout's adaffect."""
    src = str(Path(evaluation.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True).stdout
