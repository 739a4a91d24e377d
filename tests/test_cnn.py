import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from gradcheck import grad_check_cnn, grad_check_mtl_smooth
from oracles import reference_cnn_gradients, reference_cnn_train

from adaffect.evaluation import _argmax_signs
from adaffect.learners.cnn import (
    CnnConfig,
    CnnModel,
    TooShortInputError,
    _init_params,
    cnn_gradients,
    cnn_loss,
    cnn_predict_proba,
    cnn_train,
)
from adaffect.learners.mtl import build_task_graph
from adaffect.learners.serialize import load_model, save_model


def separable_features(n=32, k=16, scale=8.0, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    X = rng.normal(size=(n, k)) + scale / 2.0 * y[:, None]
    return X, y


def expected_param_count(k: int, config: CnnConfig = CnnConfig()) -> int:
    """Closed-form parameter count for input length k."""
    f, w, h = config.n_filters, config.filter_width, config.fc_units
    k2 = k - 2 * (w - 1)
    return (f * w + f) + (f * f * w + f) + (f * k2 * h + h) + (h * 2 + 2)


class TestArchitecture:
    def test_param_count_closed_form(self):
        for k in (8, 16, 40):
            X, y = separable_features(n=12, k=k)
            model = cnn_train(X, y, CnnConfig(max_epochs=1))
            assert sum(p.size for p in model.params.values()) == expected_param_count(k)

    def test_param_count_formula_value(self):
        # 64*3+64 conv1, 64*64*3+64 conv2, 64*(k-4)*128+128 fc, 128*2+2 out
        k = 16
        expect = (64 * 3 + 64) + (64 * 64 * 3 + 64) + (64 * (k - 4) * 128 + 128) + (128 * 2 + 2)
        assert expected_param_count(k) == expect

    def test_too_short_input(self):
        X, y = separable_features(n=10, k=4)
        with pytest.raises(TooShortInputError):
            cnn_train(X, y)

    def test_too_short_for_filter_width(self):
        X, y = separable_features(n=10, k=8)
        with pytest.raises(TooShortInputError, match="at least 9 input features, got 8"):
            cnn_train(X, y, CnnConfig(filter_width=5))


class TestTraining:
    def test_overfits_tiny_separable_set(self):
        X, y = separable_features(n=32, k=16, scale=8.0)
        config = CnnConfig(dropout=0.0, seed=3)
        model = cnn_train(X, y, config, val_data=(X, y))
        pred = _argmax_signs(cnn_predict_proba(model, X))
        assert np.mean(pred == y) == 1.0

    def test_patience_arithmetic_stops_at_epoch_six(self):
        # Validation labels opposite to training labels: every step toward the
        # training fit strictly raises the validation loss from epoch 1 on.
        X, y = separable_features(n=32, k=8, scale=12.0, seed=9)
        config = CnnConfig(dropout=0.0, weight_decay=0.0, learning_rate=0.01, seed=1)
        model = cnn_train(X, y, config, val_data=(X, -y))
        losses = model.history["val_loss"]
        assert all(b > a for a, b in zip(losses, losses[1:]))
        assert model.history["stopped_epoch"] == 6
        assert len(losses) == 6

    def test_class_constant_inputs_plateau_at_ln2(self):
        n, k = 32, 12
        X = np.tile(np.linspace(-1, 1, k), (n, 1))
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        config = CnnConfig(dropout=0.0, weight_decay=0.0, seed=2)
        model = cnn_train(X, y, config, val_data=(X, y))
        targets = np.where(y > 0, 0, 1)  # class index 0 is High
        assert cnn_loss(model, X, targets) == pytest.approx(math.log(2.0), abs=0.05)

    def test_fixed_seed_bit_reproducible(self):
        X, y = separable_features(n=24, k=10, seed=5)
        config = CnnConfig(max_epochs=5, seed=11)
        m1 = cnn_train(X, y, config)
        m2 = cnn_train(X, y, config)
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_dropout_only_during_training(self):
        X, y = separable_features(n=16, k=8)
        model = cnn_train(X, y, CnnConfig(max_epochs=2, dropout=0.5, seed=4))
        p1 = cnn_predict_proba(model, X)
        p2 = cnn_predict_proba(model, X)
        assert np.array_equal(p1, p2)


class TestEarlyStop:
    """Patience counts from the best validation loss, and the fit returns
    the weights of that epoch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_returns_best_validation_weights(self, seed):
        X, y = alternating_features(48, 12, seed=seed)
        X_val, y_val = alternating_features(16, 12, seed=seed + 100)
        config = CnnConfig(weight_decay=0.0, max_epochs=60, seed=seed)
        model = cnn_train(X, y, config, val_data=(X_val, y_val))
        losses = model.history["val_loss"]
        best_epoch = model.history["best_epoch"]
        assert best_epoch == int(np.argmin(losses)) + 1
        # The history's losses were computed on scaled inputs with the scale
        # still in the training copy of W1, so they agree to float32 rounding.
        assert cnn_loss(model, X_val, np.where(y_val > 0, 0, 1)) == pytest.approx(min(losses), rel=1e-5)
        stopped = model.history["stopped_epoch"]
        assert stopped == len(losses)
        if stopped < config.max_epochs:
            assert stopped - best_epoch == config.patience
        else:
            assert config.max_epochs - best_epoch < config.patience

    def test_default_fit_stops_before_the_cap(self):
        X, y = separable_features(n=40, k=16, scale=2.0, seed=4)
        model = cnn_train(X, y, CnnConfig(seed=4))
        assert model.history["stopped_epoch"] < CnnConfig.max_epochs
        assert model.history["stopped_epoch"] - model.history["best_epoch"] == CnnConfig.patience


class TestInputScale:
    """Training divides the inputs by the training split's RMS and folds that
    scale into W1, so the fit does not depend on the inputs' units."""

    @pytest.mark.parametrize("given_val", (False, True))
    def test_power_of_two_scaled_inputs_give_identical_posteriors(self, given_val):
        # A power-of-two factor passes exactly through the RMS, the division
        # and the fold, so the two fits are the same network bit for bit.
        X, y = alternating_features(40, 12, seed=21)
        X_val, y_val = alternating_features(10, 12, seed=22)
        config = CnnConfig(max_epochs=12, seed=21)
        factor = 2.0**10
        plain = cnn_train(X, y, config, (X_val, y_val) if given_val else None)
        scaled = cnn_train(factor * X, y, config, (factor * X_val, y_val) if given_val else None)
        assert plain.history == scaled.history
        assert_bits_equal(cnn_predict_proba(scaled, factor * X), cnn_predict_proba(plain, X), "proba")

    def test_raw_eeg_features_train_without_overflow(self):
        # The first principal component of these features reaches |x| ~ 800;
        # an SGD step of 3e-3 on them unscaled overflows float32.
        from test_pipeline import eeg_pipeline_features

        feats = eeg_pipeline_features(snr=10.0, seed=31)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = cnn_train(feats.X, feats.y_signs())
            proba = cnn_predict_proba(model, feats.X)
        assert all(np.all(np.isfinite(p)) for p in model.params.values())
        assert np.mean(_argmax_signs(proba) == feats.y_signs()) >= 0.9


class TestPredictions:
    def test_softmax_rows_sum_to_one(self):
        # Training runs in float32; the softmax runs on logits cast to float64.
        X, y = separable_features(n=20, k=9, seed=6)
        model = cnn_train(X, y, CnnConfig(max_epochs=3, seed=6))
        assert all(p.dtype == np.float32 for p in model.params.values())
        rng = np.random.default_rng(0)
        proba = cnn_predict_proba(model, rng.normal(size=(50, 9)))
        assert proba.dtype == np.float64
        assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-12

    def test_trained_model_matches_training_labels(self):
        X, y = separable_features(n=32, k=16, scale=8.0, seed=7)
        model = cnn_train(X, y, CnnConfig(dropout=0.0, seed=7), val_data=(X, y))
        assert np.array_equal(_argmax_signs(cnn_predict_proba(model, X)), y)

    def test_dimension_mismatch(self):
        X, y = separable_features(n=16, k=10)
        model = cnn_train(X, y, CnnConfig(max_epochs=1))
        with pytest.raises(ValueError, match="dims"):
            cnn_predict_proba(model, np.zeros((3, 12)))


class TestGradCheck:
    def test_fresh_cnn_gradients(self):
        rng = np.random.default_rng(8)
        config = CnnConfig(dropout=0.0, seed=8)
        model = CnnModel(config=config, input_dim=12)
        model.params = _init_params(12, config, rng)
        X = rng.normal(size=(4, 12))
        targets = np.array([0, 1, 0, 1])
        assert grad_check_cnn(model, X, targets, n_coords=200, seed=0) < 1e-4

    def test_zero_network_zero_input(self):
        config = CnnConfig(dropout=0.0, weight_decay=0.0)
        model = CnnModel(config=config, input_dim=10)
        model.params = {
            k: np.zeros_like(v)
            for k, v in _init_params(10, config, np.random.default_rng(0)).items()
        }
        X = np.zeros((2, 10))
        err = grad_check_cnn(model, X, np.array([0, 1]), n_coords=200, seed=1)
        assert err < 1e-4

    def test_mtl_smooth_gradients(self):
        rng = np.random.default_rng(9)
        g = build_task_graph()
        Xs = [rng.normal(size=(n, 5)) for n in (7, 3, 9, 5)]  # unequal, so some tasks are padded
        Ys = [np.sign(rng.normal(size=len(X))) for X in Xs]
        W = rng.normal(size=(5, 4))
        bias = rng.normal(size=4)
        err = grad_check_mtl_smooth(W, bias, Xs, Ys, alpha=0.7, gamma=0.3, graph=g)
        assert err < 1e-6


def alternating_features(n, k, seed):
    """n items (odd n allowed) with alternating labels and a weak mean shift."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return rng.normal(size=(n, k)) + 0.5 * y[:, None], y


def assert_bits_equal(a, b, key):
    """Equal shape and bytes: -0.0 differs from 0.0, as it does in model.json."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), key


def assert_matches_reference(X, y, config, val_data=None):
    model = cnn_train(X, y, config, val_data)
    params, history = reference_cnn_train(X, y, config, val_data)
    assert list(model.params) == list(params)
    for key in params:
        assert_bits_equal(model.params[key], params[key], key)
    assert model.history == history
    return model


class TestReferenceIdentity:
    """cnn_train and cnn_gradients reproduce the per-array implementation
    kept in tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("k, last_batch, dropout, weight_decay, given_val", itertools.product(
        (8, 16, 40), (1, 13), (0.0, 0.5), (0.0, CnnConfig.weight_decay), (False, True)))
    def test_training_matches_reference(self, k, last_batch, dropout, weight_decay, given_val):
        # 32-item batches: n is chosen so the last batch holds `last_batch`
        # items (n = 37 leaves 33 training items after the carved 10%).
        n = 32 + last_batch if given_val else {1: 37, 13: 50}[last_batch]
        X, y = alternating_features(n, k, seed=k + last_batch)
        config = CnnConfig(max_epochs=3, dropout=dropout, weight_decay=weight_decay, seed=k)
        val_data = alternating_features(10, k, seed=99) if given_val else None
        assert_matches_reference(X, y, config, val_data)

    @pytest.mark.parametrize("width", (2, 5))
    def test_filter_width_matches_reference(self, width):
        # k = 10 leaves conv 2 with 2 output positions at width 5.
        X, y = alternating_features(40, 10, seed=width)
        assert_matches_reference(X, y, CnnConfig(filter_width=width, max_epochs=3, seed=width))

    def test_early_stop_matches_reference(self):
        X, y = separable_features(n=32, k=8, scale=12.0, seed=9)
        config = CnnConfig(weight_decay=0.0, learning_rate=0.01, seed=1)
        model = assert_matches_reference(X, y, config, val_data=(X, -y))
        assert model.history["stopped_epoch"] == 6

    @pytest.mark.parametrize("B, dtype", [
        pytest.param(B, dtype, id=f"{B}{suffix}")
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32")) for B in (1, 7, 32)
    ])
    def test_gradients_match_reference(self, B, dtype):
        rng = np.random.default_rng(B)
        config = CnnConfig()
        params = _init_params(16, config, rng)
        params = {key: (value + 0.01 * rng.standard_normal(value.shape)).astype(dtype)
                  for key, value in params.items()}
        X = rng.normal(size=(B, 16))
        targets = rng.integers(0, 2, size=B)
        model = CnnModel(config=config, input_dim=16, params=params)
        grads = cnn_gradients(model, X, targets)
        expect = reference_cnn_gradients(params, X, targets, config.weight_decay)
        assert set(grads) == set(expect)
        for key in expect:
            assert grads[key].dtype == dtype, key
            assert_bits_equal(grads[key], expect[key], key)


class TestModelFile:
    """A model file restores float32 params only when every stored value is
    exactly a float32, so each model predicts after a reload as it did before."""

    def test_trained_model_reloads_as_float32(self, tmp_path):
        X, y = separable_features(n=24, k=10, seed=2)
        model = cnn_train(X, y, CnnConfig(max_epochs=3, seed=2))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        for key in model.params:
            assert loaded.params[key].dtype == np.float32, key
            assert_bits_equal(loaded.params[key], model.params[key], key)
        assert_bits_equal(cnn_predict_proba(loaded, X), cnn_predict_proba(model, X), "proba")

    def test_float64_model_file_reloads_as_float64(self, tmp_path):
        # As a model file written before training ran in float32.
        rng = np.random.default_rng(5)
        config = CnnConfig(seed=5)
        model = CnnModel(config=config, input_dim=11, params=_init_params(11, config, rng))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        for key in model.params:
            assert loaded.params[key].dtype == np.float64, key
            assert_bits_equal(loaded.params[key], model.params[key], key)
        X = rng.normal(size=(9, 11))
        assert_bits_equal(cnn_predict_proba(loaded, X), cnn_predict_proba(model, X), "proba")
