import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaffect import WINDOW_MODES
from adaffect.eeg import (
    EegEpoch,
    InvalidBandError,
    MissingBaselineError,
    PcaModel,
    RankZeroDataError,
    ShortEpochError,
    bandpass_filter,
    baseline_correct,
    butter_bandpass_sos,
    pca_apply,
    pca_fit,
    vectorize,
)


def sine_epoch(freq, seconds=8.0, sr=128, amplitude=1.0):
    t = np.arange(int(sr * seconds)) / sr
    wave = amplitude * np.sin(2 * np.pi * freq * t)
    return EegEpoch(np.tile(wave, (14, 1)))


def band_amplitude(epoch, trim_s=2.0):
    # Trim filter edge transients; measure the steady-state RMS amplitude.
    trim = int(trim_s * 128)
    mid = epoch.data[0, trim:-trim] if epoch.n_samples > 2 * trim else epoch.data[0]
    return np.sqrt(2.0 * np.mean(mid**2))


class TestBandpass:
    def test_passband_tone_preserved(self):
        out = bandpass_filter(sine_epoch(10.0))
        assert band_amplitude(out) == pytest.approx(1.0, rel=0.05)

    def test_stopband_tone_attenuated_20db(self):
        # 60 Hz aliases at fs=128; use the band edge ratio instead: compare
        # a 10 Hz passband tone against a 60 Hz tone (above the 45 Hz edge).
        passband = bandpass_filter(sine_epoch(10.0))
        stopband = bandpass_filter(sine_epoch(60.0))
        ratio = band_amplitude(stopband) / band_amplitude(passband)
        assert 20.0 * np.log10(ratio) <= -20.0

    def test_dc_removed(self):
        epoch = EegEpoch(np.full((14, 1024), 7.5))
        out = bandpass_filter(epoch)
        assert np.max(np.abs(out.data)) < 0.05 * 7.5

    def test_invalid_band(self):
        with pytest.raises(InvalidBandError):
            bandpass_filter(sine_epoch(10.0), low=50.0, high=45.0)
        with pytest.raises(InvalidBandError):
            bandpass_filter(sine_epoch(10.0), low=0.1, high=70.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = EegEpoch(rng.normal(size=(14, 512)))
        y = EegEpoch(rng.normal(size=(14, 512)))
        a, b = 2.5, -1.25
        combined = bandpass_filter(EegEpoch(a * x.data + b * y.data))
        separate = a * bandpass_filter(x).data + b * bandpass_filter(y).data
        assert np.allclose(combined.data, separate, atol=1e-9)

    def test_short_epoch_names_stimulus_and_minimum(self):
        epoch = EegEpoch(np.ones((14, 27)), stimulus_id="ad07")
        with pytest.raises(ShortEpochError, match=r"^epoch 'ad07' has 27 samples; .* at least 28$"):
            bandpass_filter(epoch)
        assert bandpass_filter(EegEpoch(np.ones((14, 28)))).data.shape == (14, 28)

    def test_repeat_calls_are_bitwise_identical(self):
        x = EegEpoch(np.random.default_rng(3).normal(size=(14, 700)) * 40.0 + 12.0)
        assert bandpass_filter(x).data.tobytes() == bandpass_filter(x).data.tobytes()


class TestScipyOracle:
    """scipy.signal stays the reference for the numpy design and filter."""

    @pytest.mark.parametrize("low,high", [(0.1, 45.0), (4.0, 8.0), (0.01, 0.02), (30.0, 63.9)])
    def test_sections_equal_butter(self, low, high):
        from scipy import signal

        expect = signal.butter(4, [low, high], btype="bandpass", fs=128, output="sos")
        assert np.allclose(butter_bandpass_sos(low, high, 128.0), expect, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(28, 1500), low=st.floats(0.05, 40.0), width=st.floats(0.05, 1.0),
           offset=st.floats(-1e4, 1e4), gain=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_matches_sosfiltfilt(self, n, low, width, offset, gain, seed):
        from scipy import signal

        high = low + width * (63.9 - low)
        x = offset + gain * np.random.default_rng(seed).normal(size=(14, n))
        sos = signal.butter(4, [low, high], btype="bandpass", fs=128, output="sos")
        expect = signal.sosfiltfilt(sos, x, axis=1)
        got = bandpass_filter(EegEpoch(x), low, high).data
        assert np.max(np.abs(got - expect)) <= 1e-8 * np.max(np.abs(x))


class TestBaseline:
    def test_epoch_equal_to_baseline_mean_zeroes(self):
        baseline = np.tile(np.arange(14.0)[:, None], (1, 128))
        data = np.tile(np.arange(14.0)[:, None], (1, 256))
        out = baseline_correct(EegEpoch(data, baseline=baseline))
        assert np.allclose(out.data, 0.0)

    def test_subtraction_value(self):
        baseline = np.zeros((14, 128))
        baseline[1] = 5.0
        data = np.full((14, 100), 7.0)
        out = baseline_correct(EegEpoch(data, baseline=baseline))
        assert np.allclose(out.data[1], 2.0)
        assert np.allclose(out.data[0], 7.0)

    def test_missing_baseline(self):
        with pytest.raises(MissingBaselineError):
            baseline_correct(EegEpoch(np.zeros((14, 10))))


class TestVectorize:
    def test_first30_length(self):
        epoch = EegEpoch(np.zeros((14, 3840)))
        assert vectorize(epoch, "first30").size == 51338

    def test_last10_length(self):
        epoch = EegEpoch(np.zeros((14, 3840)))
        assert vectorize(epoch, "last10").size == 14 * 1280 == 17920

    def test_window_sample_counts(self):
        epoch = EegEpoch(np.arange(14 * 4000, dtype=float).reshape(14, 4000))
        for window, samples in (("first30", epoch.data[:, :3667]), ("last30", epoch.data[:, -3667:]),
                                ("last10", epoch.data[:, -1280:])):
            assert np.array_equal(vectorize(epoch, window).reshape(14, -1), samples)

    def test_every_window_mode_vectorizes(self):
        # The CLI offers adaffect.WINDOW_MODES as preprocess-eeg --window choices.
        epoch = EegEpoch(np.zeros((14, 3840)))
        assert [vectorize(epoch, window).size for window in WINDOW_MODES] == [14 * 3840, 51338, 51338, 17920]

    def test_unknown_window_mode(self):
        with pytest.raises(ValueError, match="unknown window mode"):
            vectorize(EegEpoch(np.zeros((14, 10))), "middle")

    def test_single_sample(self):
        epoch = EegEpoch(np.zeros((14, 1)))
        assert vectorize(epoch, "all").size == 14

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        epoch = EegEpoch(rng.normal(size=(14, 200)))
        vec = vectorize(epoch, "all")
        assert np.array_equal(vec.reshape(14, -1), epoch.data)

    def test_channel_major_order(self):
        data = np.arange(28.0).reshape(14, 2)
        vec = vectorize(EegEpoch(data), "all")
        assert vec[0] == 0.0 and vec[1] == 1.0 and vec[2] == 2.0


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(2)
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        rows = np.outer(rng.normal(size=50), direction) + 3.0
        model = pca_fit(rows, retain=0.9)
        assert model.k == 1
        assert model.retained_fraction == pytest.approx(1.0)

    def test_isotropic_2d_needs_both(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(10000, 2))
        model = pca_fit(rows, retain=0.9)
        assert model.k == 2

    def test_full_retain_reconstructs(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 8))
        model = pca_fit(rows, retain=1.0)
        recon = pca_apply(model, rows) @ model.components + model.mean
        err = np.linalg.norm(recon - rows) / np.linalg.norm(rows)
        assert err <= 1e-8

    def test_components_orthonormal_and_projections_decorrelated(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(100, 12)) @ rng.normal(size=(12, 12))
        model = pca_fit(rows, retain=0.95)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(model.k), atol=1e-8)
        proj = pca_apply(model, rows)
        cov = np.cov(proj, rowvar=False)
        off_diag = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diag)) < 1e-8
        assert np.sum(np.diag(np.atleast_2d(cov))) <= np.sum(np.var(rows, axis=0, ddof=1)) + 1e-8

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(60, 10)) * np.arange(1, 11)
        model = pca_fit(rows, retain=1.0)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_gram_and_direct_agree_up_to_sign(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(30, 100))  # rows < dims favors the Gram path
        direct = pca_fit(rows, retain=0.9, method="direct")
        gram = pca_fit(rows, retain=0.9, method="gram")
        assert direct.k == gram.k
        pd = pca_apply(direct, rows)
        pg = pca_apply(gram, rows)
        for j in range(direct.k):
            sign = np.sign(np.dot(pd[:, j], pg[:, j]))
            assert np.allclose(pd[:, j], sign * pg[:, j], atol=1e-6)

    def test_projection_does_not_depend_on_the_blas_thread_count(self):
        # A BLAS product sums in an order, and so to last bits, that depends on
        # its thread count at this size; the projection's bytes must not.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from adaffect.eeg import PcaModel, pca_apply\n"
            "rng = np.random.default_rng(9)\n"
            "model = PcaModel(rng.normal(size=500), rng.normal(size=(50, 500)), np.ones(50), 1.0)\n"
            "sys.stdout.write(pca_apply(model, rng.normal(size=(200, 500)) * 50.0).tobytes().hex())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
                 for threads in ("1", "2")]
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert len(outputs[0]) == 2 * 8 * 200 * 50
        assert outputs[0] == outputs[1]

    def test_rank_zero_error(self):
        with pytest.raises(RankZeroDataError):
            pca_fit(np.ones((5, 3)))
