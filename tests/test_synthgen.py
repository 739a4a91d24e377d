import tracemalloc

import numpy as np
import pytest
from oracles import reference_gen_synthetic_eeg

from adaffect.core import AffectLabel
from adaffect.eeg import bandpass_filter
from adaffect.media import hanjalic_video, stft_spectrogram
from adaffect.stats import fleiss_kappa, krippendorff_alpha
from adaffect.core import binarize_ratings
from adaffect.synthgen import (
    GenSpec,
    gen_quadrant_data,
    gen_rating_matrix,
    gen_synthetic_eeg,
    gen_test_media,
)

H = AffectLabel.HIGH


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n_per_task=0)
        with pytest.raises(ValueError):
            GenSpec(task_correlation=1.5)
        with pytest.raises(ValueError):
            GenSpec(noise_std=-1.0)


class TestQuadrantData:
    def test_reproducible(self):
        spec = GenSpec(seed=11, n_per_task=6, dims=10)
        a = gen_quadrant_data(spec)
        b = gen_quadrant_data(spec)
        assert np.array_equal(a.features.X, b.features.X)
        assert a.features.item_ids == b.features.item_ids

    def test_labels_match_projection_signs(self):
        data = gen_quadrant_data(GenSpec(seed=2, n_per_task=10, class_separation=2.0))
        signs = data.features.y_signs()
        assert np.array_equal(signs, np.sign(data.projections))

    def test_four_tasks_balanced(self):
        data = gen_quadrant_data(GenSpec(seed=3, n_per_task=8))
        codes = [q.code for q in data.features.quadrants]
        for code in ("HH", "HL", "LH", "LL"):
            assert codes.count(code) == 8

    def test_separable_case_linearly_separable_per_task(self):
        data = gen_quadrant_data(
            GenSpec(seed=4, n_per_task=20, class_separation=10.0, noise_std=0.1)
        )
        # Projection onto the true task weight separates with a wide margin.
        for t in range(4):
            idx = slice(t * 20, (t + 1) * 20)
            X = data.features.X[idx] - data.centers[t]
            proj = X @ data.task_weights[:, t]
            signs = data.features.y_signs()[idx]
            assert np.min(signs * proj) > 1.0

    def test_null_case_carries_no_signal(self):
        spec = GenSpec(seed=5, n_per_task=50, class_separation=0.0, noise_std=0.1)
        data = gen_quadrant_data(spec)
        # With zero separation the pushed component vanishes; feature rows are
        # label-independent, so the class-mean gap stays at noise scale.
        X, signs = data.features.X, data.features.y_signs()
        gap = np.linalg.norm(X[signs > 0].mean(axis=0) - X[signs < 0].mean(axis=0))
        assert gap < 0.5

    def test_full_correlation_shares_one_weight(self):
        data = gen_quadrant_data(GenSpec(seed=6, task_correlation=1.0))
        for t in range(1, 4):
            assert np.allclose(data.task_weights[:, 0], data.task_weights[:, t])

    def test_pooled_equals_per_task_least_squares_at_full_correlation(self):
        spec = GenSpec(seed=7, n_per_task=30, dims=12, task_correlation=1.0,
                       class_separation=2.0, noise_std=0.0)
        data = gen_quadrant_data(spec)
        X, proj = data.features.X, data.projections
        pooled, *_ = np.linalg.lstsq(X, proj, rcond=None)
        for t in range(4):
            idx = slice(t * 30, (t + 1) * 30)
            per_task, *_ = np.linalg.lstsq(X[idx], proj[idx], rcond=None)
            assert np.linalg.norm(per_task - pooled) < 1e-6

    def test_dims_guard(self):
        with pytest.raises(ValueError, match="dims"):
            gen_quadrant_data(GenSpec(dims=5))


class TestSyntheticEeg:
    def test_shapes_and_metadata(self):
        epochs, labels = gen_synthetic_eeg(GenSpec(seed=1, n_per_task=3), (8.0, 12.0), duration_s=5.0)
        assert len(epochs) == 6
        for e in epochs:
            assert e.data.shape == (14, 640)
            assert e.baseline.shape == (14, 128)
            assert e.clean

    def test_band_power_elevated_for_positives(self):
        spec = GenSpec(seed=2, n_per_task=5, class_separation=10.0, noise_std=1.0)
        epochs, labels = gen_synthetic_eeg(spec, (8.0, 12.0), duration_s=4.0)
        def band_power(e):
            filtered = bandpass_filter(e, 7.0, 13.0)
            return float(np.mean(filtered.data**2))
        pos = [band_power(e) for e, lab in zip(epochs, labels) if lab is H]
        neg = [band_power(e) for e, lab in zip(epochs, labels) if lab is not H]
        assert min(pos) > 5.0 * max(neg)

    def test_zero_snr_identical_statistics(self):
        spec = GenSpec(seed=3, n_per_task=4, class_separation=0.0)
        epochs, labels = gen_synthetic_eeg(spec, (8.0, 12.0), duration_s=2.0)
        powers = np.array([float(np.mean(e.data**2)) for e in epochs])
        pos = powers[np.array([lab is H for lab in labels])]
        neg = powers[~np.array([lab is H for lab in labels])]
        assert abs(pos.mean() - neg.mean()) < 0.5 * powers.std() + 0.2

    def test_invalid_band(self):
        with pytest.raises(ValueError, match="band"):
            gen_synthetic_eeg(GenSpec(), (40.0, 50.0))

    def test_reproducible(self):
        spec = GenSpec(seed=4, n_per_task=2)
        a, _ = gen_synthetic_eeg(spec, (8, 12), duration_s=2.0)
        b, _ = gen_synthetic_eeg(spec, (8, 12), duration_s=2.0)
        assert np.array_equal(a[0].data, b[0].data)

    @pytest.mark.parametrize("seed, n_per_task, duration_s, separation, noise_std, band", [
        (0, 1, 2.0, 1.0, 0.1, (8.0, 12.0)),
        (1, 2, 0.5, 1.0, 1.0, (8.0, 12.0)),      # data shorter than the 1 s baseline
        (2, 3, 1.2345, 0.0, 0.1, (4.0, 7.0)),    # 158.016 samples round to 158; no class signal
        (3, 4, 0.004, 2.5, 3.0, (13.0, 30.0)),   # 0.512 samples round to 1
        (4, 5, 3.3, 0.7, 0.5, (4.0, 7.0)),       # 422.4 samples round to 422
        (5, 8, 30.0, 1.0, 1.0, (8.0, 12.0)),     # the cli-pipeline benchmark's size
    ])
    def test_matches_per_epoch_oracle(self, seed, n_per_task, duration_s, separation, noise_std, band):
        # One recursion over all epochs gives the per-epoch loop's arrays, ids
        # and labels bit for bit.
        spec = GenSpec(seed=seed, n_per_task=n_per_task, class_separation=separation, noise_std=noise_std)
        epochs, labels = gen_synthetic_eeg(spec, band, duration_s=duration_s)
        expected = reference_gen_synthetic_eeg(spec, band, duration_s=duration_s)
        assert len(epochs) == len(labels) == len(expected) == 2 * n_per_task
        for epoch, label, (data, baseline, stimulus_id, expected_label) in zip(epochs, labels, expected):
            assert epoch.data.shape == data.shape and epoch.data.tobytes() == data.tobytes()
            assert epoch.baseline.shape == baseline.shape and epoch.baseline.tobytes() == baseline.tobytes()
            assert (epoch.stimulus_id, label) == (stimulus_id, expected_label)

    @pytest.mark.parametrize("duration_s", [0.001, 0.0039])
    def test_duration_without_a_sample_rejected(self, duration_s):
        with pytest.raises(ValueError, match=rf"^duration_s {duration_s} s gives no sample at the 128 Hz"):
            gen_synthetic_eeg(GenSpec(n_per_task=1), duration_s=duration_s)

    def test_peak_memory_is_the_returned_arrays(self):
        # Each epoch's noise is filtered in place, one second of all epochs at
        # a time, so the call holds little beyond the arrays it returns. A
        # first call makes numpy's one-time imports, which are not the generator's.
        gen_synthetic_eeg(GenSpec(n_per_task=1), duration_s=1)
        tracemalloc.start()
        try:
            epochs, _ = gen_synthetic_eeg(GenSpec(n_per_task=8), duration_s=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(e.data.nbytes + e.baseline.nbytes for e in epochs)
        assert peak <= returned + 2**20


class TestRatingMatrix:
    def test_full_agreement_alpha_and_kappa_one(self):
        m = gen_rating_matrix(6, 30, 1.0, seed=1)
        assert krippendorff_alpha(m, "ordinal").statistic == 1.0
        grid = binarize_ratings(m, "per_rater_mean")
        tallies = np.zeros((m.n_items, 2))
        for i in range(m.n_items):
            col = grid[:, i]
            tallies[i, 0] = sum(1 for v in col if v is AffectLabel.HIGH)
            tallies[i, 1] = sum(1 for v in col if v is AffectLabel.LOW)
        assert fleiss_kappa(tallies).statistic == 1.0

    def test_zero_agreement_alpha_near_zero(self):
        alphas = []
        for seed in range(20):
            m = gen_rating_matrix(5, 40, 0.0, seed=seed)
            alphas.append(krippendorff_alpha(m, "ordinal").statistic)
        assert abs(float(np.mean(alphas))) < 0.15

    def test_monotone_in_agreement_level(self):
        for seed in range(5):
            low = krippendorff_alpha(gen_rating_matrix(6, 40, 0.3, seed=seed), "ordinal").statistic
            high = krippendorff_alpha(gen_rating_matrix(6, 40, 0.9, seed=seed), "ordinal").statistic
            assert high > low

    def test_values_in_scale(self):
        m = gen_rating_matrix(4, 25, 0.5, seed=2, attribute="valence")
        assert m.values.min() >= -2.0 and m.values.max() <= 2.0


class TestTestMedia:
    def test_tone_spectrogram_bin(self):
        clip = gen_test_media("tone", freq_hz=1000.0, sample_rate=16000, duration_s=2.0)
        sg = stft_spectrogram(clip)
        assert np.all(np.argmax(sg.magnitudes, axis=1) == 40)

    def test_cut_sequence_detected(self):
        seq = gen_test_media("cut_sequence", n_frames=100, fps=25.0, cut_at=50)
        series = hanjalic_video(seq)
        assert series.values[2, 0] == 1.0
        assert series.values[:, 0].sum() == 1.0

    def test_static_sequence_no_motion(self):
        seq = gen_test_media("static_sequence", n_frames=60, fps=25.0, seed=3)
        series = hanjalic_video(seq)
        assert np.all(series.values[:, 1] == 0.0)

    def test_sweep_is_deterministic(self):
        a = gen_test_media("sweep", f0_hz=100, f1_hz=2000, duration_s=1.0)
        b = gen_test_media("sweep", f0_hz=100, f1_hz=2000, duration_s=1.0)
        assert np.array_equal(a.samples, b.samples)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            gen_test_media("nope")
