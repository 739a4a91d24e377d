import numpy as np
import pytest

from adaffect.media import (
    AudioClip,
    DescriptorSeries,
    FrameSequence,
    TooShortClipError,
    hanjalic_audio,
    hanjalic_video,
    stft_spectrogram,
    temporal_window,
)


def tone(freq, sr=16000, seconds=10.0, amplitude=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), sr, 1)


def gray_frames(n, value=0.5, h=16, w=16):
    return np.full((n, h, w, 3), value)


class TestSpectrogram:
    def test_silence_is_all_zero(self):
        sg = stft_spectrogram(AudioClip(np.zeros(16000), 16000, 1))
        assert np.all(sg.magnitudes == 0.0)

    def test_1khz_tone_argmax_bin_40(self):
        sg = stft_spectrogram(tone(1000.0), window_fn="hann")
        argmax = np.argmax(sg.magnitudes, axis=1)
        assert np.all(argmax == 40)

    def test_frame_count_formula(self):
        sg = stft_spectrogram(tone(1000.0, seconds=10.0))
        assert sg.magnitudes.shape[0] == (160000 - 640) // 320 + 1 == 499

    def test_tone_bin_matches_direct_dft(self):
        clip = tone(1000.0, seconds=1.0)
        sg = stft_spectrogram(clip, window_fn="rectangular")
        frame = clip.samples[:640]
        direct = np.abs(np.fft.rfft(frame))
        assert np.allclose(sg.magnitudes[0], direct, rtol=1e-9, atol=1e-9)

    def test_parseval_rectangular_non_overlapping(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1, 1, 640 * 25)
        clip = AudioClip(samples, 16000, 1)
        sg = stft_spectrogram(clip, window_ms=40.0, hop_ms=40.0, window_fn="rectangular")
        time_energy = float(np.sum(samples**2))
        assert sg.total_energy() == pytest.approx(time_energy, rel=1e-6)

    def test_too_short_clip(self):
        with pytest.raises(TooShortClipError):
            stft_spectrogram(AudioClip(np.zeros(100), 16000, 1))

    def test_stereo_mixdown(self):
        mono = tone(500.0, seconds=1.0)
        stereo = AudioClip(np.repeat(mono.samples, 2), 16000, 2)
        a = stft_spectrogram(mono)
        b = stft_spectrogram(stereo)
        assert np.allclose(a.magnitudes, b.magnitudes)


class TestHanjalicAudio:
    def test_zero_signal(self):
        series = hanjalic_audio(AudioClip(np.zeros(32000), 16000, 1))
        assert np.all(series.values[:, 0] == 0.0)
        assert np.all(series.values[:, 1] == 0.0)

    def test_square_wave_energy_one(self):
        sr = 16000
        t = np.arange(sr * 2)
        square = np.where((t // 40) % 2 == 0, 1.0, -1.0)
        series = hanjalic_audio(AudioClip(square, sr, 1))
        assert np.allclose(series.values[:, 0], 1.0)

    def test_sawtooth_pitch_near_200hz(self):
        sr = 16000
        t = np.arange(sr * 3) / sr
        saw = 0.8 * (2.0 * ((200.0 * t) % 1.0) - 1.0)
        series = hanjalic_audio(AudioClip(saw, sr, 1))
        assert np.all(np.abs(series.values[:, 1] - 200.0) <= 4.0)

    def test_amplitude_scaling_energy_quadratic_pitch_fixed(self):
        sr = 16000
        t = np.arange(sr * 2) / sr
        base = 0.4 * np.sin(2 * np.pi * 150.0 * t)
        s1 = hanjalic_audio(AudioClip(base, sr, 1))
        s2 = hanjalic_audio(AudioClip(2.0 * base, sr, 1))
        assert np.allclose(s2.values[:, 0], 4.0 * s1.values[:, 0], rtol=1e-9)
        assert np.all(np.abs(s2.values[:, 1] - s1.values[:, 1]) < 1.0)


class TestHanjalicVideo:
    def test_static_frames(self):
        v = FrameSequence(gray_frames(50, 0.5), 25.0)
        series = hanjalic_video(v)
        assert np.all(series.values[:, 0] == 0.0)  # no shot changes
        assert np.all(series.values[:, 1] == 0.0)  # no motion

    def test_single_hard_cut_detected_in_right_second(self):
        frames = np.concatenate([gray_frames(50, 0.1), gray_frames(25, 0.9)])
        v = FrameSequence(frames, 25.0)
        series = hanjalic_video(v)
        assert series.values[2, 0] == 1.0
        assert series.values[0, 0] == 0.0 and series.values[1, 0] == 0.0

    def test_gray_frames_zero_colorfulness(self):
        v = FrameSequence(gray_frames(30, 0.3), 25.0)
        series = hanjalic_video(v)
        assert np.all(series.values[:, 2] == 0.0)

    def test_brightness_offset_invariance_below_bin_width(self):
        rng = np.random.default_rng(1)
        # Pixel values at histogram-bin centers so a small global offset
        # cannot move them across bin edges.
        centers = (rng.integers(5, 59, size=(75, 8, 8)) + 0.5) / 64.0
        frames = np.repeat(centers[..., None], 3, axis=3)
        frames[40:] = np.clip(frames[40:] + 0.4, 0, 1)  # one real cut
        v1 = FrameSequence(frames, 25.0)
        v2 = FrameSequence(np.clip(frames + 0.004, 0, 1), 25.0)
        c1 = hanjalic_video(v1).values[:, 0]
        c2 = hanjalic_video(v2).values[:, 0]
        assert np.array_equal(c1, c2)


class TestTemporalWindow:
    def series(self, n):
        return DescriptorSeries(np.arange(n, dtype=float)[:, None], ["x"])

    def test_last10_takes_final_rows(self):
        out = temporal_window(self.series(60), "last10")
        assert out.values[:, 0].tolist() == list(range(50, 60))

    def test_short_series_clamps(self):
        out = temporal_window(self.series(8), "last30")
        assert out.n_seconds == 8

    def test_first30(self):
        out = temporal_window(self.series(45), "first30")
        assert out.values[:, 0].tolist() == list(range(30))

    def test_all_mode_identity(self):
        s = self.series(12)
        assert temporal_window(s, "all") is s
