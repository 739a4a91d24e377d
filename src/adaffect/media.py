"""Content-centric descriptors: short-time Fourier spectrograms and the
classic handcrafted audio/video affect correlates (sound energy, pitch,
shot-change frequency, motion activity, colorfulness), aggregated per
second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PITCH_MIN_HZ = 60.0
PITCH_MAX_HZ = 500.0
VOICING_THRESHOLD = 0.3
HISTOGRAM_BINS = 64

AUDIO_DESCRIPTORS = ["sound_energy", "pitch_mean", "pitch_std", "voiced_fraction"]
VIDEO_DESCRIPTORS = ["shot_changes", "motion_activity", "colorfulness"]


class TooShortClipError(ValueError):
    """Audio shorter than one analysis window."""


@dataclass
class AudioClip:
    """Interleaved samples in [-1,1]; channels > 1 means interleaved frames."""

    samples: np.ndarray
    sample_rate: int
    channels: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float).reshape(-1)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.channels < 1 or self.samples.size % self.channels != 0:
            raise ValueError("sample count must divide evenly into channels")

    def to_mono(self) -> "AudioClip":
        if self.channels == 1:
            return self
        mixed = self.samples.reshape(-1, self.channels).mean(axis=1)
        return AudioClip(mixed, self.sample_rate, 1)


@dataclass
class FrameSequence:
    """Ordered frames, each height x width x 3 with intensities in [0,1]."""

    frames: np.ndarray
    frame_rate: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise ValueError("frames must be n x H x W x 3")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class Spectrogram:
    magnitudes: np.ndarray  # frames x bins, linear magnitude
    window_ms: float
    hop_ms: float
    sample_rate: int

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if np.any(self.magnitudes < 0):
            raise ValueError("magnitudes must be nonnegative")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms / 1000.0 * self.sample_rate))

    def total_energy(self) -> float:
        """Time-domain-equivalent energy: sum over frames of |X|^2 / W with
        one-sided bins doubled (DC and Nyquist counted once)."""
        w = self.window_samples
        m2 = self.magnitudes**2
        weights = np.full(m2.shape[1], 2.0)
        weights[0] = 1.0
        if w % 2 == 0:
            weights[-1] = 1.0
        return float(np.sum(m2 @ weights) / w)


@dataclass
class DescriptorSeries:
    """One row per full second of input; columns are named descriptors."""

    values: np.ndarray
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not self.names:
            self.names = [f"d{j}" for j in range(self.values.shape[1])]
        if len(self.names) != self.values.shape[1]:
            raise ValueError("name count must match column count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("descriptor series contains non-finite values")

    @property
    def n_seconds(self) -> int:
        return self.values.shape[0]


def _frame_view(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    n_frames = (len(x) - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def stft_spectrogram(
    a: AudioClip,
    window_ms: float = 40.0,
    hop_ms: float = 20.0,
    window_fn: str = "hann",
) -> Spectrogram:
    """Linear magnitude spectrogram; stereo input is mixed to mono first."""
    mono = a.to_mono()
    window = int(round(window_ms / 1000.0 * mono.sample_rate))
    hop = int(round(hop_ms / 1000.0 * mono.sample_rate))
    if window < 2 or hop < 1:
        raise ValueError("window and hop must span at least a couple of samples")
    if mono.samples.size < window:
        raise TooShortClipError(
            f"clip of {mono.samples.size} samples is shorter than one {window}-sample window"
        )
    if window_fn == "hann":
        taper = np.hanning(window)
    elif window_fn == "rectangular":
        taper = np.ones(window)
    else:
        raise ValueError(f"unknown window function {window_fn!r}")
    frames = _frame_view(mono.samples, window, hop) * taper
    mags = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(mags, window_ms, hop_ms, mono.sample_rate)


def _autocorr_pitch(frame: np.ndarray, sample_rate: int) -> float:
    """Fundamental frequency via the biased autocorrelation peak restricted
    to the speech band; 0.0 when the frame is judged unvoiced."""
    lag_min = max(1, int(np.ceil(sample_rate / PITCH_MAX_HZ)))
    lag_max = min(len(frame) - 1, int(np.floor(sample_rate / PITCH_MIN_HZ)))
    if lag_max <= lag_min:
        return 0.0
    r0 = float(np.dot(frame, frame))
    if r0 <= 0.0:
        return 0.0
    corr = np.correlate(frame, frame, mode="full")[len(frame) - 1 :]
    window = corr[lag_min : lag_max + 1]
    best = int(np.argmax(window))
    if window[best] / r0 < VOICING_THRESHOLD:
        return 0.0
    return sample_rate / float(lag_min + best)


def _smooth_rows(values: np.ndarray, width: int = 5) -> np.ndarray:
    """Kaiser-window weighted moving average along the first axis."""
    if len(values) < 2:
        return values
    width = min(width if width % 2 == 1 else width + 1, len(values) | 1)
    taper = np.kaiser(width, beta=5.0)
    taper /= taper.sum()
    pad = width // 2
    padded = np.pad(values, [(pad, pad)] + [(0, 0)] * (values.ndim - 1), mode="edge")
    out = np.empty_like(values, dtype=float)
    for i in range(len(values)):
        seg = padded[i : i + width]
        out[i] = np.tensordot(taper, seg, axes=(0, 0))
    return out


def hanjalic_audio(a: AudioClip, smooth_frames: bool = False) -> DescriptorSeries:
    """Per-second sound energy and pitch statistics.

    Energy is the mean squared amplitude over the second. Pitch is estimated
    per 40 ms frame by autocorrelation within 60-500 Hz; per-second mean and
    std are taken over voiced frames only (0 when fully unvoiced).
    """
    mono = a.to_mono()
    sr = mono.sample_rate
    n_seconds = int(mono.samples.size // sr)
    if n_seconds < 1:
        raise TooShortClipError("need at least one full second of audio")
    frame_len = int(round(0.040 * sr))
    rows = []
    for s in range(n_seconds):
        chunk = mono.samples[s * sr : (s + 1) * sr]
        energy = float(np.mean(chunk**2))
        frames = _frame_view(chunk, frame_len, frame_len)
        pitches = np.array([_autocorr_pitch(f, sr) for f in frames])
        if smooth_frames and pitches.size > 1:
            pitches = _smooth_rows(pitches)
        voiced = pitches[pitches > 0]
        if voiced.size:
            rows.append([energy, float(voiced.mean()), float(voiced.std()), voiced.size / len(pitches)])
        else:
            rows.append([energy, 0.0, 0.0, 0.0])
    return DescriptorSeries(np.asarray(rows), list(AUDIO_DESCRIPTORS))


def _gray(frames: np.ndarray) -> np.ndarray:
    return frames.mean(axis=3)


def _histograms(gray: np.ndarray) -> np.ndarray:
    """Normalized intensity histograms per frame."""
    out = np.empty((gray.shape[0], HISTOGRAM_BINS))
    for i, g in enumerate(gray):
        h, _ = np.histogram(g, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        out[i] = h / g.size
    return out


def colorfulness(frame: np.ndarray) -> float:
    """Opponent-axes statistic: sqrt(var_rg + var_yb) + 0.3 sqrt(mean_rg^2 + mean_yb^2)."""
    r, g, b = frame[..., 0], frame[..., 1], frame[..., 2]
    rg = r - g
    yb = 0.5 * (r + g) - b
    std = np.sqrt(rg.var() + yb.var())
    mean = np.sqrt(rg.mean() ** 2 + yb.mean() ** 2)
    return float(std + 0.3 * mean)


def hanjalic_video(v: FrameSequence, smooth_frames: bool = False) -> DescriptorSeries:
    """Per-second shot-change count, motion activity, and colorfulness.

    A shot change is a consecutive-frame histogram L1 distance above
    mean + 3*std of all distances in the clip; motion activity is the mean
    absolute inter-frame intensity difference.
    """
    if v.n_frames < 2:
        raise ValueError("need at least 2 frames")
    n_seconds = int(v.n_frames // v.frame_rate)
    if n_seconds < 1:
        raise ValueError("need at least one full second of video")
    gray = _gray(v.frames)
    hists = _histograms(gray)
    dists = np.abs(np.diff(hists, axis=0)).sum(axis=1)  # distance i: frames i -> i+1
    diffs = np.abs(np.diff(gray, axis=0)).mean(axis=(1, 2))
    if smooth_frames:
        dists = _smooth_rows(dists)
        diffs = _smooth_rows(diffs)
    threshold = dists.mean() + 3.0 * dists.std()
    cuts = dists > threshold
    colors = np.array([colorfulness(f) for f in v.frames])

    fps = v.frame_rate
    rows = []
    for s in range(n_seconds):
        lo = int(np.floor(s * fps))
        hi = int(np.floor((s + 1) * fps))
        # The transition into frame k belongs to k's second.
        pair_idx = np.arange(max(lo, 1), min(hi, v.n_frames))
        shot_count = float(cuts[pair_idx - 1].sum()) if pair_idx.size else 0.0
        motion = float(diffs[pair_idx - 1].mean()) if pair_idx.size else 0.0
        color = float(colors[lo:hi].mean())
        rows.append([shot_count, motion, color])
    return DescriptorSeries(np.asarray(rows), list(VIDEO_DESCRIPTORS))


WINDOW_MODES = ("all", "first30", "last30", "last10")


def temporal_window(series: DescriptorSeries, mode: str) -> DescriptorSeries:
    """Return the selected span of whole seconds (30/30/10 rows) of a
    descriptor series. Spans longer than the series return it unchanged.
    """
    if mode not in WINDOW_MODES:
        raise ValueError(f"unknown window mode {mode!r}")
    if not isinstance(series, DescriptorSeries):
        raise TypeError(f"cannot window a {type(series).__name__}")
    if series.n_seconds < 1:
        raise ValueError("series must span at least one second")
    if mode == "all":
        return series
    rows = {"first30": series.values[:30], "last30": series.values[-30:], "last10": series.values[-10:]}[mode]
    return DescriptorSeries(rows.copy(), list(series.names))
