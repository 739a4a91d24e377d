"""Seeded synthetic-data generators used as ground-truth oracles:
quadrant-structured feature sets, band-power EEG epochs, rating matrices
with a dialled agreement level, and deterministic test media.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ALL_QUADRANTS, AROUSAL_SCALE, VALENCE_SCALE, AffectLabel, FeatureMatrix, RatingMatrix, check_real
from .eeg import EEG_CHANNELS, EEG_SAMPLE_RATE, EegEpoch
from .media import AudioClip, FrameSequence

# Fixed construction constants for the quadrant generator.
CENTER_SCALE = 3.0
TASK_OFFSET_PATTERN = (1.0, -1.0, 0.5, -0.5)
TASK_OFFSET_SCALE = 2.0
MARGIN_SPREAD = 0.5


@dataclass(frozen=True)
class GenSpec:
    seed: int = 0
    n_per_task: int = 30
    dims: int = 16
    class_separation: float = 1.0
    task_correlation: float = 0.5
    noise_std: float = 0.1

    def __post_init__(self):
        if self.n_per_task < 1 or self.dims < 1:
            raise ValueError("counts must be >= 1")
        for name in ("class_separation", "noise_std"):
            check_real(name, getattr(self, name), lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
        if not 0.0 <= self.task_correlation <= 1.0:
            raise ValueError("task_correlation must lie in [0, 1]")


@dataclass
class QuadrantDataset:
    features: FeatureMatrix
    projections: np.ndarray     # signed noiseless margins, sign == label
    task_weights: np.ndarray    # dims x 4, unit columns
    centers: np.ndarray         # 4 x dims


def _orthonormal_directions(rng, dims: int, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dims, count)))
    return q.T  # count x dims rows


def gen_quadrant_data(spec: GenSpec) -> QuadrantDataset:
    """Four Gaussian clusters, one per quadrant task.

    Every task weight shares one direction with strength
    sqrt(task_correlation) plus an orthogonal private direction. Labels
    ride only on a pushed component of size class_separation/2 along the
    task weight (the surrounding noise is orthogonal to it), so
    class_separation = 0 leaves the features carrying no label signal.
    Cluster centers sit on separate orthogonal directions and carry a
    per-task offset along the shared direction that shrinks as
    sqrt(1 - task_correlation), which penalizes single pooled classifiers
    but vanishes for fully shared tasks.
    """
    if spec.dims < 9:
        raise ValueError("quadrant generator needs dims >= 9")
    rng = np.random.default_rng(spec.seed)
    rho = spec.task_correlation
    dirs = _orthonormal_directions(rng, spec.dims, 9)
    shared = dirs[0]
    private = dirs[1:5]
    center_dirs = dirs[5:9]
    weights = np.empty((spec.dims, 4))
    centers = np.empty((4, spec.dims))
    offsets = TASK_OFFSET_SCALE * np.sqrt(1.0 - rho) * np.asarray(TASK_OFFSET_PATTERN)
    for t in range(4):
        weights[:, t] = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * private[t]
        centers[t] = CENTER_SCALE * center_dirs[t] + offsets[t] * shared

    rows, labels, quads, ids, projections = [], [], [], [], []
    half = spec.class_separation / 2.0
    for t, quad in enumerate(ALL_QUADRANTS):
        n = spec.n_per_task
        w = weights[:, t]
        signs = np.repeat([1.0, -1.0], (n + 1) // 2)[:n]
        signs = signs[rng.permutation(n)]
        z = rng.standard_normal((n, spec.dims))
        z -= np.outer(z @ w, w)  # ambient noise orthogonal to the task weight
        margins = half * (1.0 + MARGIN_SPREAD * np.abs(rng.standard_normal(n)))
        x = centers[t] + z + (signs * margins)[:, None] * w
        if spec.noise_std > 0:
            x = x + spec.noise_std * rng.standard_normal((n, spec.dims))
        rows.append(x)
        projections.append(signs * margins)
        labels += [AffectLabel.HIGH if s > 0 else AffectLabel.LOW for s in signs]
        quads += [quad] * n
        ids += [f"{quad.code.lower()}_{i:03d}" for i in range(n)]

    features = FeatureMatrix(np.concatenate(rows), labels, quads, ids)
    return QuadrantDataset(
        features=features,
        projections=np.concatenate(projections),
        task_weights=weights,
        centers=centers,
    )


def _pinkish_noise(epochs, std: float) -> None:
    """Turn channels x samples white noise epochs, in place, into pink-ish noise:
    white noise plus two cascaded one-pole lowpasses, each epoch scaled to rms
    `std`. One pass over the samples filters all epochs, one second of each at a
    time, so no array holds them all."""
    acc1 = acc2 = np.zeros((len(epochs), *epochs[0].shape[:-1]))
    for lo in range(0, epochs[0].shape[-1], EEG_SAMPLE_RATE):
        slab = np.stack([epoch[:, lo : lo + EEG_SAMPLE_RATE] for epoch in epochs])
        for i in range(slab.shape[-1]):  # each pole's output times gain * (1 - pole) * 5
            w = slab[..., i]
            acc1 = 0.9 * acc1 + w
            acc2 = 0.99 * acc2 + w
            slab[..., i] = (w + 0.5 * (1.0 - 0.9) * acc1 * 5.0) + 0.15 * (1.0 - 0.99) * acc2 * 5.0
        for epoch, filtered in zip(epochs, slab):
            epoch[:, lo : lo + EEG_SAMPLE_RATE] = filtered
    for epoch in epochs:
        rms = np.sqrt(np.mean(epoch**2))
        epoch *= std / rms if rms > 0 else 1.0


def gen_synthetic_eeg(
    spec: GenSpec,
    class_band: tuple[float, float] = (8.0, 12.0),
    duration_s: float = 30.0,
) -> tuple[list[EegEpoch], list[AffectLabel]]:
    """n_per_task positive and negative epochs with a 1 s baseline each.

    Positive epochs add a tone at the band center with per-channel phases
    fixed by the seed; spec.class_separation sets the tone-to-noise
    amplitude ratio (0 means no class signal at all). The noise std
    spec.noise_std must be > 0: the tone's amplitude is a multiple of it.
    """
    lo, hi = class_band
    if not 0.1 < lo < hi < 45.0:
        raise ValueError(f"class band [{lo}, {hi}] must sit inside (0.1, 45) Hz")
    check_real("duration_s", duration_s, lambda v: 0.0 < v < math.inf, "a finite number > 0")
    check_real("noise_std", spec.noise_std, lambda v: 0.0 < v < math.inf, "a finite number > 0")
    rng = np.random.default_rng(spec.seed)
    sr = EEG_SAMPLE_RATE
    n_samples = int(round(duration_s * sr))
    if n_samples < 1:
        raise ValueError(f"duration_s {duration_s} s gives no sample at the {sr} Hz EEG sample rate")
    freq = 0.5 * (lo + hi)
    amplitude = spec.class_separation * spec.noise_std
    phases = rng.uniform(0.0, 2.0 * np.pi, size=EEG_CHANNELS)
    gains = 0.5 + rng.random(EEG_CHANNELS)

    n = spec.n_per_task
    data, baseline = zip(*[  # each epoch's data draw, then its baseline draw
        (rng.standard_normal((EEG_CHANNELS, n_samples)), rng.standard_normal((EEG_CHANNELS, sr))) for _ in range(2 * n)])
    _pinkish_noise(data, spec.noise_std)
    _pinkish_noise(baseline, spec.noise_std)
    if amplitude > 0:  # amplitude * gains * sin(2 pi freq t + phases), built in place
        tone = 2.0 * np.pi * freq * (np.arange(n_samples) / sr)[None, :] + phases[:, None]
        np.sin(tone, out=tone)
        tone *= gains[:, None]
        tone *= amplitude
        for epoch in data[:n]:
            epoch += tone
    labels = [AffectLabel.HIGH] * n + [AffectLabel.LOW] * n
    epochs = [EegEpoch(data=data[e], stimulus_id=f"{label.value.lower()}{e % n:03d}", clean=True,
                       baseline=baseline[e]) for e, label in enumerate(labels)]
    return epochs, labels


def gen_rating_matrix(
    raters: int,
    items: int,
    agreement_level: float,
    seed: int = 0,
    attribute: str = "arousal",
) -> RatingMatrix:
    """Latent per-item score plus rater noise scaled by 1 - agreement_level.

    agreement_level 1 yields identical integer columns across raters;
    agreement_level 0 yields independent noise per rater.
    """
    if raters < 2:
        raise ValueError("need at least 2 raters")
    if not 0.0 <= agreement_level <= 1.0:
        raise ValueError("agreement_level must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    lo, hi = VALENCE_SCALE if attribute == "valence" else AROUSAL_SCALE
    latent = rng.uniform(lo, hi, size=items)
    noise = rng.uniform(lo, hi, size=(raters, items))
    mixed = agreement_level * latent[None, :] + (1.0 - agreement_level) * noise
    values = np.clip(np.rint(mixed), lo, hi)
    return RatingMatrix(values, lo, hi, attribute)


# Histogram-bin centers used by deterministic frame generators so a global
# brightness offset below half a bin width cannot move pixels across bins.
def _bin_center(bin_index: int, bins: int = 64) -> float:
    return (bin_index + 0.5) / bins


def gen_test_media(kind: str, **params):
    """Deterministic tones, sweeps, and frame sequences with known cuts.

    kinds: tone(freq_hz, sample_rate, duration_s, amplitude),
    sweep(f0_hz, f1_hz, sample_rate, duration_s),
    cut_sequence(n_frames, fps, cut_at, height, width),
    static_sequence(n_frames, fps, height, width, seed).
    """
    if kind == "tone":
        freq = params.get("freq_hz", 1000.0)
        sr = int(params.get("sample_rate", 16000))
        dur = params.get("duration_s", 10.0)
        amp = params.get("amplitude", 0.5)
        t = np.arange(int(round(sr * dur))) / sr
        return AudioClip(amp * np.sin(2.0 * np.pi * freq * t), sr, 1)
    if kind == "sweep":
        f0 = params.get("f0_hz", 100.0)
        f1 = params.get("f1_hz", 4000.0)
        sr = int(params.get("sample_rate", 16000))
        dur = params.get("duration_s", 10.0)
        amp = params.get("amplitude", 0.5)
        t = np.arange(int(round(sr * dur))) / sr
        phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) / dur * t**2)
        return AudioClip(amp * np.sin(phase), sr, 1)
    if kind == "cut_sequence":
        n = int(params.get("n_frames", 100))
        fps = params.get("fps", 25.0)
        cut_at = int(params.get("cut_at", 50))
        h = int(params.get("height", 16))
        w = int(params.get("width", 16))
        before = _bin_center(12)
        after = _bin_center(51)
        frames = np.full((n, h, w, 3), before)
        frames[cut_at:] = after
        return FrameSequence(frames, fps)
    if kind == "static_sequence":
        n = int(params.get("n_frames", 100))
        fps = params.get("fps", 25.0)
        h = int(params.get("height", 16))
        w = int(params.get("width", 16))
        rng = np.random.default_rng(int(params.get("seed", 0)))
        image = (rng.integers(0, 64, size=(h, w, 3)) + 0.5) / 64.0
        frames = np.broadcast_to(image, (n, h, w, 3)).copy()
        return FrameSequence(frames, fps)
    raise ValueError(f"unknown media kind {kind!r}")
