"""EEG epoch conditioning: zero-phase band-pass filtering, baseline
correction from the pre-stimulus fixation second, temporal windowing,
channel-major vectorization, and PCA reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

EEG_CHANNELS = 14
EEG_SAMPLE_RATE = 128


class MissingBaselineError(ValueError):
    """Baseline correction asked of an epoch without a fixation segment."""


class InvalidBandError(ValueError):
    """Band edges do not satisfy 0 < low < high < Nyquist."""


@dataclass
class EegEpoch:
    """channels x samples microvolt time series time-locked to one stimulus."""

    data: np.ndarray
    sample_rate: int = EEG_SAMPLE_RATE
    stimulus_id: str = ""
    clean: bool = True
    baseline: np.ndarray | None = None  # channels x pre-stimulus samples

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != EEG_CHANNELS:
            raise ValueError(f"epoch data must be {EEG_CHANNELS} x T")
        if self.data.shape[1] < 1:
            raise ValueError("epoch must contain at least one sample")
        if self.sample_rate != EEG_SAMPLE_RATE:
            raise ValueError(f"sample rate must be {EEG_SAMPLE_RATE} Hz")
        if self.baseline is not None:
            self.baseline = np.asarray(self.baseline, dtype=float)
            if self.baseline.ndim != 2 or self.baseline.shape[0] != EEG_CHANNELS:
                raise ValueError(f"baseline must be {EEG_CHANNELS} x n")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "EegEpoch":
        return replace(self, data=data)


def bandpass_filter(e: EegEpoch, low: float = 0.1, high: float = 45.0) -> EegEpoch:
    """Zero-phase 4th-order Butterworth band-pass (forward-backward SOS)."""
    from scipy import signal  # slow to import, so only commands that filter pay for it

    nyquist = e.sample_rate / 2.0
    if not (0.0 < low < high < nyquist):
        raise InvalidBandError(f"band [{low}, {high}] Hz invalid for fs={e.sample_rate}")
    sos = signal.butter(4, [low, high], btype="bandpass", fs=e.sample_rate, output="sos")
    filtered = signal.sosfiltfilt(sos, e.data, axis=1)
    return e.with_data(np.ascontiguousarray(filtered))


def baseline_correct(e: EegEpoch) -> EegEpoch:
    """Subtract each channel's fixation-segment mean from every sample."""
    if e.baseline is None or e.baseline.shape[1] == 0:
        raise MissingBaselineError(f"epoch {e.stimulus_id!r} has no baseline segment")
    means = e.baseline.mean(axis=1, keepdims=True)
    return e.with_data(e.data - means)


# Sample counts of the EEG windows: ~30 s (3667 samples at 128 Hz) and
# 10 s (1280 samples).
EEG_WINDOW_SAMPLES = {"first30": 3667, "last30": 3667, "last10": 1280}


def vectorize(e: EegEpoch, window: str = "all") -> np.ndarray:
    """Channel-major concatenation of the windowed epoch.

    A full-length epoch yields 14 x 3667 = 51338 values for first30/last30
    and 14 x 1280 = 17920 for last10; shorter epochs clamp to what exists.
    """
    if window == "all":
        data = e.data
    elif window in EEG_WINDOW_SAMPLES:
        n = EEG_WINDOW_SAMPLES[window]
        data = e.data[:, :n] if window == "first30" else e.data[:, -n:]
    else:
        raise ValueError(f"unknown window mode {window!r}")
    return data.reshape(-1).copy()


# ----------------------------------------------------------------- PCA

class RankZeroDataError(ValueError):
    """PCA asked of data with zero total variance."""


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray          # k x dims, orthonormal rows
    explained_variance: np.ndarray  # k values, nonincreasing
    retained_fraction: float

    @property
    def k(self) -> int:
        return self.components.shape[0]


def pca_fit(rows: np.ndarray, retain: float = 0.9, method: str = "auto") -> PcaModel:
    """Fit PCA keeping the smallest component count whose cumulative
    explained variance reaches `retain`.

    method "direct" eigendecomposes the dims x dims covariance; "gram"
    eigendecomposes the items x items Gram matrix (preferable when
    dims >> items); "auto" picks by shape.
    """
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if not 0.0 < retain <= 1.0:
        raise ValueError("retain must lie in (0, 1]")
    if method not in ("auto", "direct", "gram"):
        raise ValueError(f"unknown method {method!r}")
    n, d = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean
    total_var = float(np.sum(Xc**2)) / (n - 1)
    if total_var <= 0.0:
        raise RankZeroDataError("data has zero variance")
    if method == "auto":
        method = "gram" if n < d else "direct"

    if method == "direct":
        cov = (Xc.T @ Xc) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        components = eigvecs[:, order].T
    else:
        gram = Xc @ Xc.T
        eigvals_g, eigvecs_g = np.linalg.eigh(gram)
        order = np.argsort(eigvals_g)[::-1]
        eigvals_g = eigvals_g[order]
        eigvecs_g = eigvecs_g[:, order]
        keep = eigvals_g > max(1e-12 * eigvals_g[0], 0.0)
        eigvals = eigvals_g[keep] / (n - 1)
        components = (Xc.T @ eigvecs_g[:, keep] / np.sqrt(eigvals_g[keep])).T

    eigvals = np.clip(eigvals, 0.0, None)
    cumulative = np.cumsum(eigvals) / total_var
    k = int(np.searchsorted(cumulative, retain - 1e-12) + 1)
    k = min(k, len(eigvals))
    return PcaModel(
        mean=mean,
        components=np.ascontiguousarray(components[:k]),
        explained_variance=eigvals[:k].copy(),
        retained_fraction=float(cumulative[k - 1]),
    )


def pca_apply(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    X = np.asarray(rows, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != model.mean.shape[0]:
        raise ValueError(f"expected {model.mean.shape[0]} dims, got {X.shape[1]}")
    proj = (X - model.mean) @ model.components.T
    return proj[0] if single else proj
