"""EEG epoch conditioning: zero-phase band-pass filtering, baseline
correction from the pre-stimulus fixation second, temporal windowing,
channel-major vectorization, and PCA reduction.

The band-pass is a 4th-order digital Butterworth, designed as scipy's
`butter(4, [low, high], "bandpass", fs=fs, output="sos")` designs it: the
analog low-pass prototype poles -exp(i*pi*m/8), m = -3, -1, 1, 3; the
low-pass to band-pass transform about the prewarped band edges
4*tan(pi*f/fs); the bilinear map at fs = 2; and four second-order sections,
each pole pair taking the two nearest of the zeros at z = 1 and z = -1,
with the pairs nearest the unit circle last. It runs forward and backward
as `sosfiltfilt` does: the epoch is extended by an odd reflection of 27
samples (three times the 9 taps of the cascade) at each end, and each pass
starts from the cascade's steady state for a constant input, scaled by the
first sample of that pass. That start removes most of the edge transient
that zero initial states leave; Gustafsson (1996, IEEE TSP 44:988) analyses
the transient and gives an exact initial state, which is not used here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import WINDOW_MODES
from .core import check_real

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
            raise ValueError(f"epoch data must be {EEG_CHANNELS} x T, got shape {self.data.shape}")
        if self.data.shape[1] < 1:
            raise ValueError("epoch must contain at least one sample")
        if self.sample_rate != EEG_SAMPLE_RATE:
            raise ValueError(f"sample rate must be {EEG_SAMPLE_RATE} Hz, got {self.sample_rate!r}")
        if self.baseline is not None:
            self.baseline = np.asarray(self.baseline, dtype=float)
            if self.baseline.ndim != 2 or self.baseline.shape[0] != EEG_CHANNELS:
                raise ValueError(f"baseline must be {EEG_CHANNELS} x n")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


class ShortEpochError(ValueError):
    """An epoch too short for the band-pass's edge padding."""


FILTER_ORDER = 4
# Odd-extension length at each end: three times the cascade's 2 * 4 + 1
# taps, as scipy's `sosfiltfilt` pads; an epoch needs at least one more.
PAD_SAMPLES = 3 * (2 * FILTER_ORDER + 1)
# Samples per step of the block recursion: each step is one BLOCK x BLOCK
# matrix product over the channels, and the step count is the loop length.
BLOCK = 64


def butter_bandpass_sos(low: float, high: float, fs: float) -> np.ndarray:
    """Second-order sections (rows b0 b1 b2 1 a1 a2) of the 4th-order
    digital Butterworth band-pass with edges `low` and `high` Hz."""
    n = FILTER_ORDER
    proto = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=float) / (2 * n))
    # Edges as fractions of Nyquist, prewarped for the bilinear map at fs = 2
    # (scipy's order of operations, so the sections come out bit-identical).
    warped = 4.0 * np.tan(np.pi * (2.0 * np.array([low, high], dtype=float) / fs) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p_lp = proto * bw / 2
    shift = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate([p_lp + shift, p_lp - shift])
    poles = (4.0 + p_bp) / (4.0 - p_bp)
    # The n analog zeros at s = 0 map to z = 1; the n at infinity to z = -1.
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - p_bp))

    # Pair as scipy's zpk2sos(pairing="nearest"): take the pole nearest the
    # unit circle, fill the sections from the last, and give each pole pair
    # the two remaining zeros nearest its upper pole.
    upper = list(poles[poles.imag > 0])
    zeros = [-1.0] * n + [1.0] * n
    sos = np.zeros((n, 6))
    for section in range(n - 1, -1, -1):
        p = upper.pop(int(np.argmin([abs(1.0 - abs(q)) for q in upper])))
        pair = [zeros.pop(int(np.argmin([abs(z - p) for z in zeros]))) for _ in range(2)]
        sos[section] = [1.0, -(pair[0] + pair[1]), pair[0] * pair[1],
                        1.0, -2.0 * p.real, p.real * p.real + p.imag * p.imag]
    sos[0, :3] *= gain
    return sos


class _BlockDesign(NamedTuple):
    """The cascade as a state-space system stepped BLOCK samples at a time.

    The state z stacks the two delay registers of each transposed direct
    form II section. A block u of BLOCK inputs gives the outputs
    y = O z + H u and leaves the state A^BLOCK z + G u. The matrices are
    stored transposed, to right-multiply rows of channels.
    """

    zi: np.ndarray      # steady state for a unit constant input
    O_t: np.ndarray     # (C A^i) rows, i < BLOCK
    H_t: np.ndarray     # lower-triangular Toeplitz impulse response
    G_t: np.ndarray     # columns A^(BLOCK-1-j) B
    A_t: np.ndarray     # A^BLOCK


@lru_cache(maxsize=16)
def _bandpass_design(low: float, high: float, fs: float) -> _BlockDesign:
    sos = butter_bandpass_sos(low, high, fs)
    dim = 2 * len(sos)
    A = np.zeros((dim, dim))
    B = np.zeros(dim)
    C = np.zeros(dim)   # section input = C z + D u, starting at the cascade input
    D = 1.0
    zi = np.zeros(dim)
    scale = 1.0         # DC gain of the sections before this one
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        r = slice(2 * s, 2 * s + 2)
        drive = np.array([b1 - a1 * b0, b2 - a2 * b0])
        A[r] += np.outer(drive, C)
        A[r, r] += [[-a1, 1.0], [-a2, 0.0]]
        B[r] = drive * D
        # Steady state under a unit step: z0 (1 + a1 + a2) = drive0 + drive1.
        z0 = (drive[0] + drive[1]) / (1.0 + a1 + a2)
        zi[r] = scale * np.array([z0, drive[1] - a2 * z0])
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
        C = b0 * C
        C[2 * s] += 1.0
        D = b0 * D
    O = np.empty((BLOCK, dim))
    h = np.empty(BLOCK)
    h[0] = D
    power = np.eye(dim)            # A^i
    for i in range(BLOCK):
        O[i] = C @ power
        if i + 1 < BLOCK:
            h[i + 1] = O[i] @ B
        power = A @ power
    lags = np.arange(BLOCK)[:, None] - np.arange(BLOCK)[None, :]
    H = np.where(lags >= 0, h[np.clip(lags, 0, None)], 0.0)
    # Column j of G is A^(BLOCK-1-j) B, the state that input j leaves.
    G = np.empty((dim, BLOCK))
    G[:, -1] = B
    for j in range(BLOCK - 2, -1, -1):
        G[:, j] = A @ G[:, j + 1]
    return _BlockDesign(zi, O.T.copy(), H.T.copy(), G.T.copy(), power.T.copy())


def _cascade(u: np.ndarray, z: np.ndarray, design: _BlockDesign) -> np.ndarray:
    """Filter each row of u through the cascade from the row states z."""
    rows, n = u.shape
    blocks = -(-n // BLOCK)
    U = np.zeros((rows, blocks, BLOCK))
    U.reshape(rows, -1)[:, :n] = u
    drive = U @ design.G_t          # rows x blocks x states
    starts = np.empty_like(drive)
    for k in range(blocks):
        starts[:, k] = z
        z = z @ design.A_t + drive[:, k]
    Y = U @ design.H_t
    Y += starts @ design.O_t
    return Y.reshape(rows, -1)[:, :n]


def bandpass_filter(e: EegEpoch, low: float = 0.1, high: float = 45.0) -> EegEpoch:
    """Zero-phase 4th-order Butterworth band-pass of every channel.

    Agrees with scipy's `sosfiltfilt(butter(4, [low, high], "bandpass",
    fs=fs, output="sos"), data, axis=1)` to rounding. Each channel is
    extended by the odd reflection of its first and last 27 samples, so an
    epoch needs at least 28. Each pass starts from the steady state of the
    cascade for a constant input equal to its first sample (Gustafsson 1996,
    IEEE TSP 44:988, on the transients this tames). The design is cached
    per (low, high, fs); the recursion runs BLOCK samples at a time as
    matrix products, with no per-sample Python loop.
    """
    nyquist = e.sample_rate / 2.0
    if not (0.0 < low < high < nyquist):
        raise InvalidBandError(f"band [{low}, {high}] Hz invalid for fs={e.sample_rate}")
    if e.n_samples <= PAD_SAMPLES:
        raise ShortEpochError(
            f"epoch {e.stimulus_id!r} has {e.n_samples} samples; "
            f"the zero-phase band-pass needs at least {PAD_SAMPLES + 1}")
    design = _bandpass_design(float(low), float(high), float(e.sample_rate))
    x = e.data
    pad = PAD_SAMPLES
    ext = np.concatenate([
        2.0 * x[:, :1] - x[:, pad:0:-1],
        x,
        2.0 * x[:, -1:] - x[:, -2:-pad - 2:-1],
    ], axis=1)
    y = _cascade(ext, ext[:, :1] * design.zi, design)
    y = _cascade(y[:, ::-1], y[:, -1:] * design.zi, design)
    return replace(e, data=np.ascontiguousarray(y[:, pad:-pad][:, ::-1]))


def baseline_correct(e: EegEpoch) -> EegEpoch:
    """Subtract each channel's fixation-segment mean from every sample."""
    if e.baseline is None or e.baseline.shape[1] == 0:
        raise MissingBaselineError(f"epoch {e.stimulus_id!r} has no baseline segment")
    means = e.baseline.mean(axis=1, keepdims=True)
    return replace(e, data=e.data - means)


# Sample counts of the EEG windows: ~30 s (3667 samples at 128 Hz) and
# 10 s (1280 samples).
EEG_WINDOW_SAMPLES = {"first30": 3667, "last30": 3667, "last10": 1280}


def vectorize(e: EegEpoch, window: str = "all") -> np.ndarray:
    """Channel-major concatenation of the windowed epoch.

    A full-length epoch yields 14 x 3667 = 51338 values for first30/last30
    and 14 x 1280 = 17920 for last10; shorter epochs clamp to what exists.
    """
    if window not in WINDOW_MODES:
        raise ValueError(f"unknown window mode {window!r}")
    data = e.data
    if window != "all":
        n = EEG_WINDOW_SAMPLES[window]
        data = data[:, :n] if window == "first30" else data[:, -n:]
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
    check_real("retain", retain, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
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
    # einsum without `optimize` sums in its own loops, never in BLAS, whose
    # summation order, and so the last bits, depend on its thread count.
    proj = np.einsum("ij,kj->ik", X - model.mean, model.components, optimize=False)
    return proj[0] if single else proj
