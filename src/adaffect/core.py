"""Domain types and dataset plumbing shared by every other module.

Ads carry a binary High/Low label on each of the arousal and valence axes;
the four combinations form the quadrants that double as multi-task ids.
Rating matrices hold raw ordinal annotator scores (raters x items, NaN for
missing) on a declared scale.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

VALENCE_SCALE = (-2.0, 2.0)
AROUSAL_SCALE = (0.0, 4.0)


class ManifestError(ValueError):
    """Manifest file failed to parse; message carries the line number."""


class ScaleViolationError(ValueError):
    """A rating fell outside the declared scale; message names the cell."""


class DegenerateRangeError(ValueError):
    """min-max normalization asked of a constant sequence."""


class EmptyRaterError(ValueError):
    """A rater contributed no usable scores."""


class AffectLabel(enum.Enum):
    """Binary affect level. High orders above Low."""

    HIGH = "H"
    LOW = "L"

    def __lt__(self, other):
        if not isinstance(other, AffectLabel):
            return NotImplemented
        return self is AffectLabel.LOW and other is AffectLabel.HIGH

    @property
    def sign(self) -> float:
        return 1.0 if self is AffectLabel.HIGH else -1.0

    @classmethod
    def from_code(cls, code: str) -> "AffectLabel":
        try:
            return cls(code.strip().upper())
        except ValueError:
            raise ValueError(f"affect label must be 'H' or 'L', got {code!r}") from None


@dataclass(frozen=True, order=True)
class Quadrant:
    """One cell of the {High/Low arousal} x {High/Low valence} plane."""

    arousal: AffectLabel
    valence: AffectLabel

    @property
    def code(self) -> str:
        return self.arousal.value + self.valence.value

    @classmethod
    def from_code(cls, code: str) -> "Quadrant":
        code = code.strip().upper()
        if len(code) != 2:
            raise ValueError(f"quadrant code must be two letters, got {code!r}")
        return cls(AffectLabel.from_code(code[0]), AffectLabel.from_code(code[1]))

    def related_to(self, other: "Quadrant") -> bool:
        """Two distinct quadrants are related iff they share arousal or valence."""
        if self == other:
            return False
        return self.arousal is other.arousal or self.valence is other.valence

    def __str__(self) -> str:
        return self.code


#: Canonical task ordering used everywhere a quadrant index matters.
ALL_QUADRANTS = tuple(Quadrant.from_code(c) for c in ("HH", "HL", "LH", "LL"))


@dataclass(frozen=True)
class AdRecord:
    id: str
    duration_s: float
    expert_quadrant: Quadrant
    asl_score: float | None = None
    val_score: float | None = None

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ValueError(f"ad {self.id!r}: duration_s must be > 0, got {self.duration_s}")
        for name, score in (("asl_score", self.asl_score), ("val_score", self.val_score)):
            if score is not None and not (0.0 <= score <= 1.0):
                raise ValueError(f"ad {self.id!r}: {name} must lie in [0,1], got {score}")


@dataclass
class RatingMatrix:
    """Raters x items grid of ordinal scores; NaN marks missing entries."""

    values: np.ndarray
    scale_min: float
    scale_max: float
    attribute: str  # "valence" | "arousal"
    rater_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("ratings must be a 2-D raters x items grid")
        if not self.rater_ids:
            self.rater_ids = [f"r{i}" for i in range(self.values.shape[0])]
        if not self.item_ids:
            self.item_ids = [f"item{i}" for i in range(self.values.shape[1])]
        if len(self.rater_ids) != self.values.shape[0] or len(self.item_ids) != self.values.shape[1]:
            raise ValueError("rater/item id lengths must match the grid shape")
        self.validate_scale()

    def validate_scale(self):
        bad = np.where(
            np.isfinite(self.values)
            & ((self.values < self.scale_min) | (self.values > self.scale_max))
        )
        if bad[0].size:
            r, i = bad[0][0], bad[1][0]
            raise ScaleViolationError(
                f"rating {self.values[r, i]} at rater {self.rater_ids[r]!r}, "
                f"item {self.item_ids[i]!r} outside [{self.scale_min}, {self.scale_max}] "
                f"({self.attribute})"
            )

    @property
    def n_raters(self) -> int:
        return self.values.shape[0]

    @property
    def n_items(self) -> int:
        return self.values.shape[1]

    def item_means(self) -> np.ndarray:
        """Per-item mean over raters, NaN where no rater scored the item."""
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.values, axis=0)


@dataclass
class FeatureMatrix:
    """Items x dims real descriptors with per-item label, quadrant, and id."""

    X: np.ndarray
    labels: list[AffectLabel]
    quadrants: list[Quadrant]
    item_ids: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        n = self.X.shape[0]
        if not (len(self.labels) == len(self.quadrants) == len(self.item_ids) == n):
            raise ValueError("labels, quadrants and item_ids must match the row count")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("feature matrix contains non-finite entries")

    @property
    def n_items(self) -> int:
        return self.X.shape[0]

    @property
    def n_dims(self) -> int:
        return self.X.shape[1]

    def y_signs(self) -> np.ndarray:
        """Labels as +1 (High) / -1 (Low)."""
        return np.array([lab.sign for lab in self.labels])

    def subset(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(
            self.X[idx],
            [self.labels[i] for i in idx],
            [self.quadrants[i] for i in idx],
            [self.item_ids[i] for i in idx],
        )


def stratified_splits(y_signs: np.ndarray, n_folds: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """(training indices, test indices), both sorted, of each of n_folds folds:
    each class's shuffled indices (High, then Low) are dealt round-robin into
    the test sides, and an item in neither class is on every training side."""
    fold_of = np.full(len(y_signs), -1)
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(y_signs == cls)
        fold_of[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % n_folds
    return [(np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)) for k in range(n_folds)]


def check_real(name: str, value, ok, bound: str) -> None:
    """Raise ValueError naming `name` and `value` unless `value` is a real
    number, not a bool, for which `ok(value)` holds; `bound` says which are."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def min_max_normalize(x) -> np.ndarray:
    """Rescale to [0,1] as (x - min) / (max - min); order preserving."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot normalize an empty sequence")
    lo, hi = float(np.min(x)), float(np.max(x))
    if not hi > lo:
        raise DegenerateRangeError(f"degenerate range: max == min == {lo}")
    return (x - lo) / (hi - lo)


def binarize_ratings(m: RatingMatrix, reference: str = "per_rater_mean") -> np.ndarray:
    """Threshold ordinal ratings into High/Low by the chosen mean reference.

    Returns an object array of AffectLabel with None where the rating was
    missing. Ties at the threshold map to Low.
    """
    if reference not in ("per_rater_mean", "group_mean"):
        raise ValueError(f"unknown reference {reference!r}")
    vals = m.values
    present = np.isfinite(vals)
    if reference == "per_rater_mean":
        for r in range(m.n_raters):
            if not present[r].any():
                raise EmptyRaterError(f"rater {m.rater_ids[r]!r} has no ratings")
        thresholds = np.nanmean(vals, axis=1)[:, None]
    else:
        if not present.any():
            raise EmptyRaterError("rating matrix has no values")
        thresholds = np.nanmean(vals)
    out = np.empty(vals.shape, dtype=object)
    out[...] = None
    high = present & (vals > thresholds)
    low = present & ~(vals > thresholds)
    out[high] = AffectLabel.HIGH
    out[low] = AffectLabel.LOW
    return out


@dataclass(frozen=True)
class QuadrantStats:
    quadrant: Quadrant
    count: int
    mean_length_s: float
    mean_asl: float | None
    mean_val: float | None


def quadrant_summary(
    records: list[AdRecord],
    arousal_ratings: RatingMatrix | None = None,
    valence_ratings: RatingMatrix | None = None,
) -> dict[Quadrant, QuadrantStats]:
    """Per-quadrant mean ad length and, when ratings are given, mean scores.

    The asl/val means average the per-ad rater means of the member ads;
    quadrants with no member ads are absent from the result.
    """
    if not records:
        raise ValueError("record list is empty")

    def rating_lookup(m: RatingMatrix | None):
        if m is None:
            return {}
        means = m.item_means()
        return {iid: means[i] for i, iid in enumerate(m.item_ids) if math.isfinite(means[i])}

    asl_by_id = rating_lookup(arousal_ratings)
    val_by_id = rating_lookup(valence_ratings)

    out: dict[Quadrant, QuadrantStats] = {}
    for quad in ALL_QUADRANTS:
        members = [r for r in records if r.expert_quadrant == quad]
        if not members:
            continue
        asl = [asl_by_id[r.id] for r in members if r.id in asl_by_id]
        val = [val_by_id[r.id] for r in members if r.id in val_by_id]
        out[quad] = QuadrantStats(
            quadrant=quad,
            count=len(members),
            mean_length_s=float(np.mean([r.duration_s for r in members])),
            mean_asl=float(np.mean(asl)) if asl else None,
            mean_val=float(np.mean(val)) if val else None,
        )
    return out
