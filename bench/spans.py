"""In-memory span recording around the program's public layer functions.

A `Tracer` replaces a function attribute on the module that *calls* it (for
example `evaluation.shallow_fit`, not only `shallow.shallow_fit`), so the
program's own files stay untouched. Each call becomes one span: name, start,
end and the span that was open when it started. Self time is a span's
duration minus the durations of its direct children. Counters are read from
the values the wrapped functions return.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name, counter=None):
        """Replace `owner.attr` by a recording wrapper.

        `name` is a span name, a callable mapping (args, kwargs) to one, or
        None to count calls through `counter` without recording a span.
        `counter(counts, args, kwargs, result)` updates counters after a
        call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                label = name(args, kwargs) if callable(name) else name
                stack = self._stack()
                with self._lock:
                    index = len(self.spans)
                    self.spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    span = self.spans[index]
                    span[1], span[2] = start, end
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)

    def absorb(self, doc: dict):
        """Add spans and counters written by `dump` in another process."""
        offset = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(doc["counts"])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ------------------------------------------------------------ layer hooks

def _count_calls(key):
    def counter(counts, args, kwargs, result):
        counts[key] += 1
    return counter


def _count_mtl(counts, args, kwargs, result):
    counts["learners.mtl.fit_calls"] += 1
    counts["learners.mtl.iters"] += len(result.objective_history) - 1


def _count_cnn(counts, args, kwargs, result):
    val = result.history["val_loss"]
    counts["learners.cnn.epochs"] += len(val)
    counts["learners.cnn.epochs_past_best"] += len(val) - (val.index(min(val)) + 1)


def _count_cv(counts, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    if spec.kind in ("lda", "linear_svm", "rbf_svm"):
        counts["evaluation.shallow_outer_folds"] += len(result.rows)


def _count_ga(counts, args, kwargs, result):
    counts["scheduler.ga_generations"] += len(result.best_history)


def _count_brute_force(counts, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    n, k, m = problem.n_slots, problem.k, len(problem.ads)
    counts["scheduler.brute_force_candidates"] += math.comb(n, k) * math.perm(m, k)


def _wilcoxon_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        method = "exact" if len(args[0]) + len(args[1]) <= 12 else "normal"
    return f"stats.wilcoxon_{method}"


FILEIO_READ_CSV = ("read_feature_csv", "read_predictions_csv", "read_segment_posteriors_csv")
FILEIO_WRITE = (
    "atomic_write_bytes", "atomic_write_text", "write_feature_csv", "write_descriptor_csv",
    "write_spectrogram_csv", "write_predictions_csv", "write_ratings_csv",
)

#: (calling module, attribute, span name or None, counter). Each entry is
#: installed only when its module is already imported, so tracing never
#: changes what a run imports.
LAYER_HOOKS = [
    *[("adaffect.fileio", f, "fileio.read_csv", None) for f in FILEIO_READ_CSV],
    ("adaffect.fileio", "read_eeg_epoch", "fileio.read_eeg", None),
    ("adaffect.fileio", "list_eeg_epochs", "fileio.read_eeg", None),
    ("adaffect.fileio", "read_wav", "fileio.read_media", None),
    ("adaffect.fileio", "read_frame_dir", "fileio.read_media", None),
    *[("adaffect.fileio", f, "fileio.write", None) for f in FILEIO_WRITE],
    ("adaffect.learners.serialize", "atomic_write_text", "fileio.write", None),
    ("adaffect.cli", "load_ratings_csv", "core.load_ratings", None),
    ("adaffect.cli", "binarize_ratings", "core.binarize", None),
    ("adaffect.core", "binarize_ratings", "core.binarize", None),
    ("adaffect.cli", "krippendorff_alpha", "stats.alpha", _count_calls("stats.alpha_calls")),
    ("adaffect.stats", "krippendorff_alpha", "stats.alpha", _count_calls("stats.alpha_calls")),
    ("adaffect.cli", "fleiss_kappa", "stats.fleiss", None),
    ("adaffect.stats", "fleiss_kappa", "stats.fleiss", None),
    ("adaffect.stats", "wilcoxon_rank_sum", _wilcoxon_name, None),
    ("adaffect.stats", "bh_fdr", "stats.bh", None),
    ("adaffect.cli", "stft_spectrogram", "media.stft", None),
    ("adaffect.cli", "hanjalic_audio", "media.audio_descriptors", None),
    ("adaffect.cli", "hanjalic_video", "media.video_descriptors", None),
    ("adaffect.cli", "bandpass_filter", "eeg.bandpass", _count_calls("eeg.bandpass_calls")),
    ("adaffect.cli", "baseline_correct", "eeg.baseline", None),
    ("adaffect.cli", "vectorize", "eeg.vectorize", None),
    ("adaffect.cli", "pca_fit", "eeg.pca_fit", None),
    ("adaffect.cli", "pca_apply", "eeg.pca_apply", None),
    ("adaffect.evaluation", "shallow_fit", "learners.shallow.fit",
     _count_calls("learners.shallow.fit_calls")),
    ("adaffect.cli", "shallow_fit", "learners.shallow.fit",
     _count_calls("learners.shallow.fit_calls")),
    ("adaffect.learners.shallow", "_fit_uncalibrated", None,
     _count_calls("learners.shallow.solver_fits")),
    ("adaffect.learners.shallow", "fit_platt", "learners.shallow.platt", None),
    ("adaffect.evaluation", "shallow_predict_proba", "learners.shallow.predict", None),
    ("adaffect.evaluation", "mtl_fit", "learners.mtl.fit", _count_mtl),
    ("adaffect.cli", "mtl_fit", "learners.mtl.fit", _count_mtl),
    ("adaffect.evaluation", "mtl_predict_proba", "learners.mtl.predict", None),
    ("adaffect.evaluation", "cnn_train", "learners.cnn.train", _count_cnn),
    ("adaffect.cli", "cnn_train", "learners.cnn.train", _count_cnn),
    ("adaffect.evaluation", "cnn_predict_proba", "learners.cnn.predict", None),
    ("adaffect.evaluation", "cross_validate", "evaluation.cv", _count_cv),
    ("adaffect.cli", "cross_validate", "evaluation.cv", _count_cv),
    ("adaffect.evaluation", "west_fuse", "evaluation.west_fuse", None),
    ("adaffect.cli", "west_fuse", "evaluation.west_fuse", None),
    ("adaffect.scheduler", "ga_optimize", "scheduler.ga", _count_ga),
    ("adaffect.cli", "ga_optimize", "scheduler.ga", _count_ga),
    ("adaffect.scheduler", "brute_force_schedule", "scheduler.brute_force", _count_brute_force),
    ("adaffect.cli", "brute_force_schedule", "scheduler.brute_force", _count_brute_force),
]


def install_layer_hooks(tracer: Tracer):
    for module_name, attr, name, counter in LAYER_HOOKS:
        module = sys.modules.get(module_name)
        if module is not None:
            tracer.wrap(module, attr, name, counter)


#: Per-layer metrics in report order: name -> unit.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "fileio.read_csv_s": "s",
    "fileio.read_eeg_s": "s",
    "fileio.read_media_s": "s",
    "fileio.write_s": "s",
    "core.load_ratings_s": "s",
    "core.binarize_s": "s",
    "stats.alpha_s": "s",
    "stats.alpha_calls": "count",
    "stats.fleiss_s": "s",
    "stats.wilcoxon_exact_s": "s",
    "stats.wilcoxon_normal_s": "s",
    "stats.bh_s": "s",
    "media.stft_s": "s",
    "media.audio_descriptors_s": "s",
    "media.video_descriptors_s": "s",
    "eeg.bandpass_s": "s",
    "eeg.bandpass_calls": "count",
    "eeg.baseline_s": "s",
    "eeg.vectorize_s": "s",
    "eeg.pca_fit_s": "s",
    "eeg.pca_apply_s": "s",
    "learners.shallow.fit_s": "s",
    "learners.shallow.fit_calls": "count",
    "learners.shallow.platt_s": "s",
    "learners.shallow.predict_s": "s",
    "learners.shallow.fits_per_outer_fold": "count",
    "learners.mtl.fit_s": "s",
    "learners.mtl.fit_calls": "count",
    "learners.mtl.iters": "count",
    "learners.cnn.train_s": "s",
    "learners.cnn.epochs": "count",
    "learners.cnn.s_per_epoch": "s",
    "learners.cnn.epochs_past_best": "count",
    "evaluation.cv_self_s": "s",
    "evaluation.west_fuse_s": "s",
    "scheduler.ga_s": "s",
    "scheduler.ga_generations": "count",
    "scheduler.s_per_generation": "s",
    "scheduler.brute_force_s": "s",
    "scheduler.brute_force_candidates": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: Span names whose self time is reported as `<name>_s`.
_SELF_TIME_METRICS = {
    "fileio.read_csv_s": "fileio.read_csv",
    "fileio.read_eeg_s": "fileio.read_eeg",
    "fileio.read_media_s": "fileio.read_media",
    "fileio.write_s": "fileio.write",
    "core.load_ratings_s": "core.load_ratings",
    "core.binarize_s": "core.binarize",
    "stats.alpha_s": "stats.alpha",
    "stats.fleiss_s": "stats.fleiss",
    "stats.wilcoxon_exact_s": "stats.wilcoxon_exact",
    "stats.wilcoxon_normal_s": "stats.wilcoxon_normal",
    "stats.bh_s": "stats.bh",
    "media.stft_s": "media.stft",
    "media.audio_descriptors_s": "media.audio_descriptors",
    "media.video_descriptors_s": "media.video_descriptors",
    "eeg.bandpass_s": "eeg.bandpass",
    "eeg.baseline_s": "eeg.baseline",
    "eeg.vectorize_s": "eeg.vectorize",
    "eeg.pca_fit_s": "eeg.pca_fit",
    "eeg.pca_apply_s": "eeg.pca_apply",
    "learners.shallow.fit_s": "learners.shallow.fit",
    "learners.shallow.platt_s": "learners.shallow.platt",
    "learners.shallow.predict_s": "learners.shallow.predict",
    "learners.mtl.fit_s": "learners.mtl.fit",
    "learners.cnn.train_s": "learners.cnn.train",
    "evaluation.cv_self_s": "evaluation.cv",
    "evaluation.west_fuse_s": "evaluation.west_fuse",
    "scheduler.ga_s": "scheduler.ga",
    "scheduler.brute_force_s": "scheduler.brute_force",
}

_COUNT_METRICS = (
    "stats.alpha_calls", "eeg.bandpass_calls", "learners.shallow.fit_calls",
    "learners.mtl.fit_calls", "learners.mtl.iters", "learners.cnn.epochs",
    "learners.cnn.epochs_past_best", "scheduler.ga_generations",
    "scheduler.brute_force_candidates",
)


def per_layer_values(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round self times and counts (everything except cli.import_s and
    trace.overhead_pct, which the caller measures)."""
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for metric, span in _SELF_TIME_METRICS.items():
        out[metric] = selfs.get(span, 0.0) / rounds
    for metric in _COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / rounds
    outer = counts.get("evaluation.shallow_outer_folds", 0)
    solver_fits = counts.get("learners.shallow.solver_fits", 0)
    out["learners.shallow.fits_per_outer_fold"] = solver_fits / outer if outer else 0.0
    epochs = counts.get("learners.cnn.epochs", 0)
    out["learners.cnn.s_per_epoch"] = selfs.get("learners.cnn.train", 0.0) / epochs if epochs else 0.0
    generations = counts.get("scheduler.ga_generations", 0)
    out["scheduler.s_per_generation"] = (
        selfs.get("scheduler.ga", 0.0) / generations if generations else 0.0
    )
    out["trace.spans"] = len(tracer.spans) / rounds
    return out
