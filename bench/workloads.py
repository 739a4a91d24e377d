"""The four benchmark workloads.

Each workload builds its inputs from the run seed in `setup`, runs one round
of its operations per `run_round` call, and checks the program's outputs in
`check` against computations made here (see reference.py), never against a
saved copy of earlier output. Operations are timed one by one; a round's
per-group totals feed the per-operation figures in `op_metrics`.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference

#: Separable and weak-signal quadrant sets, as in acceptance criterion 7.
SEPARABLE = dict(seed=7101, n_per_task=30, dims=16, class_separation=10.0,
                 task_correlation=0.5, noise_std=0.1)
WEAK = dict(seed=7303, n_per_task=30, dims=16, class_separation=1.0,
            task_correlation=0.9, noise_std=0.1)
CV_SEED = 71
CV_FOLDS = 5
CNN_PARAMS = {"max_epochs": 30}
MULTITASK_COPIES = 4
F1_FLOOR = 0.95


class ExpectedFailure(Exception):
    """An operation the program is known to reject on every run."""


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)  # per-call times
        self.round_totals: dict[str, list[float]] = defaultdict(list)
        self._round: dict[str, float] = {}

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def begin_round(self):
        self._round = defaultdict(float)

    def end_round(self):
        for group, total in self._round.items():
            self.round_totals[group].append(total)

    def op(self, group: str, fn, *args, **kwargs):
        """Run one timed operation; unexpected exceptions count as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ExpectedFailure:
            self.failed += 1
            return None
        except Exception as exc:  # a failing operation is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"{group}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self._round[group] += elapsed
        self.samples[group].append(elapsed)
        return result

    def median_round(self, group: str) -> float:
        return statistics.median(self.round_totals[group])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def before_timing(self):
        """Called once after the last set-up, before the first round."""

    # Subclasses implement these.
    def setup(self):
        raise NotImplementedError

    def run_round(self, tracer):
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def op_metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# ------------------------------------------------------- CV workloads

def _rotated(features, rng):
    """The same items under a random rotation of feature space.

    Linear and RBF kernels, and so every SVM solve, are invariant under a
    rotation, while every input value changes with the seed. Fresh draws of
    the generator instead move SVM CV time by 20-35% from seed to seed.
    """
    from adaffect.core import FeatureMatrix

    q, r = np.linalg.qr(rng.standard_normal((features.n_dims, features.n_dims)))
    q = q * np.sign(np.diag(r))
    return FeatureMatrix(features.X @ q, features.labels, features.quadrants, features.item_ids)


class _CvWorkload(Workload):
    def setup(self):
        from adaffect import synthgen

        self.base = {
            "separable": synthgen.gen_quadrant_data(synthgen.GenSpec(**SEPARABLE)).features,
            "weak": synthgen.gen_quadrant_data(synthgen.GenSpec(**WEAK)).features,
        }
        self.round_index = 0

    def round_sets(self):
        rng = self.rng(self.round_index)
        self.round_index += 1
        return {name: _rotated(fm, rng) for name, fm in self.base.items()}

    def cv(self, group, features, kind, params=None):
        from adaffect import evaluation

        spec = evaluation.ModelSpec(kind, params=dict(params or {}))
        return self.op(group, evaluation.cross_validate, features, spec,
                       reps=1, folds=CV_FOLDS, seed=CV_SEED)

    def report_failures(self, label, report, separable) -> list[str]:
        if report is None:
            return [f"{label}: no report"]
        out = reference.posterior_failures(label, report.oof_posteriors)
        if len(report.rows) != CV_FOLDS:
            out.append(f"{label}: {len(report.rows)} fold rows, expected {CV_FOLDS}")
        if separable and report.mean < F1_FLOOR:
            out.append(f"{label}: F1 {report.mean:.3f} < {F1_FLOOR} on the separable set")
        return out


class CvSvm(_CvWorkload):
    """linear_svm and rbf_svm with their default inner grids."""

    name = "cv-svm"

    def before_timing(self):
        from adaffect import evaluation

        # Keep each outer fold's final model for the optimality checks: the
        # final fit is the only one trained on a whole outer training fold.
        n_items = self.base["separable"].n_items
        final_size = n_items - n_items // CV_FOLDS
        self.finals = []
        original = evaluation.shallow_fit

        def capture(X, y, *args, **kwargs):
            model = original(X, y, *args, **kwargs)
            if len(X) == final_size:
                self.finals.append((np.array(X), np.array(y), model))
            return model

        evaluation.shallow_fit = capture

    def run_round(self, tracer):
        self.finals.clear()
        self.reports = {}
        for set_name, features in self.round_sets().items():
            for kind in ("linear_svm", "rbf_svm"):
                report = self.cv(f"cv_{kind}_s", features, kind)
                self.reports[(set_name, kind)] = report

    def check(self):
        from adaffect.learners import shallow

        out = []
        for (set_name, kind), report in self.reports.items():
            out += self.report_failures(f"{kind}/{set_name}", report, set_name == "separable")
        if len(self.finals) != 4 * CV_FOLDS:
            out.append(f"captured {len(self.finals)} final SVMs, expected {4 * CV_FOLDS}")
        self.worst_kkt = 0.0
        for X, y, model in self.finals:
            viol, gap, failures = reference.svm_optimality(
                X, y, model.train_meta["alpha"], model.b, model.hyperparams["C"],
                model.kind, model.gamma, shallow.KKT_TOL,
            )
            self.worst_kkt = max(self.worst_kkt, viol)
            out += [f"final {model.kind} C={model.hyperparams['C']}: {f}" for f in failures]
        return out

    def op_metrics(self):
        return {
            "cv_linear_svm_s": (self.median_round("cv_linear_svm_s"), "s"),
            "cv_rbf_svm_s": (self.median_round("cv_rbf_svm_s"), "s"),
        }


class CvMultitask(_CvWorkload):
    """mtl, cnn and lda, then fusion of the MTL and CNN posteriors, on
    MULTITASK_COPIES differently rotated copies of both sets a round, so
    that one round spans about `run_seconds`."""

    name = "cv-multitask"

    def before_timing(self):
        from adaffect import evaluation

        self.mtl_fits = []
        original = evaluation.mtl_fit

        def capture(Xs, Ys, *args, **kwargs):
            model = original(Xs, Ys, *args, **kwargs)
            self.mtl_fits.append(([np.array(X) for X in Xs], [np.array(Y) for Y in Ys], model))
            return model

        evaluation.mtl_fit = capture

    def run_round(self, tracer):
        from adaffect import evaluation

        self.mtl_fits.clear()
        self.reports = {}
        self.fusions = {}
        for copy in range(MULTITASK_COPIES):
            for set_name, features in self.round_sets().items():
                mtl = self.cv("cv_mtl_s", features, "mtl")
                cnn = self.cv("cv_cnn_s", features, "cnn", CNN_PARAMS)
                self.reports[(set_name, "lda", copy)] = self.cv("cv_lda_s", features, "lda")
                self.reports[(set_name, "mtl", copy)] = mtl
                self.reports[(set_name, "cnn", copy)] = cnn
                if mtl is not None and cnn is not None:
                    truth = features.y_signs()
                    fused = self.op("fuse_s", evaluation.west_fuse, mtl.oof_posteriors,
                                    cnn.oof_posteriors, mtl.mean, cnn.mean, truth=truth)
                    self.fusions[(set_name, copy)] = (truth, mtl.oof_posteriors, cnn.oof_posteriors, fused)

    def check(self):
        out = []
        for (set_name, kind, copy), report in self.reports.items():
            out += self.report_failures(f"{kind}/{set_name}/{copy}", report, set_name == "separable")
        for (set_name, copy), (truth, p_mtl, p_cnn, fused) in self.fusions.items():
            if fused is None:
                continue  # already reported as a failed operation
            singles = [reference.f1(np.where(p[:, 0] > p[:, 1], 1, -1), truth) for p in (p_mtl, p_cnn)]
            if fused.tuning_f1 < max(singles) - 1e-12:
                out.append(f"fusion/{set_name}/{copy}: tuning F1 {fused.tuning_f1} < best single {max(singles)}")
        if len(self.mtl_fits) != 2 * CV_FOLDS * MULTITASK_COPIES:
            out.append(f"captured {len(self.mtl_fits)} MTL fits, expected {2 * CV_FOLDS * MULTITASK_COPIES}")
        for Xs, Ys, model in self.mtl_fits:
            hist = np.asarray(model.objective_history)
            if np.any(np.diff(hist) > 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0)):
                out.append("MTL objective history increases")
            codes = [t.code for t in model.graph.tasks]
            value = reference.mtl_objective(model.W, model.bias, Xs, Ys, codes,
                                            model.alpha, model.beta, model.gamma)
            if abs(value - hist[-1]) > 1e-9 * max(1.0, abs(value)):
                out.append(f"MTL objective {hist[-1]!r} != recomputed {value!r}")
        return out

    def op_metrics(self):
        return {
            "cv_mtl_s": (self.median_round("cv_mtl_s"), "s"),
            "cv_cnn_s": (self.median_round("cv_cnn_s"), "s"),
            "cv_lda_s": (self.median_round("cv_lda_s"), "s"),
            "west_fuse_s": (self.median_round("fuse_s"), "s"),
        }


# ------------------------------------------------------------ stats-schedule

RATERS, ITEMS = 40, 1000
EXACT_SIZES = ((8, 12), (10, 10), (11, 11))
NORMAL_TESTS = 100
BH_Q = 0.1
GA_SEEDS = range(4)
STATS_BATCHES = 4
SCHEDULE_SHAPE = (8, 6, 5)  # scenes, ads, k


def _infeasible_exact_samples():
    """Fixed n_x + n_y = 30 samples: wilcoxon_rank_sum caps exact
    enumeration at n = 24, so these fail on every run."""
    return [
        (np.arange(15, dtype=float), np.arange(15, dtype=float) + 0.5),
        (np.arange(12, dtype=float) * 1.5, np.arange(18, dtype=float) + 0.25),
    ]


def _schedule_instance(rng):
    scenes_n, ads_n, _ = SCHEDULE_SHAPE
    scenes = [{"id": f"scene{i:02d}", "asl": round(float(rng.random()), 6),
               "val": round(float(rng.random()), 6)} for i in range(scenes_n)]
    ads = [{"id": f"ad{i:02d}", "asl": round(float(rng.random()), 6),
            "val": round(float(rng.random()), 6)} for i in range(ads_n)]
    return scenes, ads


class StatsSchedule(Workload):
    """In-process agreement table, Wilcoxon/BH tests and GA scheduling.

    A round runs the operation list on STATS_BATCHES independent input
    batches, so that one round spans about `run_seconds`.
    """

    name = "stats-schedule"

    def setup(self):
        rng = self.rng(1)
        small = rng.integers(0, 5, size=(6, 25)).astype(float)
        small[rng.random(small.shape) < 0.1] = np.nan
        self.small_grid = small
        self.infeasible_samples = _infeasible_exact_samples()
        self.batches = [self._make_batch(b) for b in range(STATS_BATCHES)]

    def _make_batch(self, b):
        from adaffect import synthgen

        rng = self.rng(2, b)
        batch = SimpleNamespace()
        batch.matrices = {
            attr: synthgen.gen_rating_matrix(RATERS, ITEMS, 0.6, seed=int(rng.integers(2**31)), attribute=attr)
            for attr in ("valence", "arousal")
        }
        batch.exact_samples = [(rng.normal(size=nx), rng.normal(0.8, 1.0, size=ny)) for nx, ny in EXACT_SIZES]
        batch.normal_samples = []
        for _ in range(NORMAL_TESTS):
            nx, ny = (int(v) for v in rng.integers(20, 61, size=2))
            shift = float(rng.uniform(0.0, 0.6))
            batch.normal_samples.append((np.round(rng.normal(size=nx), 1),
                                         np.round(rng.normal(shift, 1.0, size=ny), 1)))
        batch.bh_extra = [np.concatenate([rng.uniform(size=1500), rng.uniform(0, 0.002, size=500)])
                          for _ in range(4)]
        batch.instances = [_schedule_instance(rng) for _ in range(2)]
        return batch

    @staticmethod
    def _agreement_table(matrices):
        from adaffect import core, stats

        table = {}
        for attr, m in matrices.items():
            for metric in ("ordinal", "interval"):
                table[(f"alpha_{metric}", attr)] = stats.krippendorff_alpha(m, metric).statistic
            for reference_name in ("per_rater_mean", "group_mean"):
                grid = core.binarize_ratings(m, reference_name)
                tallies = np.column_stack([
                    (grid == core.AffectLabel.HIGH).sum(axis=0),
                    (grid == core.AffectLabel.LOW).sum(axis=0),
                ])
                keep = tallies.sum(axis=1) == m.n_raters
                table[(f"fleiss_{reference_name}", attr)] = stats.fleiss_kappa(tallies[keep]).statistic
        return table

    @staticmethod
    def _exact_infeasible(x, y):
        from adaffect import stats

        try:
            return stats.wilcoxon_rank_sum(x, y, method="exact")
        except ValueError as exc:
            if "infeasible" in str(exc):
                raise ExpectedFailure(str(exc)) from None
            raise

    def run_round(self, tracer):
        from adaffect import scheduler, stats

        for batch in self.batches:
            batch.table = self.op("alpha_s", self._agreement_table, batch.matrices)
            batch.exact = [self.op("wilcoxon_exact_s", stats.wilcoxon_rank_sum, x, y, method="exact")
                           for x, y in batch.exact_samples]
            batch.infeasible = [self.op("wilcoxon_exact_n30_s", self._exact_infeasible, x, y)
                                for x, y in self.infeasible_samples]
            batch.normal = [self.op("wilcoxon_normal_s", stats.wilcoxon_rank_sum, x, y, method="normal")
                            for x, y in batch.normal_samples]
            p_normal = np.array([r.p_value if r is not None else 1.0 for r in batch.normal])
            batch.bh_inputs = [p_normal, *batch.bh_extra]
            batch.bh = [self.op("bh_s", stats.bh_fdr, p, BH_Q) for p in batch.bh_inputs]
            batch.schedules = []
            for scenes, ads in batch.instances:
                problem = scheduler.ScheduleProblem(
                    [scheduler.SceneRecord(s["id"], s["asl"], s["val"]) for s in scenes],
                    [scheduler.AdItem(a["id"], a["asl"], a["val"]) for a in ads],
                    k=SCHEDULE_SHAPE[2],
                )
                exact = self.op("brute_force_s", scheduler.brute_force_schedule, problem)
                ga = [self.op("ga_s", scheduler.ga_optimize, problem, scheduler.GaConfig(seed=s))
                      for s in GA_SEEDS]
                batch.schedules.append((scenes, ads, exact, ga))

    def check(self):
        """Operations that raised are already reported; their None results
        are skipped here."""
        from scipy import stats as sps

        from adaffect import stats

        oracles = reference.load_test_oracles(self.root)
        # The count oracle used for the large matrices is tied to the
        # repository's pair enumeration on a grid small enough to enumerate.
        out = []
        for metric in ("ordinal", "interval"):
            brute = oracles.krippendorff_alpha_bruteforce(self.small_grid.tolist(), metric)
            counted = reference.krippendorff_alpha_counts(self.small_grid, metric)
            got = stats.krippendorff_alpha(self.small_grid, metric).statistic
            if max(abs(brute - counted), abs(brute - got)) > 1e-10:
                out.append(f"small-grid alpha {metric}: program {got!r}, counts {counted!r}, pairs {brute!r}")
        for batch in self.batches:
            out += self._check_batch(batch, oracles, sps)
        return out

    def _check_batch(self, batch, oracles, sps):
        out = []
        for attr, m in batch.matrices.items():
            if batch.table is None:
                break
            for metric in ("ordinal", "interval"):
                expect = reference.krippendorff_alpha_counts(m.values, metric)
                got = batch.table[(f"alpha_{metric}", attr)]
                if abs(got - expect) > 1e-9:
                    out.append(f"alpha {metric}/{attr}: {got!r} vs oracle {expect!r}")
            for name in ("per_rater_mean", "group_mean"):
                expect = oracles.fleiss_kappa_bruteforce(reference.binary_tallies(m.values, name).tolist())
                got = batch.table[(f"fleiss_{name}", attr)]
                if abs(got - expect) > 1e-9:
                    out.append(f"fleiss {name}/{attr}: {got!r} vs oracle {expect!r}")
        # The n = 30 exact tests are checked too once the program accepts them.
        tests = [(batch.exact_samples + self.infeasible_samples, batch.exact + batch.infeasible, "exact"),
                 (batch.normal_samples, batch.normal, "asymptotic")]
        for samples, results, method in tests:
            for (x, y), res in zip(samples, results):
                if res is not None:
                    out += _wilcoxon_failures(x, y, res, method, sps)
        for p, mask in zip(batch.bh_inputs, batch.bh):
            if mask is not None and not np.array_equal(mask, sps.false_discovery_control(p) <= BH_Q):
                out.append("bh_fdr mask differs from scipy.stats.false_discovery_control")
        for scenes, ads, exact, ga in batch.schedules:
            optimum = reference.schedule_optimum(scenes, ads, SCHEDULE_SHAPE[2])
            found = [(exact[0], exact[1], True)] if exact is not None else []
            found += [(r.schedule, r.fitness, False) for r in ga if r is not None]
            for schedule, total, is_exact in found:
                out += _schedule_failures(scenes, ads, sorted(schedule.assignments.items()),
                                          total, optimum, is_exact)
        return out

    def op_metrics(self):
        return {
            "alpha_s": (self.median_round("alpha_s"), "s"),
            "wilcoxon_exact_s": (self.median_round("wilcoxon_exact_s"), "s"),
            "ga_schedule_s": (statistics.median(self.samples["ga_s"]), "s"),
        }


def _wilcoxon_failures(x, y, res, method, sps) -> list[str]:
    """W must equal U + n_x(n_x+1)/2 and p the two-sided p-value of
    scipy's Mann-Whitney U test (no continuity correction)."""
    ref = sps.mannwhitneyu(x, y, alternative="two-sided", method=method, use_continuity=False)
    w = float(ref.statistic) + len(x) * (len(x) + 1) / 2.0
    out = []
    if abs(res.statistic - w) > 1e-9:
        out.append(f"wilcoxon {method}: W {res.statistic} != U + nx(nx+1)/2 = {w}")
    if abs(res.p_value - float(ref.pvalue)) > 1e-9:
        out.append(f"wilcoxon {method} n={len(x) + len(y)}: p {res.p_value!r} vs scipy {float(ref.pvalue)!r}")
    return out


def _schedule_failures(scenes, ads, rows, total, optimum, exact) -> list[str]:
    """rows: (slot, ad id) pairs. The total must equal the relevance
    recomputed from the scenes and ads, never exceed the optimum, and reach
    it when the schedule claims to be exact."""
    by_id = {a["id"]: a for a in ads}
    slots = [s for s, _ in rows]
    ids = [a for _, a in rows]
    out = []
    if len(rows) != SCHEDULE_SHAPE[2] or len(set(ids)) != len(ids) or len(set(slots)) != len(slots):
        out.append(f"schedule {rows} is not {SCHEDULE_SHAPE[2]} distinct ads in distinct slots")
    if any(not 0 <= s < len(scenes) - 1 for s in slots) or any(a not in by_id for a in ids):
        return out + [f"schedule {rows} names unknown slots or ads"]
    recomputed = sum(reference.relevance(scenes[s], by_id[a]) for s, a in rows)
    if abs(recomputed - total) > 1e-9:
        out.append(f"schedule total {total!r} != recomputed relevance {recomputed!r}")
    if total > optimum + 1e-9 or (exact and abs(total - optimum) > 1e-9):
        out.append(f"schedule total {total!r} vs enumerated optimum {optimum!r}")
    return out


# -------------------------------------------------------------- cli-pipeline

CLI_RATERS, CLI_ITEMS = 20, 1000
CLI_EEG_PER_CLASS = 8
CLI_AUDIO_S, CLI_SAMPLE_RATE = 30, 16000
CLI_FRAMES, CLI_FPS, CLI_CUTS = 250, 25.0, 4
CLI_SEGMENT_ADS, CLI_SEGMENTS = 200, 30
CLI_EVAL_REPS = 2
STARTUP_PROBES = 3
PROCESS_TIMEOUT_S = 120.0


class CliPipeline(Workload):
    """The README walkthrough as separate `adaffect` processes."""

    name = "cli-pipeline"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.peak_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self):
        from adaffect import fileio, synthgen

        shutil.rmtree(self.inputs, ignore_errors=True)
        d = self.inputs
        d.mkdir(parents=True)
        self.matrices = {
            attr: synthgen.gen_rating_matrix(CLI_RATERS, CLI_ITEMS, 0.6, seed=self.seed * 2 + k, attribute=attr)
            for k, attr in enumerate(("valence", "arousal"))
        }
        fileio.write_ratings_csv(d / "ratings.csv", self.matrices)
        rng = self.rng(1)
        self.expert = {iid: {"arousal": rng.choice(["H", "L"]), "valence": rng.choice(["H", "L"])}
                       for iid in self.matrices["valence"].item_ids}
        fileio.atomic_write_text(d / "ads.jsonl", "".join(
            json.dumps({"id": iid, "duration_s": 30.0, "expert_arousal": e["arousal"],
                        "expert_valence": e["valence"]}) + "\n"
            for iid, e in self.expert.items()))

        # Audio: a voiced harmonic tone whose pitch steps every second, plus noise.
        rng = self.rng(2)
        t = np.arange(CLI_AUDIO_S * CLI_SAMPLE_RATE) / CLI_SAMPLE_RATE
        pitch = np.repeat(rng.uniform(100.0, 300.0, size=CLI_AUDIO_S), CLI_SAMPLE_RATE)
        phase = 2.0 * np.pi * np.cumsum(pitch) / CLI_SAMPLE_RATE
        audio = 0.3 * np.sin(phase) + 0.15 * np.sin(2 * phase) + 0.05 * rng.standard_normal(t.size)
        self.audio = audio.astype(np.float32)
        fileio.write_wav(d / "media" / "audio.wav", self.audio, CLI_SAMPLE_RATE)

        # Frames: shots of flat gray with a moving square; each cut changes
        # both gray levels, so every pixel changes histogram bin.
        rng = self.rng(3)
        cut_at = np.sort(rng.choice(np.arange(20, CLI_FRAMES - 20), size=CLI_CUTS, replace=False))
        levels = rng.permutation(np.arange(2, 62, 4))[: 2 * (CLI_CUTS + 1)].reshape(-1, 2)
        frames = np.empty((CLI_FRAMES, 48, 64, 3))
        shot = np.searchsorted(cut_at, np.arange(CLI_FRAMES), side="right")
        for i in range(CLI_FRAMES):
            bg, fg = (levels[shot[i]] + 0.5) / 64.0
            frames[i] = bg
            x = (2 * i) % 48
            frames[i, 8:24, x : x + 16] = fg
        fileio.write_frame_dir(d / "media" / "frames", frames, CLI_FPS)

        epochs, labels = synthgen.gen_synthetic_eeg(
            synthgen.GenSpec(seed=self.seed, n_per_task=CLI_EEG_PER_CLASS, class_separation=1.0, noise_std=1.0))
        self.eeg_meta = {}
        for k, (epoch, label) in enumerate(zip(epochs, labels)):
            quad = label.value + ("H" if k % 2 else "L")
            self.eeg_meta[epoch.stimulus_id] = (label.value, quad)
            fileio.write_eeg_epoch(d / "eeg", epoch.stimulus_id, epoch.data, epoch.baseline, {
                "sample_rate": epoch.sample_rate, "stimulus_id": epoch.stimulus_id,
                "clean": True, "label": label.value, "quadrant": quad})

        self.features = synthgen.gen_quadrant_data(synthgen.GenSpec(**dict(SEPARABLE, seed=self.seed))).features
        fileio.write_feature_csv(d / "features.csv", self.features)

        rng = self.rng(4)
        self.segments = {f"ad{a:03d}": [float(np.round(rng.random(), 6)) for _ in range(CLI_SEGMENTS)]
                         for a in range(CLI_SEGMENT_ADS)}
        fileio.atomic_write_text(d / "segments.csv", "ad_id,segment_id,p_high,p_low\n" + "".join(
            f"{ad},seg{s:02d},{p!r},{1.0 - p!r}\n"
            for ad, ps in self.segments.items() for s, p in enumerate(ps)))

        self.scenes, self.ads = _schedule_instance(self.rng(5))
        fileio.atomic_write_text(d / "scenes.json", json.dumps(self.scenes))
        fileio.atomic_write_text(d / "ads.json", json.dumps(self.ads))

    def _run_process(self, argv, tracer):
        """Run `adaffect argv` and wait for it; returns (exit code, stdout).
        Peak RSS comes from this child's own resource usage."""
        stdout_path = self.workdir / "stdout.txt"
        stderr_path = self.workdir / "stderr.txt"
        if tracer is None:
            cmd = [sys.executable, "-m", "adaffect.cli", *argv]
        else:
            span_path = self.workdir / "spans.json"
            cmd = [sys.executable, str(self.root / "bench" / "traced_cli.py"), str(span_path), *argv]
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=self.workdir)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is None:
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        else:
            tracer.absorb(json.loads(span_path.read_text()))
        if proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"adaffect {argv[0]} exited {proc.returncode}: {' '.join(tail)}")
        return stdout_path.read_text()

    def cli(self, group, tracer, *argv):
        return self.op(group, self._run_process, [str(a) for a in argv], tracer)

    def run_round(self, tracer):
        i, o = self.inputs, self.out
        shutil.rmtree(o, ignore_errors=True)
        o.mkdir(parents=True)
        for _ in range(STARTUP_PROBES):
            self.cli("cli_startup_s", tracer, "--version")
        self.cli("cli_agreement_s", tracer, "agreement", "--ratings", i / "ratings.csv",
                 "--manifest", i / "ads.jsonl", "--out", o / "agreement.csv")
        self.cli("cli_extract_av_s", tracer, "extract-av", "--audio", i / "media" / "audio.wav",
                 "--frames", i / "media" / "frames", "--out-audio", o / "audio.csv",
                 "--out-video", o / "video.csv", "--spectrogram", o / "spectrogram.csv")
        self.eeg_stdout = self.cli("cli_preprocess_eeg_s", tracer, "preprocess-eeg", "--epochs", i / "eeg",
                                   "--window", "first30", "--retain", 0.9, "--out", o / "eeg_features.csv")
        for model in ("lda", "mtl"):
            self.cli("cli_evaluate_s", tracer, "evaluate", "--features", i / "features.csv",
                     "--model", model, "--reps", CLI_EVAL_REPS, "--folds", CV_FOLDS,
                     "--out", o / f"report_{model}.csv", "--predictions", o / f"preds_{model}.csv")
        self.cli("cli_fuse_s", tracer, "fuse", "--a", o / "preds_mtl.csv", "--b", o / "preds_lda.csv",
                 "--f1a", 0.95, "--f1b", 0.9, "--out", o / "fused.csv")
        self.cli("cli_score_ads_s", tracer, "score-ads", "--predictions", i / "segments.csv",
                 "--out", o / "ad_scores.csv")
        k = SCHEDULE_SHAPE[2]
        self.cli("cli_schedule_s", tracer, "schedule", "--scenes", i / "scenes.json", "--ads", i / "ads.json",
                 "--k", k, "--method", "ga", "--out", o / "schedule_ga.csv")
        self.cli("cli_schedule_exact_s", tracer, "schedule", "--scenes", i / "scenes.json",
                 "--ads", i / "ads.json", "--k", k, "--method", "exact", "--out", o / "schedule_exact.csv")
        self.cli("cli_train_s", tracer, "train", "--features", i / "features.csv", "--model", "linear_svm",
                 "--out", o / "model.json")

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    # ------------------------------------------------------------ checks

    def check(self):
        out = []
        for name, fn in (("agreement", self._check_agreement), ("extract-av", self._check_media),
                         ("preprocess-eeg", self._check_eeg), ("evaluate/fuse", self._check_models),
                         ("score-ads", self._check_scores), ("schedule", self._check_schedules)):
            try:
                out += fn()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                out.append(f"{name}: cannot read output: {type(exc).__name__}: {exc}")
        return out

    def _check_agreement(self):
        oracles = reference.load_test_oracles(self.root)
        got = {}
        for line in (self.out / "agreement.csv").read_text().splitlines():
            method, attr, value = line.split(",")
            got[(method, attr)] = float(value)
        out = []
        for attr, m in self.matrices.items():
            expect = {
                ("krippendorff_alpha_ordinal", attr): reference.krippendorff_alpha_counts(m.values, "ordinal"),
                ("krippendorff_alpha_interval", attr): reference.krippendorff_alpha_counts(m.values, "interval"),
            }
            for ref_name in ("per_rater_mean", "group_mean"):
                tallies = reference.binary_tallies(m.values, ref_name)
                expect[(f"fleiss_kappa_{ref_name}", attr)] = oracles.fleiss_kappa_bruteforce(tallies.tolist())
            labels = np.where(m.values > np.nanmean(m.values, axis=1)[:, None], "H", "L")
            truth = [self.expert[iid][attr] for iid in m.item_ids]
            kappas = []
            for r in range(m.n_raters):
                try:
                    kappas.append(oracles.cohen_kappa_bruteforce(list(labels[r]), truth))
                except ZeroDivisionError:
                    continue
            expect[("cohen_kappa_mean_vs_expert", attr)] = float(np.mean(kappas))
            for key, value in expect.items():
                if key not in got or abs(got[key] - value) > 1e-9:
                    out.append(f"agreement {key}: {got.get(key)!r} vs oracle {value!r}")
        return out

    def _check_media(self):
        samples = self.audio.astype(np.float64)
        lines = (self.out / "spectrogram.csv").read_text().splitlines()
        mags = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        out = reference.spectrogram_identities(samples, CLI_SAMPLE_RATE, mags)
        audio = _read_numeric_csv(self.out / "audio.csv")
        energy = (samples[: CLI_AUDIO_S * CLI_SAMPLE_RATE].reshape(CLI_AUDIO_S, -1) ** 2).mean(axis=1)
        if audio["sound_energy"].shape != energy.shape or np.max(
                np.abs(audio["sound_energy"] - energy)) > 1e-9 * energy.max():
            out.append("audio sound_energy differs from per-second mean squared samples")
        video = _read_numeric_csv(self.out / "video.csv")
        if int(video["shot_changes"].sum()) != CLI_CUTS:
            out.append(f"video: {video['shot_changes'].sum()} shot changes, generated {CLI_CUTS}")
        return out

    def _check_eeg(self):
        from adaffect import fileio

        out = []
        feats = fileio.read_feature_csv(self.out / "eeg_features.csv")
        if sorted(feats.item_ids) != sorted(self.eeg_meta):
            return [f"eeg features list {feats.n_items} epochs, expected {len(self.eeg_meta)}"]
        for iid, lab, quad in zip(feats.item_ids, feats.labels, feats.quadrants):
            if (lab.value, quad.code) != self.eeg_meta[iid]:
                out.append(f"eeg {iid}: label/quadrant {lab.value}/{quad.code} != {self.eeg_meta[iid]}")
        # PCA scores of the fitted rows are centred, uncorrelated and ordered
        # by nonincreasing variance.
        X = feats.X
        gram = X.T @ X
        scale = float(np.max(np.diag(gram)))
        if np.max(np.abs(X.mean(axis=0))) > 1e-6 * np.sqrt(scale):
            out.append("eeg PCA scores are not centred")
        if np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-6 * scale:
            out.append("eeg PCA score columns are correlated")
        if np.any(np.diff(np.diag(gram)) > 1e-6 * scale):
            out.append("eeg PCA score variances increase")
        retained = float(self.eeg_stdout.split("retained ")[1].split()[0])
        if retained < 0.9:
            out.append(f"eeg PCA retained {retained} < 0.9")
        return out

    def _check_models(self):
        from adaffect import fileio
        from adaffect.learners import shallow

        out = []
        y = self.features.y_signs()
        posteriors = {}
        for model in ("lda", "mtl"):
            rows = list(csv.reader((self.out / f"report_{model}.csv").read_text().splitlines()))
            values = np.array([float(r[3]) for r in rows[1:-1]])
            summary = float(rows[-1][1])
            if len(values) != CLI_EVAL_REPS * CV_FOLDS or abs(values.mean() - summary) > 1e-12:
                out.append(f"evaluate {model}: {len(values)} rows with summary {summary}")
            if summary < F1_FLOOR:
                out.append(f"evaluate {model}: F1 {summary:.3f} < {F1_FLOOR} on a separable set")
            ids, _, post = fileio.read_predictions_csv(self.out / f"preds_{model}.csv")
            out += reference.posterior_failures(f"evaluate {model}", post)
            posteriors[model] = post
        # fuse tunes on alternate members of each class, in item order.
        header = (self.out / "fused.csv").read_text().splitlines()[0].lstrip("# ")
        fields = dict(kv.split("=") for kv in header.split(","))
        tune = sorted(i for cls in (1.0, -1.0) for i in np.flatnonzero(y == cls)[0::2])
        singles = [reference.f1(np.where(p[tune, 0] > p[tune, 1], 1, -1), y[tune]) for p in posteriors.values()]
        if float(fields["tuning_f1"]) < max(singles) - 1e-12:
            out.append(f"fuse: tuning F1 {fields['tuning_f1']} < best single stream {max(singles)}")
        doc = json.loads((self.out / "model.json").read_text())
        X = np.asarray(doc["support_vectors"], dtype=float)
        if X.shape != self.features.X.shape or np.max(np.abs(X - self.features.X)) > 0:
            return out + ["train: stored training rows differ from the feature file"]
        coef = np.asarray(doc["dual_coef"], dtype=float)
        _, _, failures = reference.svm_optimality(X, y, coef * y, doc["b"], doc["hyperparams"]["C"],
                                                  "linear_svm", None, shallow.KKT_TOL)
        return out + [f"train: {f}" for f in failures]

    def _check_scores(self):
        rows = list(csv.reader((self.out / "ad_scores.csv").read_text().splitlines()))[1:]
        got = {ad: float(v) for ad, v in rows}
        if sorted(got) != sorted(self.segments):
            return ["score-ads: ad ids differ from the segment file"]
        bad = [ad for ad, ps in self.segments.items() if abs(got[ad] - float(np.mean(ps))) > 1e-12]
        return [f"score-ads: {len(bad)} ads differ from their segment mean"] if bad else []

    def _check_schedules(self):
        optimum = reference.schedule_optimum(self.scenes, self.ads, SCHEDULE_SHAPE[2])
        out = []
        for name, exact in (("schedule_ga.csv", False), ("schedule_exact.csv", True)):
            rows = list(csv.reader((self.out / name).read_text().splitlines()))[1:]
            total = float(rows[-1][2])
            pairs = [(int(s), a) for s, a, _ in rows[:-1]]
            out += [f"{name}: {f}" for f in _schedule_failures(self.scenes, self.ads, pairs, total, optimum, exact)]
        return out

    def op_metrics(self):
        return {
            "cli_startup_s": (statistics.median(self.samples["cli_startup_s"]), "s"),
            "cli_agreement_s": (self.median_round("cli_agreement_s"), "s"),
            "cli_extract_av_s": (self.median_round("cli_extract_av_s"), "s"),
            "cli_preprocess_eeg_s": (self.median_round("cli_preprocess_eeg_s"), "s"),
            "cli_schedule_s": (self.median_round("cli_schedule_s"), "s"),
        }


def _read_numeric_csv(path) -> dict[str, np.ndarray]:
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(rows[0])}


WORKLOADS = {w.name: w for w in (CvSvm, CvMultitask, CliPipeline, StatsSchedule)}
