"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live).

Expected values come from independent oracles defined here or in
oracles.py (explicit enumeration, finite differences, closed forms),
never from the code paths under test.
"""

import functools
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from adaffect.core import ALL_QUADRANTS, AffectLabel, FeatureMatrix
from adaffect.eeg import EegEpoch, pca_apply, pca_fit, vectorize
from adaffect.evaluation import ModelSpec, cross_validate, f1_score, west_fuse
from adaffect.learners.cnn import CnnConfig, CnnModel, _init_params
from adaffect.learners.mtl import build_task_graph, mtl_fit
from adaffect.media import AudioClip, stft_spectrogram
from adaffect.scheduler import (
    AdItem,
    GaConfig,
    SceneRecord,
    ScheduleProblem,
    brute_force_schedule,
    ga_optimize,
    schedule_fitness,
)
from adaffect.stats import bh_fdr, cohen_kappa, fleiss_kappa, krippendorff_alpha, wilcoxon_rank_sum
from adaffect.synthgen import GenSpec, gen_quadrant_data
from gradcheck import grad_check_cnn, grad_check_mtl_smooth
from oracles import (
    cohen_kappa_bruteforce,
    fleiss_kappa_bruteforce,
    krippendorff_alpha_bruteforce,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[criterion {number:2d}] FAIL ({elapsed:6.2f}s) {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {number:2d}] PASS ({elapsed:6.2f}s) {description}")
        return inner
    return wrap


@criterion(1, "agreement statistics match brute-force oracles within 1e-10")
def test_criterion_1_agreement_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for trial in range(100):
        raters = int(rng.integers(2, 7))
        items = int(rng.integers(3, 13))
        levels = int(rng.integers(2, 5))

        a = list(rng.integers(0, levels, size=items))
        b = list(rng.integers(0, levels, size=items))
        try:
            expect = cohen_kappa_bruteforce(a, b)
        except ZeroDivisionError:
            expect = None
        if expect is not None:
            assert abs(cohen_kappa(a, b).statistic - expect) <= 1e-10

        n_ratings = int(rng.integers(2, 6))
        tallies = np.zeros((items, levels), dtype=int)
        for i in range(items):
            for d in rng.integers(0, levels, size=n_ratings):
                tallies[i, d] += 1
        try:
            expect = fleiss_kappa_bruteforce(tallies.tolist())
        except ZeroDivisionError:
            expect = None
        if expect is not None:
            assert abs(fleiss_kappa(tallies).statistic - expect) <= 1e-10

        grid = rng.integers(0, levels, size=(raters, items)).astype(float)
        grid[rng.random(grid.shape) < 0.1] = np.nan
        for metric in ("ordinal", "interval"):
            try:
                expect = krippendorff_alpha_bruteforce(grid.tolist(), metric)
            except ValueError:
                continue
            assert abs(krippendorff_alpha(grid, metric).statistic - expect) <= 1e-10

    # Perfect agreement returns exactly 1.
    assert cohen_kappa(list("HLHL"), list("HLHL")).statistic == 1.0
    assert fleiss_kappa([[3, 0], [0, 3]]).statistic == 1.0
    perfect = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    assert krippendorff_alpha(perfect, "ordinal").statistic == 1.0
    assert krippendorff_alpha(perfect, "interval").statistic == 1.0
    assert time.perf_counter() - start < 5.0


@criterion(2, "spectrogram bin/frame-count/Parseval identities")
def test_criterion_2_spectrogram():
    start = time.perf_counter()
    sr = 16000
    t = np.arange(sr * 10) / sr
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t), sr, 1)
    sg = stft_spectrogram(clip)  # 40 ms window, 20 ms hop
    assert sg.magnitudes.shape[0] == 499
    assert np.all(np.argmax(sg.magnitudes, axis=1) == 40)

    rng = np.random.default_rng(2002)
    samples = rng.uniform(-1.0, 1.0, size=640 * 50)
    noise_clip = AudioClip(samples, sr, 1)
    sg_rect = stft_spectrogram(noise_clip, window_ms=40.0, hop_ms=40.0, window_fn="rectangular")
    time_energy = float(np.sum(samples**2))
    rel = abs(sg_rect.total_energy() - time_energy) / time_energy
    assert rel <= 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(3, "EEG vectorization lengths 51338 (first30) and 17920 (last10)")
def test_criterion_3_eeg_shapes():
    epoch = EegEpoch(np.random.default_rng(3003).normal(size=(14, 3840)))
    assert vectorize(epoch, "first30").size == 51338
    assert vectorize(epoch, "last30").size == 51338
    assert vectorize(epoch, "last10").size == 17920


@criterion(4, "PCA variance retention, orthonormality, gram == direct")
def test_criterion_4_pca():
    rng = np.random.default_rng(4004)
    scales = np.linspace(3.0, 0.05, 200)
    rows = rng.normal(size=(500, 200)) * scales + rng.normal(size=200)
    direct = pca_fit(rows, retain=0.9, method="direct")
    gram = pca_fit(rows, retain=0.9, method="gram")
    for model in (direct, gram):
        assert model.retained_fraction >= 0.9
        eye = model.components @ model.components.T
        assert np.max(np.abs(eye - np.eye(model.k))) <= 1e-8
    assert direct.k == gram.k
    pd = pca_apply(direct, rows)
    pg = pca_apply(gram, rows)
    for j in range(direct.k):
        sign = 1.0 if float(pd[:, j] @ pg[:, j]) >= 0 else -1.0
        assert np.max(np.abs(pd[:, j] - sign * pg[:, j])) <= 1e-6


@criterion(5, "MTL solver: monotone objective, exact prox, coupling, least-squares limit")
def test_criterion_5_mtl():
    graph = build_task_graph()
    rng = np.random.default_rng(5005)

    # (a) objective nonincreasing on 50 random instances
    for _ in range(50):
        d = int(rng.integers(3, 8))
        Xs = [rng.normal(size=(int(rng.integers(4, 10)), d)) for _ in range(4)]
        Ys = [np.sign(rng.normal(size=len(X))) for X in Xs]
        alpha, beta, gamma = rng.uniform(0, 2, size=3)
        model = mtl_fit(Xs, Ys, alpha, beta, gamma, graph, max_iter=300)
        hist = np.array(model.objective_history)
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))

    # (b) 1-D prox case: min (w-1)^2 + |w| has the exact solution 0.5
    ones = [np.array([[1.0]])] * 4
    target = [np.array([1.0])] * 4
    model = mtl_fit(ones, target, 0.0, 1.0, 0.0, graph, tol=1e-14)
    assert abs(model.W[0, 0] - 0.5) <= 1e-9

    # (c) huge graph weight forces related columns together
    X = rng.normal(size=(20, 5))
    Y = X @ rng.normal(size=5)
    coupled = mtl_fit([X] * 4, [Y] * 4, 1e6, 0.0, 0.0, graph, tol=1e-14, max_iter=20000)
    for i, j in graph.edges:
        assert np.linalg.norm(coupled.W[:, i] - coupled.W[:, j]) <= 1e-3

    # (d) no regularization reduces to independent least squares
    Xs = [rng.normal(size=(12, 5)) for _ in range(4)]
    ws = [rng.normal(size=5) for _ in range(4)]
    Ys = [X @ w for X, w in zip(Xs, ws)]
    plain = mtl_fit(Xs, Ys, 0.0, 0.0, 0.0, graph, tol=1e-14, max_iter=30000)
    for t in range(4):
        assert np.linalg.norm(Xs[t] @ plain.W[:, t] - Ys[t]) <= 1e-6


@criterion(6, "analytic gradients match central differences (CNN 1e-4, MTL 1e-6)")
def test_criterion_6_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(6006)
    config = CnnConfig(dropout=0.0)
    model = CnnModel(config=config, input_dim=20)
    model.params = _init_params(20, config, rng)
    X = rng.normal(size=(6, 20))
    targets = rng.integers(0, 2, size=6)
    assert grad_check_cnn(model, X, targets, n_coords=200, h=1e-5, seed=1) < 1e-4

    graph = build_task_graph()
    Xs = [rng.normal(size=(9, 6)) for _ in range(4)]
    Ys = [np.sign(rng.normal(size=9)) for _ in range(4)]
    W = rng.normal(size=(6, 4))
    bias = rng.normal(size=4)
    err = grad_check_mtl_smooth(W, bias, Xs, Ys, alpha=0.8, gamma=0.4, graph=graph,
                                n_coords=200, h=1e-5, seed=2)
    assert err < 1e-6
    assert time.perf_counter() - start < 30.0


@criterion(7, "end-to-end CV sanity: separable, null, and MTL-vs-LSVM gap")
def test_criterion_7_end_to_end():
    start = time.perf_counter()

    separable = gen_quadrant_data(
        GenSpec(seed=7101, n_per_task=30, dims=16, class_separation=10.0,
                task_correlation=0.5, noise_std=0.1)
    ).features
    specs = [
        ModelSpec("lda"),
        ModelSpec("linear_svm"),
        ModelSpec("rbf_svm"),
        ModelSpec("mtl"),
        ModelSpec("cnn", params={"max_epochs": 30}),
    ]
    for spec in specs:
        report = cross_validate(separable, spec, reps=10, folds=5, seed=71)
        assert report.mean >= 0.95, f"{spec.kind}: mean F1 {report.mean:.3f} < 0.95"

    rng = np.random.default_rng(7202)
    perm = rng.permutation(separable.n_items)
    shuffled = FeatureMatrix(
        separable.X,
        [separable.labels[i] for i in perm],
        separable.quadrants,
        separable.item_ids,
    )
    null_specs = [
        ModelSpec("lda"),
        ModelSpec("linear_svm", grid={"C": [1.0]}),
        ModelSpec("rbf_svm", grid={"C": [1.0], "gamma": ["scale"]}),
    ]
    for spec in null_specs:
        report = cross_validate(shuffled, spec, reps=10, folds=5, seed=72)
        assert 0.4 <= report.mean <= 0.6, f"{spec.kind}: null mean F1 {report.mean:.3f}"

    shared = gen_quadrant_data(
        GenSpec(seed=7303, n_per_task=30, dims=16, class_separation=1.0,
                task_correlation=0.9, noise_std=0.1)
    ).features
    mtl_report = cross_validate(shared, ModelSpec("mtl"), reps=10, folds=5, seed=73)
    lsvm_report = cross_validate(
        shared, ModelSpec("linear_svm", grid={"C": [0.1, 1.0, 10.0]}), reps=10, folds=5, seed=73
    )
    gap = mtl_report.mean - lsvm_report.mean
    assert gap >= 0.05, f"MTL {mtl_report.mean:.3f} vs LSVM {lsvm_report.mean:.3f}, gap {gap:.3f}"
    assert time.perf_counter() - start < 300.0


@criterion(8, "fusion hand example and grid-endpoint dominance on 100 random sets")
def test_criterion_8_fusion():
    res = west_fuse(
        np.array([[0.9, 0.1]]), np.array([[0.4, 0.6]]), 0.5, 0.5, alphas=(0.5, 0.5)
    )
    assert res.posteriors[0, 0] == pytest.approx(0.325, abs=1e-12)
    assert res.posteriors[0, 1] == pytest.approx(0.175, abs=1e-12)

    rng = np.random.default_rng(8008)
    for _ in range(100):
        n = int(rng.integers(10, 40))
        truth = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        p1 = rng.dirichlet((1.0, 1.0), size=n)
        p2 = rng.dirichlet((1.0, 1.0), size=n)
        f1t = float(rng.uniform(0.05, 1.0))
        f2t = float(rng.uniform(0.05, 1.0))
        fused = west_fuse(p1, p2, f1t, f2t, truth=truth, grid_step=0.01)
        lab1 = np.where(p1[:, 0] > p1[:, 1], 1.0, -1.0)
        lab2 = np.where(p2[:, 0] > p2[:, 1], 1.0, -1.0)
        best_single = max(f1_score(lab1, truth), f1_score(lab2, truth))
        assert fused.tuning_f1 >= best_single - 1e-12


@criterion(9, "GA matches the exhaustive optimum (>=95/100 runs, never <0.98x)")
def test_criterion_9_scheduler():
    start = time.perf_counter()
    rng = np.random.default_rng(9009)
    scenes = [SceneRecord(f"s{i}", float(rng.random()), float(rng.random())) for i in range(8)]
    ads = [AdItem(f"a{i}", float(rng.random()), float(rng.random())) for i in range(6)]
    problem = ScheduleProblem(scenes, ads, k=5)
    _, optimum = brute_force_schedule(problem)

    hits = 0
    for seed in range(100):
        result = ga_optimize(problem, GaConfig(seed=seed))
        hist = np.array(result.best_history)
        assert np.all(np.diff(hist) >= 0.0)
        assert schedule_fitness(problem, result.schedule) == pytest.approx(result.fitness)
        assert result.fitness >= 0.98 * optimum - 1e-12
        if abs(result.fitness - optimum) <= 1e-9:
            hits += 1
    assert hits >= 95, f"GA hit the optimum on only {hits}/100 runs"
    assert time.perf_counter() - start < 60.0


@criterion(10, "every CLI subcommand is byte-deterministic under a fixed seed")
def test_criterion_10_cli_determinism(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "adaffect.cli", *[str(a) for a in argv]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def twice(name, outputs, *argv):
        """Run a subcommand twice against copies of the arg list in which
        {i} expands to pass-specific output paths; compare output bytes."""
        blobs = []
        for attempt in ("p1", "p2"):
            sub = tmp_path / name / attempt
            sub.mkdir(parents=True, exist_ok=True)
            expanded = [str(a).replace("{run}", str(sub)) for a in argv]
            cli(*expanded)
            blob = b""
            for rel in outputs:
                target = sub / rel
                if target.is_dir():
                    for f in sorted(target.rglob("*")):
                        if f.is_file() and not f.name.endswith(".meta.json"):
                            blob += f.name.encode() + f.read_bytes()
                else:
                    blob += target.read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"{name}: outputs differ between identical runs"

    base = tmp_path / "inputs"
    base.mkdir()
    cli("synth", "quadrant", "--seed", 5, "--n-per-task", 8, "--dims", 9,
        "--out", base / "features.csv")
    cli("synth", "ratings", "--seed", 5, "--raters", 6, "--items", 20,
        "--out", base / "ratings.csv")
    cli("synth", "media", "--seed", 5, "--out", base / "media")
    cli("synth", "eeg", "--seed", 5, "--n-per-class", 4, "--duration", 4,
        "--out", base / "eeg")
    cli("synth", "schedule-instance", "--seed", 5, "--out", base / "inst")
    cli("synth", "posteriors", "--seed", 5, "--ads", 4, "--segments", 5,
        "--out", base / "segs.csv")
    cli("evaluate", "--features", base / "features.csv", "--model", "lda", "--reps", 1,
        "--folds", 3, "--seed", 5, "--out", base / "ra.csv", "--predictions", base / "pa.csv")
    cli("evaluate", "--features", base / "features.csv", "--model", "mtl", "--reps", 1,
        "--folds", 3, "--seed", 6, "--out", base / "rb.csv", "--predictions", base / "pb.csv")

    twice("synth-quadrant", ["f.csv"],
          "synth", "quadrant", "--seed", 9, "--n-per-task", 6, "--dims", 9, "--out", "{run}/f.csv")
    twice("synth-eeg", ["eeg"],
          "synth", "eeg", "--seed", 9, "--n-per-class", 3, "--duration", 3, "--out", "{run}/eeg")
    twice("agreement", ["agree.csv"],
          "agreement", "--ratings", base / "ratings.csv", "--out", "{run}/agree.csv")
    twice("extract-av", ["af.csv", "vf.csv", "sg.csv"],
          "extract-av", "--audio", base / "media" / "tone.wav",
          "--frames", base / "media" / "frames",
          "--out-audio", "{run}/af.csv", "--out-video", "{run}/vf.csv",
          "--spectrogram", "{run}/sg.csv")
    twice("preprocess-eeg", ["ef.csv"],
          "preprocess-eeg", "--epochs", base / "eeg", "--window", "last10",
          "--retain", 0.9, "--out", "{run}/ef.csv")
    twice("train", ["model.json"],
          "train", "--features", base / "features.csv", "--model", "linear_svm",
          "--seed", 9, "--out", "{run}/model.json")
    twice("evaluate", ["report.csv", "preds.csv"],
          "evaluate", "--features", base / "features.csv", "--model", "lda",
          "--reps", 1, "--folds", 3, "--seed", 9,
          "--out", "{run}/report.csv", "--predictions", "{run}/preds.csv")
    twice("fuse", ["fused.csv"],
          "fuse", "--a", base / "pa.csv", "--b", base / "pb.csv",
          "--f1a", 0.9, "--f1b", 0.8, "--grid-step", 0.05, "--out", "{run}/fused.csv")
    twice("score-ads", ["scores.csv"],
          "score-ads", "--predictions", base / "segs.csv", "--normalize",
          "--out", "{run}/scores.csv")
    twice("schedule", ["sched.csv"],
          "schedule", "--scenes", base / "inst" / "scenes.json",
          "--ads", base / "inst" / "ads.json", "--k", 5, "--method", "ga",
          "--seed", 9, "--generations", 40, "--out", "{run}/sched.csv")


@criterion(11, "Wilcoxon exact p = 0.1 and BH rejection boundary")
def test_criterion_11_statistics():
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res.p_value == pytest.approx(0.1, abs=1e-12)
    mask = bh_fdr([0.01, 0.02, 0.04, 0.8], 0.05)
    assert list(mask) == [True, True, False, False]
