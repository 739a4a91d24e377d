"""Command-line entry point.

Subcommands cover the whole pipeline: agreement statistics, audiovisual
feature extraction, EEG preprocessing, model training, cross-validated
evaluation, decision fusion, ad-level scoring, ad-insertion scheduling,
and synthetic-data generation. Every invocation writes a run-metadata
sidecar (config + seed + version) next to its primary output, outputs are
written atomically, and a fixed seed yields byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    AffectLabel,
    FeatureMatrix,
    Quadrant,
    binarize_ratings,
    load_manifest,
    load_ratings_csv,
    min_max_normalize,
)
from . import fileio
from .eeg import EegEpoch, bandpass_filter, baseline_correct, pca_apply, pca_fit, vectorize
from .evaluation import (
    MODEL_KINDS,
    ModelSpec,
    ad_level_score,
    cross_validate,
    f1_score,
    fit_model,
    west_fuse,
)
from .learners import save_model
# Unused here, but the benchmark's tracer (bench/spans.py) looks these names up on this module.
from .learners.cnn import cnn_train
from .learners.mtl import mtl_fit
from .learners.shallow import shallow_fit
from .media import (
    AudioClip,
    FrameSequence,
    hanjalic_audio,
    hanjalic_video,
    stft_spectrogram,
    temporal_window,
)
from .scheduler import (
    GaConfig,
    ScheduleProblem,
    brute_force_schedule,
    ga_optimize,
    load_ads,
    load_scenes,
    schedule_to_csv,
)
from .stats import cohen_kappa, fleiss_kappa, krippendorff_alpha
from .synthgen import GenSpec, gen_quadrant_data, gen_rating_matrix, gen_synthetic_eeg, gen_test_media

DEFAULT_SEED = 20200
WINDOW_CHOICES = ("all", "first30", "last30", "last10")


def _parse_kv(pairs):
    """key=value overrides with numeric coercion."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key.strip()] = _coerce(raw.strip())
    return out


def _parse_grid(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected key=v1,v2,..., got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key.strip()] = [_coerce(v) for v in raw.split(",") if v != ""]
    return out


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _write_run_metadata(out_path, subcommand: str, args: argparse.Namespace):
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func",)
    }
    meta = {
        "version": __version__,
        "subcommand": subcommand,
        "seed": getattr(args, "seed", None),
        "config": config,
    }
    out_path = Path(out_path)
    target = out_path / "run.meta.json" if out_path.is_dir() else out_path.with_name(out_path.name + ".meta.json")
    fileio.atomic_write_text(target, json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ------------------------------------------------------------- agreement

def cmd_agreement(args) -> int:
    matrices = load_ratings_csv(args.ratings)
    if not matrices:
        raise ValueError(f"{args.ratings}: no ratings found")
    expert = {}
    if args.manifest:
        bundle = load_manifest(args.manifest)
        for ad in bundle.ads:
            expert[ad.id] = {
                "arousal": ad.expert_quadrant.arousal,
                "valence": ad.expert_quadrant.valence,
            }
    lines = []
    for attr in sorted(matrices):
        m = matrices[attr]
        for metric in ("ordinal", "interval"):
            res = krippendorff_alpha(m, metric)
            lines.append(f"krippendorff_alpha_{metric},{attr},{fileio.fmt(res.statistic)}")
        for reference in ("per_rater_mean", "group_mean"):
            grid = binarize_ratings(m, reference)
            tallies = np.zeros((m.n_items, 2))
            for i in range(m.n_items):
                col = grid[:, i]
                tallies[i, 0] = sum(1 for v in col if v is AffectLabel.HIGH)
                tallies[i, 1] = sum(1 for v in col if v is AffectLabel.LOW)
            keep = tallies.sum(axis=1) == m.n_raters
            res = fleiss_kappa(tallies[keep])
            lines.append(f"fleiss_kappa_{reference},{attr},{fileio.fmt(res.statistic)}")
        if expert:
            grid = binarize_ratings(m, "per_rater_mean")
            kappas = []
            truth = [expert[iid][attr] for iid in m.item_ids if iid in expert]
            cols = [i for i, iid in enumerate(m.item_ids) if iid in expert]
            for r in range(m.n_raters):
                rater = [grid[r, i] for i in cols]
                pairs = [(a, b) for a, b in zip(rater, truth) if a is not None]
                if len(pairs) < 2:
                    continue
                a_vals, b_vals = zip(*pairs)
                try:
                    kappas.append(cohen_kappa(a_vals, b_vals).statistic)
                except ValueError:
                    continue
            if kappas:
                lines.append(f"cohen_kappa_mean_vs_expert,{attr},{fileio.fmt(float(np.mean(kappas)))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        fileio.atomic_write_text(args.out, text)
        _write_run_metadata(args.out, "agreement", args)
    return 0


# ------------------------------------------------------------- extract-av

def cmd_extract_av(args) -> int:
    if not args.audio and not args.frames:
        raise ValueError("need --audio and/or --frames")
    wrote = []
    if args.audio:
        samples, sr, channels = fileio.read_wav(args.audio)
        clip = AudioClip(samples, sr, channels)
        if args.out_audio:
            series = temporal_window(hanjalic_audio(clip, smooth_frames=args.smooth), args.window)
            fileio.write_descriptor_csv(args.out_audio, series)
            wrote.append(args.out_audio)
        if args.spectrogram:
            fileio.write_spectrogram_csv(args.spectrogram, stft_spectrogram(clip))
            wrote.append(args.spectrogram)
    if args.frames:
        frames, fps = fileio.read_frame_dir(args.frames)
        series = temporal_window(hanjalic_video(FrameSequence(frames, fps), smooth_frames=args.smooth), args.window)
        if args.out_video:
            fileio.write_descriptor_csv(args.out_video, series)
            wrote.append(args.out_video)
    if not wrote:
        raise ValueError("no outputs requested; pass --out-audio/--out-video/--spectrogram")
    for path in wrote:
        _write_run_metadata(path, "extract-av", args)
    return 0


# ---------------------------------------------------------- preprocess-eeg

def cmd_preprocess_eeg(args) -> int:
    paths = fileio.list_eeg_epochs(args.epochs)
    if not paths:
        raise ValueError(f"{args.epochs}: no epoch files (*.f32) found")
    epochs, labels, quads, ids = [], [], [], []
    n_dirty = 0
    for p in paths:
        data, baseline, meta = fileio.read_eeg_epoch(p)
        epoch = EegEpoch(
            data=data,
            sample_rate=int(meta["sample_rate"]),
            stimulus_id=meta["stimulus_id"],
            clean=bool(meta["clean"]),
            baseline=baseline,
        )
        if not epoch.clean:
            n_dirty += 1
            if args.subset == "clean":
                continue
        if "label" not in meta or "quadrant" not in meta:
            raise ValueError(f"{p}: sidecar lacks label/quadrant fields needed for features")
        epochs.append(epoch)
        labels.append(AffectLabel.from_code(meta["label"]))
        quads.append(Quadrant.from_code(meta["quadrant"]))
        ids.append(meta["stimulus_id"])
    total = len(paths)
    print(f"epochs: {total} total, {total - n_dirty} clean, {n_dirty} dirty; using {len(epochs)}")

    rows = []
    for epoch in epochs:
        filtered = bandpass_filter(epoch, args.low, args.high)
        if filtered.baseline is not None:
            filtered = baseline_correct(filtered)
        rows.append(vectorize(filtered, args.window))
    width = min(len(r) for r in rows)
    X = np.stack([r[:width] for r in rows])
    if args.retain > 0:
        model = pca_fit(X, retain=args.retain, method="auto")
        X = pca_apply(model, X)
        print(f"pca: {model.k} components, retained {model.retained_fraction:.4f} of variance")
    features = FeatureMatrix(X, labels, quads, ids)
    fileio.write_feature_csv(args.out, features)
    _write_run_metadata(args.out, "preprocess-eeg", args)
    return 0


# ------------------------------------------------------------------ train

def cmd_train(args) -> int:
    features = fileio.read_feature_csv(args.features)
    model = fit_model(args.model, features, _parse_kv(args.hyper), args.seed)
    save_model(model, args.out)
    meta = getattr(model, "train_meta", {})
    if meta.get("converged") is False:
        print(f"warning: {args.model} C={model.hyperparams['C']} stopped after {meta['iters']} "
              "SMO iterations without meeting the KKT tolerance", file=sys.stderr)
    _write_run_metadata(args.out, "train", args)
    return 0


# --------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    features = fileio.read_feature_csv(args.features)
    spec = ModelSpec(args.model, params=_parse_kv(args.hyper), grid=_parse_grid(args.grid) or None)
    setting = {
        "attribute": args.attribute,
        "window": args.window,
        "model": args.model,
        "modality": args.modality,
    }
    report = cross_validate(features, spec, reps=args.reps, folds=args.folds,
                            seed=args.seed, setting=setting)
    setting_str = ":".join(str(setting[k]) for k in ("attribute", "window", "model", "modality"))
    lines = ["setting,run,fold,f1"]
    for run, fold, f1 in report.rows:
        lines.append(f"{setting_str},{run},{fold},{fileio.fmt(f1)}")
    lines.append(f"summary,{fileio.fmt(report.mean)},{fileio.fmt(report.std)}")
    fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    _write_run_metadata(args.out, "evaluate", args)
    print(f"{setting_str}: F1 = {report.mean:.4f} +/- {report.std:.4f} over {len(report.rows)} runs")
    if args.predictions:
        fileio.write_predictions_csv(
            args.predictions, features.item_ids, features.labels, report.oof_posteriors
        )
        _write_run_metadata(args.predictions, "evaluate", args)
    return 0


# ------------------------------------------------------------------- fuse

def _fusion_tuning_split(truths) -> tuple[list[int], list[int]]:
    """Deterministic stratified halves: alternate within each class."""
    tune, hold = [], []
    for cls in (AffectLabel.HIGH, AffectLabel.LOW):
        members = [i for i, t in enumerate(truths) if t is cls]
        tune.extend(members[0::2])
        hold.extend(members[1::2])
    return sorted(tune), sorted(hold)


def cmd_fuse(args) -> int:
    ids_a, truth_a, post_a = fileio.read_predictions_csv(args.a)
    ids_b, truth_b, post_b = fileio.read_predictions_csv(args.b)
    if ids_a != ids_b:
        raise ValueError("prediction files describe different item sets")
    if [t.value for t in truth_a] != [t.value for t in truth_b]:
        raise ValueError("prediction files disagree on truth labels")
    if args.tune_on_eval:
        # Leaky research mode: tune the mixing weights on every item and
        # report F1 on those same items.
        tune_idx = list(range(len(ids_a)))
        hold_idx = tune_idx
    else:
        tune_idx, hold_idx = _fusion_tuning_split(truth_a)
        if not tune_idx or not hold_idx:
            raise ValueError("too few items to split into tuning and evaluation halves")
    tuned = west_fuse(
        post_a[tune_idx], post_b[tune_idx], args.f1a, args.f1b,
        truth=[truth_a[i] for i in tune_idx], grid_step=args.grid_step, mode=args.mode,
    )
    result = west_fuse(post_a, post_b, args.f1a, args.f1b, alphas=tuned.alpha)
    eval_f1 = f1_score(result.labels[hold_idx], [truth_a[i] for i in hold_idx])
    lines = [
        f"# alpha1={fileio.fmt(tuned.alpha[0])},alpha2={fileio.fmt(tuned.alpha[1])},"
        f"tuning_f1={fileio.fmt(tuned.tuning_f1)},eval_f1={fileio.fmt(eval_f1)},"
        f"tune_on_eval={str(bool(args.tune_on_eval)).lower()}",
        "item_id,truth,p_high,p_low,label",
    ]
    for iid, truth, post, label in zip(ids_a, truth_a, result.posteriors, result.labels):
        code = "H" if label > 0 else "L"
        lines.append(f"{iid},{truth.value},{fileio.fmt(post[0])},{fileio.fmt(post[1])},{code}")
    fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    _write_run_metadata(args.out, "fuse", args)
    print(f"alpha = {tuned.alpha}, tuning F1 = {tuned.tuning_f1:.4f}, eval F1 = {eval_f1:.4f}")
    return 0


# -------------------------------------------------------------- score-ads

def cmd_score_ads(args) -> int:
    groups = fileio.read_segment_posteriors_csv(args.predictions)
    if not groups:
        raise ValueError(f"{args.predictions}: no segment rows found")
    ad_ids = sorted(groups)
    scores = np.array([ad_level_score(groups[a]) for a in ad_ids])
    if args.normalize:
        scores = min_max_normalize(scores)
    lines = ["ad_id,score"]
    for ad_id, score in zip(ad_ids, scores):
        lines.append(f"{ad_id},{fileio.fmt(float(score))}")
    fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    _write_run_metadata(args.out, "score-ads", args)
    return 0


# --------------------------------------------------------------- schedule

def cmd_schedule(args) -> int:
    problem = ScheduleProblem(
        scenes=load_scenes(args.scenes),
        ads=load_ads(args.ads),
        k=args.k,
        lambda_v=args.lambda_v,
        lambda_a=args.lambda_a,
        match_following_scene=args.match_following,
    )
    if args.method == "exact":
        schedule, fitness = brute_force_schedule(problem)
    else:
        config = GaConfig(
            population=args.population,
            generations=args.generations,
            crossover_rate=args.crossover,
            mutation_rate=args.mutation,
            seed=args.seed,
        )
        result = ga_optimize(problem, config)
        schedule, fitness = result.schedule, result.fitness
    fileio.atomic_write_text(args.out, schedule_to_csv(problem, schedule, fitness))
    _write_run_metadata(args.out, "schedule", args)
    print(f"{args.method} schedule fitness = {fitness:.6f}")
    return 0


# ------------------------------------------------------------------ synth

def cmd_synth(args) -> int:
    seed = args.seed
    if args.kind == "quadrant":
        spec = GenSpec(
            seed=seed,
            n_per_task=args.n_per_task,
            dims=args.dims,
            class_separation=args.class_separation,
            task_correlation=args.task_correlation,
            noise_std=args.noise_std,
        )
        data = gen_quadrant_data(spec)
        fileio.write_feature_csv(args.out, data.features)
        _write_run_metadata(args.out, "synth", args)
        return 0
    if args.kind == "eeg":
        spec = GenSpec(
            seed=seed,
            n_per_task=args.n_per_class,
            class_separation=args.snr,
            noise_std=args.noise_std,
        )
        epochs, labels = gen_synthetic_eeg(spec, tuple(args.band), duration_s=args.duration)
        out = Path(args.out)
        quad_cycle = {"H": ("HH", "HL"), "L": ("LH", "LL")}
        counters = {"H": 0, "L": 0}
        for epoch, label in zip(epochs, labels):
            code = label.value
            quad = quad_cycle[code][counters[code] % 2]
            counters[code] += 1
            fileio.write_eeg_epoch(
                out,
                epoch.stimulus_id,
                epoch.data,
                epoch.baseline,
                {
                    "sample_rate": epoch.sample_rate,
                    "stimulus_id": epoch.stimulus_id,
                    "clean": epoch.clean,
                    "label": code,
                    "quadrant": quad,
                },
            )
        _write_run_metadata(out, "synth", args)
        return 0
    if args.kind == "ratings":
        matrices = {}
        attrs = ("valence", "arousal") if args.attribute == "both" else (args.attribute,)
        for offset, attr in enumerate(attrs):
            matrices[attr] = gen_rating_matrix(
                args.raters, args.items, args.agreement, seed=seed + offset, attribute=attr
            )
        fileio.write_ratings_csv(args.out, matrices)
        _write_run_metadata(args.out, "synth", args)
        if args.with_manifest:
            # Matching ad manifest: expert labels from group-mean binarization
            # of the generated ratings, deterministic durations.
            lines = []
            some = next(iter(matrices.values()))
            for i, iid in enumerate(some.item_ids):
                labels = {}
                for attr in ("arousal", "valence"):
                    if attr in matrices:
                        m = matrices[attr]
                        mean = float(np.nanmean(m.values[:, i]))
                        group = float(np.nanmean(m.values))
                        labels[attr] = "H" if mean > group else "L"
                    else:
                        labels[attr] = "H" if i % 2 == 0 else "L"
                lines.append(json.dumps({
                    "id": iid,
                    "duration_s": 30.0 + 2.0 * i,
                    "expert_arousal": labels["arousal"],
                    "expert_valence": labels["valence"],
                }))
            fileio.atomic_write_text(args.with_manifest, "\n".join(lines) + "\n")
        return 0
    if args.kind == "media":
        out = Path(args.out)
        tone = gen_test_media("tone", freq_hz=1000.0, sample_rate=16000, duration_s=12.0)
        fileio.write_wav(out / "tone.wav", tone.samples.astype(np.float32), tone.sample_rate)
        stereo = np.column_stack([tone.samples, 0.5 * tone.samples]).astype(np.float32)
        fileio.write_wav(out / "tone_stereo.wav", stereo, tone.sample_rate)
        sweep = gen_test_media("sweep", f0_hz=100.0, f1_hz=4000.0, duration_s=12.0)
        fileio.write_wav(out / "sweep.wav", sweep.samples.astype(np.float32), sweep.sample_rate)
        cut = gen_test_media("cut_sequence", n_frames=100, fps=25.0, cut_at=50)
        fileio.write_frame_dir(out / "frames", cut.frames, cut.frame_rate)
        _write_run_metadata(out, "synth", args)
        return 0
    if args.kind == "schedule-instance":
        rng = np.random.default_rng(seed)
        scenes = [
            {"id": f"scene{i:02d}", "asl": round(float(rng.random()), 6), "val": round(float(rng.random()), 6)}
            for i in range(args.scenes)
        ]
        ads = [
            {"id": f"ad{i:02d}", "asl": round(float(rng.random()), 6), "val": round(float(rng.random()), 6)}
            for i in range(args.ads)
        ]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        fileio.atomic_write_text(out / "scenes.json", json.dumps(scenes, indent=2) + "\n")
        fileio.atomic_write_text(out / "ads.json", json.dumps(ads, indent=2) + "\n")
        _write_run_metadata(out, "synth", args)
        return 0
    if args.kind == "posteriors":
        rng = np.random.default_rng(seed)
        lines = ["ad_id,segment_id,p_high,p_low"]
        for a in range(args.ads):
            for s in range(args.segments):
                p_high = float(np.round(rng.random(), 6))
                lines.append(f"ad{a:02d},seg{s:02d},{fileio.fmt(p_high)},{fileio.fmt(1.0 - p_high)}")
        fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
        _write_run_metadata(args.out, "synth", args)
        return 0
    raise ValueError(f"unknown synth kind {args.kind!r}")


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaffect",
        description="Ad affect recognition toolkit: statistics, features, learners, fusion, scheduling.",
    )
    parser.add_argument("--version", action="version", version=f"adaffect {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"deterministic seed (default {DEFAULT_SEED})")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of option defaults (CLI flags win)")

    p = sub.add_parser("agreement", help="inter-rater agreement statistics from a ratings CSV")
    p.add_argument("--ratings", required=True)
    p.add_argument("--manifest", default=None, help="ad manifest for expert-vs-rater Cohen kappa")
    p.add_argument("--out", default=None, help="also write the method,attribute,value lines here")
    add_common(p)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("extract-av", help="audio/video descriptor extraction")
    p.add_argument("--audio", default=None, help="PCM WAV input")
    p.add_argument("--frames", default=None, help="directory of frame_%%06d.ppm + fps.txt")
    p.add_argument("--window", choices=WINDOW_CHOICES, default="all")
    p.add_argument("--smooth", action="store_true", help="Kaiser-smooth frame series before aggregation")
    p.add_argument("--out-audio", default=None)
    p.add_argument("--out-video", default=None)
    p.add_argument("--spectrogram", default=None, help="write the clip spectrogram CSV here")
    add_common(p)
    p.set_defaults(func=cmd_extract_av)

    p = sub.add_parser("preprocess-eeg", help="filter, window, vectorize and PCA-reduce EEG epochs")
    p.add_argument("--epochs", required=True, help="directory of *.f32 + *.json epochs")
    p.add_argument("--window", choices=WINDOW_CHOICES, default="first30")
    p.add_argument("--low", type=float, default=0.1)
    p.add_argument("--high", type=float, default=45.0)
    p.add_argument("--retain", type=float, default=0.9, help="PCA variance target; 0 disables PCA")
    p.add_argument("--subset", choices=("all", "clean"), default="all")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_preprocess_eeg)

    p = sub.add_parser("train", help="fit one model on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--hyper", action="append", default=None, metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="repeated stratified cross-validation")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--hyper", action="append", default=None, metavar="KEY=VALUE")
    p.add_argument("--grid", action="append", default=None, metavar="KEY=V1,V2",
                   help="SVM hyperparameter grid for the inner 5-fold search")
    p.add_argument("--attribute", default="na")
    p.add_argument("--window", default="na")
    p.add_argument("--modality", default="na")
    p.add_argument("--out", required=True)
    p.add_argument("--predictions", default=None,
                   help="write first-repetition out-of-fold predictions here")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fuse", help="weighted decision fusion of two prediction files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--f1a", type=float, required=True, help="training F1 of modality A")
    p.add_argument("--f1b", type=float, required=True, help="training F1 of modality B")
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--mode", choices=("joint", "convex"), default="joint")
    p.add_argument("--tune-on-eval", action="store_true",
                   help="leaky research mode: tune the mixing weights on the evaluation items")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("score-ads", help="aggregate segment posteriors into ad-level scores")
    p.add_argument("--predictions", required=True, help="CSV with ad_id and p_high columns")
    p.add_argument("--normalize", action="store_true", help="min-max rescale scores to [0,1]")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_score_ads)

    p = sub.add_parser("schedule", help="insert k ads at scene transitions")
    p.add_argument("--scenes", required=True)
    p.add_argument("--ads", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("ga", "exact"), default="ga")
    p.add_argument("--lambda-v", type=float, default=1.0)
    p.add_argument("--lambda-a", type=float, default=1.0)
    p.add_argument("--match-following", action="store_true",
                   help="anchor each ad to the following scene instead of the preceding one")
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--crossover", type=float, default=0.8)
    p.add_argument("--mutation", type=float, default=0.1)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("synth", help="seeded synthetic datasets in the pipeline's own formats")
    p.add_argument("kind", choices=("quadrant", "eeg", "ratings", "media", "schedule-instance", "posteriors"))
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-task", type=int, default=30)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--class-separation", type=float, default=6.0)
    p.add_argument("--task-correlation", type=float, default=0.5)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--n-per-class", type=int, default=10, help="eeg: epochs per class")
    p.add_argument("--snr", type=float, default=10.0, help="eeg: tone-to-noise amplitude ratio")
    p.add_argument("--band", type=float, nargs=2, default=(8.0, 12.0), help="eeg: class band in Hz")
    p.add_argument("--duration", type=float, default=30.0, help="eeg: epoch seconds")
    p.add_argument("--raters", type=int, default=10)
    p.add_argument("--items", type=int, default=40)
    p.add_argument("--agreement", type=float, default=0.8)
    p.add_argument("--attribute", choices=("valence", "arousal", "both"), default="both")
    p.add_argument("--with-manifest", default=None,
                   help="ratings: also write a matching ad manifest (JSON lines) here")
    p.add_argument("--scenes", type=int, default=8)
    p.add_argument("--ads", type=int, default=6)
    p.add_argument("--segments", type=int, default=8, help="posteriors: segments per ad")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        parser.error(f"unrecognized arguments: {' '.join(remaining)}")
    if getattr(args, "config", None):
        defaults = json.loads(Path(args.config).read_text())
        if not isinstance(defaults, dict):
            parser.error(f"{args.config}: config must be a JSON object")
        # Re-parse with config values as defaults so explicit flags still win.
        sub_argv = list(argv) if argv is not None else sys.argv[1:]
        for key, value in defaults.items():
            dest = key.replace("-", "_")
            if hasattr(args, dest):
                flag = "--" + key.replace("_", "-")
                present = any(tok == flag or tok.startswith(flag + "=") for tok in sub_argv)
                if not present:
                    setattr(args, dest, value)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
