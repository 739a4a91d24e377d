"""Command-line entry point.

Subcommands cover the whole pipeline: agreement statistics, audiovisual
feature extraction, EEG preprocessing, model training, cross-validated
evaluation, decision fusion, ad-level scoring, ad-insertion scheduling,
and synthetic-data generation. Each `cmd_*` returns the primary paths it
wrote, and `main` writes a run-metadata sidecar (config + seed + version)
next to each once the command has succeeded. Outputs are written
atomically, and a fixed seed yields byte-identical output files. A process
imports only the library modules its subcommand runs (`_COMMAND_NAMES`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

from . import MODEL_KINDS, WINDOW_MODES, __version__

#: The library names each subcommand calls, by defining module. `main` imports
#: only the chosen subcommand's modules (and what they import), so `--version`,
#: `--help` and usage errors load no numpy.
_COMMAND_NAMES = {
    "agreement": {
        "core": ("AffectLabel", "binarize_ratings"),
        # Called by this bare name: the benchmark's tracer (bench/spans.py) wraps cli.load_ratings_csv.
        "fileio": ("load_manifest", "load_ratings_csv"),
        "stats": ("cohen_kappa", "fleiss_kappa", "krippendorff_alpha"),
    },
    "extract-av": {
        "media": ("AudioClip", "FrameSequence", "hanjalic_audio", "hanjalic_video", "stft_spectrogram",
                  "temporal_window"),
    },
    "preprocess-eeg": {
        "core": ("AffectLabel", "FeatureMatrix", "Quadrant"),
        "eeg": ("EEG_CHANNELS", "EegEpoch", "ShortEpochError", "bandpass_filter", "baseline_correct", "pca_apply",
                "pca_fit", "vectorize"),
    },
    "train": {
        "evaluation": ("fit_model",),
        "learners.serialize": ("save_model",),
        # cnn_train, mtl_fit and shallow_fit are not called here, but the benchmark's tracer looks them up here.
        "learners.shallow": ("shallow_fit", "unconverged_solves"),
        "learners.mtl": ("mtl_fit",),
        "learners.cnn": ("cnn_train",),
    },
    "evaluate": {
        "evaluation": ("ModelSpec", "cross_validate"),
    },
    "fuse": {
        "core": ("AffectLabel",),
        "evaluation": ("f1_score", "west_fuse"),
    },
    "score-ads": {
        "core": ("min_max_normalize",),
        "evaluation": ("ad_level_score",),
    },
    "schedule": {
        "scheduler": ("GaConfig", "ScheduleProblem", "brute_force_schedule", "fitness_contributions", "ga_optimize",
                      "load_ads", "load_scenes"),
    },
    "synth": {
        "synthgen": ("GenSpec", "gen_quadrant_data", "gen_rating_matrix", "gen_synthetic_eeg", "gen_test_media"),
    },
}


def _register_library_modules():
    """Put each library module the table names into sys.modules unexecuted,
    bound on its parent package as an import binds it; a module runs on its
    first attribute lookup. The benchmark's tracer hooks only modules that
    are already in sys.modules."""
    for module in sorted({m for modules in _COMMAND_NAMES.values() for m in modules}):
        name = f"{__package__}.{module}"
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = lazy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lazy)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, lazy)


_register_library_modules()
from . import fileio  # the registered module: its first attribute lookup runs it


def _bind_names(subcommand: str):
    """Import `subcommand`'s modules and bind its table names on this module.
    A name already bound (a tracer's wrapper, a test's monkeypatch) is kept."""
    namespace = globals()
    for module, names in _COMMAND_NAMES[subcommand].items():
        defining = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(defining, name))


def __getattr__(name):
    """A table name looked up from outside binds the whole table, as an
    eager import of every module would."""
    if not any(name in names for modules in _COMMAND_NAMES.values() for names in modules.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for subcommand in _COMMAND_NAMES:
        _bind_names(subcommand)
    return globals()[name]


DEFAULT_SEED = 20200


def _split_pairs(pairs, form: str):
    """(key, raw value) of each key=value pair; `form` is the shape an error names."""
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected {form}, got {pair!r}")
        key, raw = pair.split("=", 1)
        yield key.strip(), raw


def _parse_kv(pairs):
    """key=value overrides with numeric coercion."""
    return {key: _coerce(raw.strip()) for key, raw in _split_pairs(pairs, "key=value")}


def _parse_grid(pairs):
    return {key: [_coerce(v) for v in raw.split(",") if v != ""]
            for key, raw in _split_pairs(pairs, "key=v1,v2,...")}


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _write_run_metadata(out_path, args: argparse.Namespace):
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func",)
    }
    meta = {
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": args.seed,
        "config": config,
    }
    out_path = Path(out_path)
    target = out_path / "run.meta.json" if out_path.is_dir() else out_path.with_name(out_path.name + ".meta.json")
    fileio.atomic_write_text(target, json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ------------------------------------------------------------- agreement

def cmd_agreement(args) -> list:
    import numpy as np

    matrices = load_ratings_csv(args.ratings)
    if not matrices:
        raise ValueError(f"{args.ratings}: no ratings found")
    expert = {}
    if args.manifest:
        for ad in load_manifest(args.manifest):
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
            tallies = np.column_stack([(grid == AffectLabel.HIGH).sum(axis=0), (grid == AffectLabel.LOW).sum(axis=0)])
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
    if not args.out:
        return []
    fileio.atomic_write_text(args.out, text)
    return [args.out]


# ------------------------------------------------------------- extract-av

def cmd_extract_av(args) -> list:
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
    return wrote


# ---------------------------------------------------------- preprocess-eeg

def cmd_preprocess_eeg(args) -> list:
    import numpy as np

    paths = fileio.list_eeg_epochs(args.epochs)
    if not paths:
        raise ValueError(f"{args.epochs}: no epoch files (*.f32) found")
    epochs, labels, quads, ids, sources = [], [], [], [], []
    n_dirty = 0
    for p in paths:
        data, baseline, meta = fileio.read_eeg_epoch(p)
        with fileio.field_errors(p.with_suffix(".json")):
            epoch = EegEpoch(
                data=data,
                sample_rate=meta["sample_rate"],
                stimulus_id=meta["stimulus_id"],
                clean=meta["clean"],
                baseline=baseline,
            )
            if not isinstance(epoch.clean, bool):
                raise ValueError(f"clean must be true or false, got {epoch.clean!r}")
            if not epoch.clean:
                n_dirty += 1
                if args.subset == "clean":
                    continue
            label, quad = AffectLabel.from_code(str(meta["label"])), Quadrant.from_code(str(meta["quadrant"]))
        epochs.append(epoch)
        sources.append(p)
        labels.append(label)
        quads.append(quad)
        ids.append(meta["stimulus_id"])
    total = len(paths)
    print(f"epochs: {total} total, {total - n_dirty} clean, {n_dirty} dirty; using {len(epochs)}")
    if not epochs:
        raise ValueError(f"{args.epochs}: no clean epoch; --subset all uses the dirty ones too")

    rows = []
    for epoch, source in zip(epochs, sources):
        try:
            filtered = bandpass_filter(epoch, args.low, args.high)
        except ShortEpochError as exc:
            raise ValueError(f"{source}: {exc}") from None
        if filtered.baseline is not None:
            filtered = baseline_correct(filtered)
        row = vectorize(filtered, args.window)
        # Channel-major rows of unequal length would put different channels in one column.
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{source}: the {args.window!r} window holds {len(row) // EEG_CHANNELS} samples "
                             f"per channel, but {sources[0]}'s holds {len(rows[0]) // EEG_CHANNELS}")
        rows.append(row)
    X = np.stack(rows)
    if args.retain != 0:  # exactly 0 disables PCA; pca_fit rejects any value outside (0, 1]
        model = pca_fit(X, retain=args.retain, method="auto")
        X = pca_apply(model, X)
        print(f"pca: {model.k} components, retained {model.retained_fraction:.4f} of variance")
    features = FeatureMatrix(X, labels, quads, ids)
    fileio.write_feature_csv(args.out, features)
    return [args.out]


# ------------------------------------------------------------------ train

def cmd_train(args) -> list:
    features = fileio.read_feature_csv(args.features)
    model = fit_model(args.model, features, _parse_kv(args.hyper), args.seed)
    save_model(model, args.out)
    own, calibration = unconverged_solves(model)
    if own or calibration:
        meta = model.train_meta
        short = f"{calibration} of {len(meta['calibration_converged'])} Platt calibration solves"
        if own:
            counts = f"{meta['iters']} SMO pair updates"
            if "ipm_steps" in meta:
                counts = f"{meta['ipm_steps']} interior-point steps and {counts}"
            text = f" stopped after {counts} without meeting the KKT tolerance"
            text += f" (so did {short})" if calibration else ""
        else:
            text = f": {short} stopped without meeting the KKT tolerance"
        print(f"warning: {args.model} C={model.hyperparams['C']}{text}", file=sys.stderr)
    return [args.out]


# --------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> list:
    features = fileio.read_feature_csv(args.features)
    spec = ModelSpec(args.model, params=_parse_kv(args.hyper), grid=_parse_grid(args.grid) or None)
    setting = {
        "attribute": args.attribute,
        "window": args.window,
        "model": args.model,
        "modality": args.modality,
    }
    report = cross_validate(features, spec, reps=args.reps, folds=args.folds, seed=args.seed)
    setting_str = ":".join(str(setting[k]) for k in ("attribute", "window", "model", "modality"))
    fileio.write_csv(args.out, [
        ["setting", "run", "fold", "f1"],
        *([setting_str, *row] for row in report.rows),
        ["summary", report.mean, report.std],
    ])
    print(f"{setting_str}: F1 = {report.mean:.4f} +/- {report.std:.4f} over {len(report.rows)} runs")
    if report.unconverged_fits:
        print(f"warning: {args.model}: {report.unconverged_fits} of {len(report.rows)} final fold fits stopped "
              "without meeting the KKT tolerance in their own or a Platt calibration solve", file=sys.stderr)
    if not args.predictions:
        return [args.out]
    fileio.write_predictions_csv(args.predictions, features.item_ids, features.labels, report.oof_posteriors)
    return [args.out, args.predictions]


# ------------------------------------------------------------------- fuse

def _fusion_tuning_split(truths) -> tuple[list[int], list[int]]:
    """Deterministic stratified halves: alternate within each class."""
    tune, hold = [], []
    for cls in (AffectLabel.HIGH, AffectLabel.LOW):
        members = [i for i, t in enumerate(truths) if t is cls]
        tune.extend(members[0::2])
        hold.extend(members[1::2])
    return sorted(tune), sorted(hold)


def cmd_fuse(args) -> list:
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
    comment = (
        f"alpha1={fileio.fmt(tuned.alpha[0])},alpha2={fileio.fmt(tuned.alpha[1])},"
        f"tuning_f1={fileio.fmt(tuned.tuning_f1)},eval_f1={fileio.fmt(eval_f1)},"
        f"tune_on_eval={str(bool(args.tune_on_eval)).lower()}"
    )
    fileio.write_csv(args.out, [["item_id", "truth", "p_high", "p_low", "label"], *(
        [iid, truth.value, p_high, p_low, "H" if label > 0 else "L"]
        for iid, truth, (p_high, p_low), label in zip(ids_a, truth_a, result.posteriors.tolist(), result.labels)
    )], comment=comment)
    print(f"alpha = {tuned.alpha}, tuning F1 = {tuned.tuning_f1:.4f}, eval F1 = {eval_f1:.4f}")
    return [args.out]


# -------------------------------------------------------------- score-ads

def cmd_score_ads(args) -> list:
    import numpy as np

    groups = fileio.read_segment_posteriors_csv(args.predictions)
    if not groups:
        raise ValueError(f"{args.predictions}: no segment rows found")
    ad_ids = sorted(groups)
    scores = np.array([ad_level_score(groups[a]) for a in ad_ids])
    if args.normalize:
        scores = min_max_normalize(scores)
    fileio.write_csv(args.out, [["ad_id", "score"], *zip(ad_ids, scores.tolist())])
    return [args.out]


# --------------------------------------------------------------- schedule

def cmd_schedule(args) -> list:
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
    rows = fitness_contributions(problem, schedule)
    # The total is the correctly rounded sum of the rows above it, whatever order the optimizer summed in.
    fileio.write_csv(args.out, [
        ["slot_index", "ad_id", "fitness_contribution"],
        *rows,
        ["total", "", math.fsum(c for _, _, c in rows)],
    ])
    print(f"{args.method} schedule fitness = {fitness:.6f}")
    return [args.out]


# ------------------------------------------------------------------ synth

def cmd_synth(args) -> list:
    import numpy as np

    seed = args.seed
    out = Path(args.out)
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
        fileio.write_feature_csv(out, data.features)
    elif args.kind == "eeg":
        spec = GenSpec(
            seed=seed,
            n_per_task=args.n_per_class,
            class_separation=args.snr,
            noise_std=args.noise_std,
        )
        epochs, labels = gen_synthetic_eeg(spec, tuple(args.band), duration_s=args.duration)
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
    elif args.kind == "ratings":
        matrices = {}
        attrs = ("valence", "arousal") if args.attribute == "both" else (args.attribute,)
        for offset, attr in enumerate(attrs):
            matrices[attr] = gen_rating_matrix(
                args.raters, args.items, args.agreement, seed=seed + offset, attribute=attr
            )
        fileio.write_ratings_csv(out, matrices)
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
    elif args.kind == "media":
        tone = gen_test_media("tone", freq_hz=1000.0, sample_rate=16000, duration_s=12.0)
        fileio.write_wav(out / "tone.wav", tone.samples.astype(np.float32), tone.sample_rate)
        stereo = np.column_stack([tone.samples, 0.5 * tone.samples]).astype(np.float32)
        fileio.write_wav(out / "tone_stereo.wav", stereo, tone.sample_rate)
        sweep = gen_test_media("sweep", f0_hz=100.0, f1_hz=4000.0, duration_s=12.0)
        fileio.write_wav(out / "sweep.wav", sweep.samples.astype(np.float32), sweep.sample_rate)
        cut = gen_test_media("cut_sequence", n_frames=100, fps=25.0, cut_at=50)
        fileio.write_frame_dir(out / "frames", cut.frames, cut.frame_rate)
    elif args.kind == "schedule-instance":
        rng = np.random.default_rng(seed)
        scenes = [
            {"id": f"scene{i:02d}", "asl": round(float(rng.random()), 6), "val": round(float(rng.random()), 6)}
            for i in range(args.scenes)
        ]
        ads = [
            {"id": f"ad{i:02d}", "asl": round(float(rng.random()), 6), "val": round(float(rng.random()), 6)}
            for i in range(args.ads)
        ]
        out.mkdir(parents=True, exist_ok=True)
        fileio.atomic_write_text(out / "scenes.json", json.dumps(scenes, indent=2) + "\n")
        fileio.atomic_write_text(out / "ads.json", json.dumps(ads, indent=2) + "\n")
    elif args.kind == "posteriors":
        rng = np.random.default_rng(seed)
        rows = [["ad_id", "segment_id", "p_high", "p_low"]]
        for a in range(args.ads):
            for s in range(args.segments):
                p_high = float(np.round(rng.random(), 6))
                rows.append([f"ad{a:02d}", f"seg{s:02d}", p_high, 1.0 - p_high])
        fileio.write_csv(out, rows)
    else:
        raise ValueError(f"unknown synth kind {args.kind!r}")
    # The ratings manifest is a by-product and gets no sidecar.
    return [out]


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse checks `choices` only for values given on the command line, and
    passes only string defaults through `type`; this parser also checks the --config
    defaults, and gives a typed option a JSON number, boolean or null as its JSON text.
    A --config list for a typed option that takes `nargs` values must hold that many,
    and each goes through `type` as one value on the command line would."""

    def __init__(self, *args, **kwargs):
        self.choice_actions = []
        self.list_actions = []
        super().__init__(*args, **kwargs)

    def set_defaults(self, **kwargs):
        typed = {action.dest for action in self._actions if action.type is not None}
        super().set_defaults(**{k: json.dumps(v) if k in typed and not isinstance(v, (str, list, dict)) else v
                                for k, v in kwargs.items()})

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.choices is not None:
            self.choice_actions.append(action)
        if action.type is not None and action.nargs not in (None, "?"):
            self.list_actions.append(action)
        return action

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self.choice_actions:
            value = self.get_default(action.dest)
            if value is not None and value not in action.choices:
                self.error(f"argument {_option_name(action)}: invalid choice "
                           f"{value!r} from --config (choose from {', '.join(map(repr, action.choices))})")
        for action in self.list_actions:
            values = getattr(namespace, action.dest)
            if not isinstance(values, list) or values is not self.get_default(action.dest):
                continue  # given on the command line, or not from --config
            if isinstance(action.nargs, int) and len(values) != action.nargs:
                self.error(f"argument {_option_name(action)}: expected {action.nargs} values from --config, "
                           f"got {len(values)}")
            typed = []
            for value in values:
                text = value if isinstance(value, str) else json.dumps(value)
                try:
                    typed.append(action.type(text))
                except (TypeError, ValueError):
                    self.error(f"argument {_option_name(action)}: invalid {action.type.__name__} value: {text!r}")
            setattr(namespace, action.dest, typed)
        return namespace, extras


def _option_name(action) -> str:
    return "/".join(action.option_strings) or action.dest


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The `adaffect` parser; `defaults` (option dest -> value, as read
    from --config) replace every subcommand's built-in option defaults."""
    parser = _Parser(
        prog="adaffect",
        description="Ad affect recognition toolkit: statistics, features, learners, fusion, scheduling.",
    )
    parser.add_argument("--version", action="version", version=f"adaffect {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"deterministic seed (default {DEFAULT_SEED})")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of option defaults (CLI flags win)")
        p.set_defaults(func=func)
        return p

    p = command("agreement", cmd_agreement, "inter-rater agreement statistics from a ratings CSV")
    p.add_argument("--ratings", required=True)
    p.add_argument("--manifest", default=None, help="ad manifest for expert-vs-rater Cohen kappa")
    p.add_argument("--out", default=None, help="also write the method,attribute,value lines here")

    p = command("extract-av", cmd_extract_av, "audio/video descriptor extraction")
    p.add_argument("--audio", default=None, help="WAV input: int16/int32 PCM or float32/float64")
    p.add_argument("--frames", default=None, help="directory of frame_%%06d.ppm + fps.txt")
    p.add_argument("--window", choices=WINDOW_MODES, default="all")
    p.add_argument("--smooth", action="store_true", help="Kaiser-smooth frame series before aggregation")
    p.add_argument("--out-audio", default=None)
    p.add_argument("--out-video", default=None)
    p.add_argument("--spectrogram", default=None, help="write the clip spectrogram CSV here")

    p = command("preprocess-eeg", cmd_preprocess_eeg, "filter, window, vectorize and PCA-reduce EEG epochs")
    p.add_argument("--epochs", required=True, help="directory of *.f32 + *.json epochs")
    p.add_argument("--window", choices=WINDOW_MODES, default="first30")
    p.add_argument("--low", type=float, default=0.1)
    p.add_argument("--high", type=float, default=45.0)
    p.add_argument("--retain", type=float, default=0.9, help="PCA variance target; 0 disables PCA")
    p.add_argument("--subset", choices=("all", "clean"), default="all")
    p.add_argument("--out", required=True)

    p = command("train", cmd_train, "fit one model on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--hyper", action="append", default=None, metavar="KEY=VALUE")
    p.add_argument("--out", required=True)

    p = command("evaluate", cmd_evaluate, "repeated stratified cross-validation")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--hyper", action="append", default=None, metavar="KEY=VALUE")
    p.add_argument("--grid", action="append", default=None, metavar="KEY=V1,V2",
                   help="hyperparameter grid for the inner 5-fold search")
    p.add_argument("--attribute", default="na")
    p.add_argument("--window", default="na")
    p.add_argument("--modality", default="na")
    p.add_argument("--out", required=True)
    p.add_argument("--predictions", default=None,
                   help="write first-repetition out-of-fold predictions here")

    p = command("fuse", cmd_fuse, "weighted decision fusion of two prediction files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--f1a", type=float, required=True, help="training F1 of modality A")
    p.add_argument("--f1b", type=float, required=True, help="training F1 of modality B")
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--mode", choices=("joint", "convex"), default="joint")
    p.add_argument("--tune-on-eval", action="store_true",
                   help="leaky research mode: tune the mixing weights on the evaluation items")
    p.add_argument("--out", required=True)

    p = command("score-ads", cmd_score_ads, "aggregate segment posteriors into ad-level scores")
    p.add_argument("--predictions", required=True, help="CSV with ad_id and p_high columns")
    p.add_argument("--normalize", action="store_true", help="min-max rescale scores to [0,1]")
    p.add_argument("--out", required=True)

    p = command("schedule", cmd_schedule, "insert k ads at scene transitions")
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

    p = command("synth", cmd_synth, "seeded synthetic datasets in the pipeline's own formats")
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

    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Parse again with the config's values as option defaults, so flags
        # win by argparse's own rules and scalars pass through each type.
        try:
            defaults = fileio.read_json(args.config, dict)
        except (OSError, ValueError) as exc:  # each names the file
            parser.error(str(exc))
        defaults = {key.replace("-", "_"): value for key, value in defaults.items()}
        options = set(vars(args)) - {"func", "subcommand"}
        unknown = sorted(set(defaults) - options)
        if unknown:
            parser.error(f"{args.config}: not options of {args.subcommand}: {', '.join(unknown)}")
        try:
            args = build_parser(defaults).parse_args(argv)
        except AttributeError:  # a repeated flag cannot append to a non-list default
            parser.error(f"{args.config}: a repeatable option needs a JSON list")
    _bind_names(args.subcommand)
    try:
        for path in args.func(args):
            _write_run_metadata(path, args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> int:
    """`main` as a process's entry point (the `adaffect` script and
    `python -m adaffect.cli`): numpy, loaded later, gets one BLAS thread
    unless the environment already sets a count."""
    if "numpy" not in sys.modules:
        from ._workers import one_blas_thread

        one_blas_thread()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
