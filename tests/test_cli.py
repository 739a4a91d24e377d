import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import adaffect
from adaffect.cli import main
from adaffect.fileio import (
    read_eeg_epoch, read_feature_csv, read_predictions_csv, write_eeg_epoch, write_feature_csv, write_frame_dir,
)
from adaffect.learners.serialize import load_model, save_model
from adaffect.learners.cnn import CnnConfig, cnn_predict_proba, cnn_train
from adaffect.learners.mtl import build_task_graph, mtl_fit, mtl_scores
from adaffect.learners.shallow import shallow_fit, shallow_predict_proba
from adaffect.scheduler import brute_force_schedule, load_ads, load_scenes, ScheduleProblem


def run(*argv):
    return main([str(a) for a in argv])


class TestDispatch:
    def test_synth_then_evaluate_happy_path(self, tmp_path):
        feats = tmp_path / "f.csv"
        report = tmp_path / "r.csv"
        assert run("synth", "quadrant", "--seed", 7, "--n-per-task", 8, "--dims", 9,
                   "--out", feats) == 0
        assert run("evaluate", "--features", feats, "--model", "mtl", "--reps", 1,
                   "--folds", 3, "--out", report) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "setting,run,fold,f1"
        assert lines[-1].startswith("summary,")
        assert len(lines) == 1 + 3 + 1

    def test_import_defers_slow_scipy_modules(self, tmp_path):
        # Importing scipy takes most of a command's start-up time, and the
        # program never imports it: no command loads scipy. Each command runs
        # only its own library modules, and the parser alone runs none and no
        # numpy. `fuse` and `score-ads` load the learners through `evaluation`.
        # The CLI puts library modules into sys.modules before they run, so a
        # module counts as run once its entry is a plain module; the
        # `adaffect.learners` package itself holds no code.
        src = str(Path(adaffect.__file__).resolve().parents[1])
        code = ("import json, sys, types; sys.path.insert(0, %r); import adaffect.cli\n"
                "try:\n    status = adaffect.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                "except SystemExit as exc:\n    status = exc.code\n"
                "ran = sorted(m for m, module in sys.modules.items() if type(module) is types.ModuleType)\n"
                "packages = ('adaffect.cli', 'adaffect.learners')\n"
                "library = [m for m in ran if m.startswith('adaffect.') and m not in packages]\n"
                "print(json.dumps([status, [m for m in ran if m.split('.')[0] == 'scipy'], 'numpy' in ran, library]))"
                % src)

        def runs(*modules):  # numpy and these library modules
            return [True, [f"adaffect.{m}" for m in sorted(modules)]]

        synth = runs("core", "eeg", "fileio", "media", "synthgen")
        learners = ("core", "evaluation", "fileio", "learners.cnn", "learners.mtl", "learners.shallow")
        commands = [
            ([], 0, [False, []]),
            (["--version"], 0, [False, []]),
            (["--help"], 0, [False, []]),
            (["train", "--features", "f.csv", "--model", "bogus", "--out", "m.json"], 2, [False, []]),
            (["synth", "ratings", "--raters", 4, "--items", 6, "--out", tmp_path / "ratings.csv"], 0, synth),
            (["agreement", "--ratings", tmp_path / "ratings.csv"], 0, runs("core", "fileio", "stats")),
            (["synth", "schedule-instance", "--out", tmp_path / "inst"], 0, synth),
            (["schedule", "--scenes", tmp_path / "inst" / "scenes.json", "--ads", tmp_path / "inst" / "ads.json",
              "--k", 2, "--generations", 2, "--out", tmp_path / "schedule.csv"], 0,
             runs("core", "fileio", "scheduler")),
            (["synth", "eeg", "--seed", 3, "--n-per-class", 2, "--duration", 4, "--out", tmp_path / "eeg"], 0, synth),
            (["preprocess-eeg", "--epochs", tmp_path / "eeg", "--out", tmp_path / "eeg.csv"], 0,
             runs("core", "eeg", "fileio")),
            (["synth", "media", "--out", tmp_path / "media"], 0, synth),
            (["extract-av", "--audio", tmp_path / "media" / "tone.wav", "--out-audio", tmp_path / "audio.csv"], 0,
             runs("core", "fileio", "media")),
            (["synth", "quadrant", "--seed", 3, "--n-per-task", 6, "--dims", 9, "--out", tmp_path / "f.csv"], 0,
             synth),
            (["train", "--features", tmp_path / "f.csv", "--model", "lda", "--out", tmp_path / "m.json"], 0,
             runs(*learners, "learners.serialize")),
            (["evaluate", "--features", tmp_path / "f.csv", "--model", "lda", "--reps", 1, "--folds", 3,
              "--out", tmp_path / "r.csv", "--predictions", tmp_path / "p.csv"], 0,
             runs(*learners)),
            (["fuse", "--a", tmp_path / "p.csv", "--b", tmp_path / "p.csv", "--f1a", 0.9, "--f1b", 0.8,
              "--out", tmp_path / "fused.csv"], 0, runs(*learners)),
            (["synth", "posteriors", "--out", tmp_path / "segments.csv"], 0, synth),
            (["score-ads", "--predictions", tmp_path / "segments.csv", "--out", tmp_path / "scores.csv"], 0,
             runs(*learners)),
        ]
        for argv, status, modules in commands:
            out = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                                 capture_output=True, text=True, check=True)
            assert json.loads(out.stdout.splitlines()[-1]) == [status, [], *modules], argv
        # A library module the CLI registered still resolves as an attribute
        # of its package, and the CLI's own names resolve from outside.
        check = ("import sys; sys.path.insert(0, %r); import adaffect.cli; import adaffect.stats; "
                 "adaffect.stats.krippendorff_alpha; from adaffect.cli import cross_validate" % src)
        subprocess.run([sys.executable, "-c", check], check=True)

    def test_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable, a
        # Pearson p-value and every subcommand still run.
        commands = [
            ["synth", "ratings", "--raters", "4", "--items", "6", "--out", "ratings.csv",
             "--with-manifest", "ads.jsonl"],
            ["agreement", "--ratings", "ratings.csv", "--manifest", "ads.jsonl"],
            ["synth", "media", "--out", "media"],
            ["extract-av", "--audio", "media/tone.wav", "--frames", "media/frames", "--out-audio", "a.csv",
             "--out-video", "v.csv", "--spectrogram", "sg.csv"],
            ["synth", "eeg", "--seed", "3", "--n-per-class", "2", "--duration", "4", "--out", "eeg"],
            ["preprocess-eeg", "--epochs", "eeg", "--out", "eeg.csv"],
            ["synth", "quadrant", "--seed", "3", "--n-per-task", "6", "--dims", "9", "--out", "f.csv"],
            ["train", "--features", "f.csv", "--model", "linear_svm", "--out", "m.json"],
            ["evaluate", "--features", "f.csv", "--model", "mtl", "--reps", "1", "--folds", "3", "--out", "r.csv",
             "--predictions", "p.csv"],
            ["fuse", "--a", "p.csv", "--b", "p.csv", "--f1a", "0.9", "--f1b", "0.8", "--out", "fused.csv"],
            ["synth", "posteriors", "--out", "segments.csv"],
            ["score-ads", "--predictions", "segments.csv", "--out", "scores.csv"],
            ["synth", "schedule-instance", "--out", "inst"],
            ["schedule", "--scenes", "inst/scenes.json", "--ads", "inst/ads.json", "--k", "2", "--generations", "2",
             "--out", "schedule.csv"],
        ]
        code = ("import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, %r)\n"
                "from adaffect.cli import main; from adaffect.stats import pearson_r\n"
                "p = pearson_r([1, 2, 3, 4], [2, 1, 4, 3]).p_value\n"
                "print(json.dumps([p, [main(argv) for argv in json.loads(sys.argv[1])]]))"
                % str(Path(adaffect.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        p, statuses = json.loads(out.stdout.splitlines()[-1])
        # With 2 degrees of freedom the two-sided p of a correlation r is exactly 1 - |r|.
        assert p == pytest.approx(0.4, rel=1e-14)
        assert statuses == [0] * len(commands)

    def test_benchmark_layer_hooks_resolve(self, monkeypatch):
        # The benchmark's tracer wraps these (module, attribute) pairs in every
        # traced run, including learner names that adaffect.cli only re-exports.
        import importlib

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        spans = importlib.import_module("spans")
        missing = [(module, attr) for module, attr, *_ in spans.LAYER_HOOKS
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []

    def test_benchmark_tracer_records_layer_spans(self, tmp_path):
        # bench/traced_cli.py installs its hooks right after importing
        # adaffect.cli, and hooks only modules already in sys.modules by then,
        # fileio's readers and writers first. Each command must still record
        # the spans of the layers it runs.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(Path(adaffect.__file__).resolve().parents[1]))
        features, ratings = tmp_path / "f.csv", tmp_path / "ratings.csv"
        assert run("synth", "quadrant", "--seed", 3, "--n-per-task", 6, "--dims", 9, "--out", features) == 0
        assert run("synth", "ratings", "--raters", 4, "--items", 6, "--out", ratings) == 0
        counts = Counter()
        for argv, layers in (
            (("train", "--features", features, "--model", "linear_svm", "--out", tmp_path / "m.json"),
             {"fileio.read_csv", "fileio.write", "learners.shallow.fit", "learners.shallow.platt"}),
            (("agreement", "--ratings", ratings, "--out", tmp_path / "agreement.csv"),
             {"core.load_ratings", "stats.alpha", "fileio.write"}),
        ):
            spans_path = tmp_path / f"{argv[0]}.spans.json"
            subprocess.run([sys.executable, str(root / "bench" / "traced_cli.py"), str(spans_path), *map(str, argv)],
                           env=env, capture_output=True, check=True)
            doc = json.loads(spans_path.read_text())
            assert layers <= {name for name, *_ in doc["spans"]}, argv[0]
            counts.update(doc["counts"])
        assert counts["learners.shallow.fit_calls"] == 1

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "quadrant", "--nope", "1", "--out", "x.csv")
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        assert run("agreement", "--ratings", tmp_path / "missing.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_schedule_exact_equals_library_brute_force(self, tmp_path):
        inst = tmp_path / "inst"
        assert run("synth", "schedule-instance", "--seed", 5, "--scenes", 8, "--ads", 6,
                   "--out", inst) == 0
        out = tmp_path / "sched.csv"
        assert run("schedule", "--scenes", inst / "scenes.json", "--ads", inst / "ads.json",
                   "--k", 5, "--method", "exact", "--out", out) == 0
        problem = ScheduleProblem(load_scenes(inst / "scenes.json"), load_ads(inst / "ads.json"), k=5)
        _, expect = brute_force_schedule(problem)
        total_line = out.read_text().strip().splitlines()[-1]
        assert total_line.startswith("total,,")
        assert float(total_line.split(",")[2]) == pytest.approx(expect)

    @pytest.mark.parametrize("instance_seed, total", [(4, "36.337137999999996"), (1, "37.069883")])
    def test_schedule_total_is_exact_sum_of_rows(self, tmp_path, instance_seed, total):
        # The total is the correctly rounded sum of the rows. Seed 4: a
        # left-to-right sum of the rows gives 36.337138, one ulp too high.
        # Seed 1: the GA's own sum gives 37.069883000000004, one ulp too high.
        inst = tmp_path / "inst"
        assert run("synth", "schedule-instance", "--seed", instance_seed, "--scenes", 30, "--ads", 20,
                   "--out", inst) == 0
        out = tmp_path / "sched.csv"
        assert run("schedule", "--scenes", inst / "scenes.json", "--ads", inst / "ads.json",
                   "--k", 20, "--seed", 5, "--match-following", "--out", out) == 0
        *rows, last = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 20 and last == ["total", "", total]
        assert float(total) == math.fsum(float(row[2]) for row in rows)

    def test_metadata_sidecar_contents(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 3, "--n-per-task", 6, "--dims", 9, "--out", feats)
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["subcommand"] == "synth"
        assert meta["version"]
        assert meta["config"]["n_per_task"] == 6

    def test_config_file_defaults_with_cli_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n-per-task": 5, "dims": 10, "seed": 11}))
        feats = tmp_path / "f.csv"
        assert run("synth", "quadrant", "--config", config, "--dims", 9, "--out", feats) == 0
        loaded = read_feature_csv(feats)
        assert loaded.n_items == 20  # config n-per-task=5 applied
        assert loaded.n_dims == 9    # explicit flag beat the config
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta["seed"] == 11

    def test_config_loses_to_positional_and_abbreviated_flag(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kind": "ratings", "dims": 12, "n_per_task": 4}))
        feats = tmp_path / "f.csv"
        assert run("synth", "quadrant", "--config", config, "--dim", 10, "--out", feats) == 0
        loaded = read_feature_csv(feats)
        assert (loaded.n_items, loaded.n_dims) == (16, 10)

    @pytest.mark.parametrize("key", ["dimz", "reps", "func"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: 12}))
        with pytest.raises(SystemExit) as exc:
            run("synth", "quadrant", "--config", config, "--out", tmp_path / "f.csv")
        assert exc.value.code == 2
        assert f"not options of synth: {key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("text, where", [
        ('{"dims": 9, }', ":1: Expecting property name enclosed in double quotes\n"),
        ('{\n  "dims": 9\n  "seed": 1\n}', ":3: Expecting ',' delimiter\n"),
    ], ids=["trailing-comma", "missing-comma"])
    def test_config_syntax_error_exits_2_naming_path_and_line(self, tmp_path, capsys, text, where):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run("synth", "quadrant", "--config", config, "--out", tmp_path / "f.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {config}{where}")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("extra", [(), ("--method", "exact")])
    def test_config_value_outside_choices_exits_2(self, tmp_path, capsys, extra):
        run("synth", "schedule-instance", "--scenes", 4, "--ads", 3, "--out", tmp_path / "inst")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"method": "exaxt"}))
        with pytest.raises(SystemExit) as exc:
            run("schedule", "--config", config, "--scenes", tmp_path / "inst" / "scenes.json",
                "--ads", tmp_path / "inst" / "ads.json", "--k", 2, *extra, "--out", tmp_path / "s.csv")
        assert exc.value.code == 2
        assert "argument --method: invalid choice 'exaxt' from --config" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_config_strings_go_through_option_types(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 2, "--n-per-task", 6, "--dims", 9, "--out", feats)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reps": "2", "folds": "3"}))
        report = tmp_path / "r.csv"
        assert run("evaluate", "--config", config, "--features", feats, "--model", "lda",
                   "--out", report) == 0
        assert len(report.read_text().splitlines()) == 1 + 2 * 3 + 1
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert (meta["config"]["reps"], meta["config"]["folds"]) == (2, 3)

    @pytest.mark.parametrize("value, text", [(True, "true"), (2.5, "2.5"), (1e20, "1e+20"), (None, "null")])
    def test_config_scalars_go_through_option_types(self, tmp_path, capsys, value, text):
        # As a flag would: `--reps true` and `--reps 2.5` are usage errors naming --reps.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reps": value}))
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--config", config, "--features", tmp_path / "f.csv", "--model", "lda",
                "--out", tmp_path / "r.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --reps: invalid int value: '{text}'\n")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, source, command):
        # Not numpy's "expected non-negative integer" at exit 1: a usage error naming --seed.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -1}))
        flags = ("--seed", "-1") if source == "flag" else ("--config", config)
        argv = (("synth", "quadrant") if command == "synth"
                else ("evaluate", "--features", tmp_path / "f.csv", "--model", "lda"))
        with pytest.raises(SystemExit) as exc:
            run(*argv, *flags, "--out", tmp_path / "out.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --seed: expected a non-negative integer, got -1\n")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("band, message", [
        (["8", "x"], "argument --band: invalid float value: 'x'"),
        ([8, 12, 14], "argument --band: expected 2 values from --config, got 3"),
        ([8, None], "argument --band: invalid float value: 'null'"),
    ])
    def test_config_list_values_go_through_type_and_count(self, tmp_path, capsys, band, message):
        # As `--band 8 x` or `--band 8 12 14` would be: usage errors naming --band.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"band": band}))
        with pytest.raises(SystemExit) as exc:
            run("synth", "eeg", "--config", config, "--out", tmp_path / "eeg")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_config_list_values_keep_their_values(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"band": ["9", 12.5]}))
        for extra, expect in (((), [9.0, 12.5]), (("--band", "7", "11"), [7.0, 11.0])):
            out = tmp_path / f"eeg{len(extra)}"
            assert run("synth", "eeg", "--config", config, "--n-per-class", 1, "--duration", 2, *extra,
                       "--out", out) == 0
            assert json.loads((out / "run.meta.json").read_text())["config"]["band"] == expect

    def test_config_scalars_keep_their_values(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n-per-task": 6, "dims": 9, "class-separation": 3, "noise-std": 0.25}))
        assert run("synth", "quadrant", "--config", config, "--out", tmp_path / "f.csv") == 0
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())["config"]
        assert [meta[k] for k in ("n_per_task", "dims", "class_separation", "noise_std")] == [6, 9, 3.0, 0.25]
        assert type(meta["class_separation"]) is float
        config.write_text(json.dumps({"normalize": True}))  # an on/off flag takes a JSON boolean
        assert run("synth", "posteriors", "--ads", 3, "--segments", 2, "--out", tmp_path / "segs.csv") == 0
        assert run("score-ads", "--config", config, "--predictions", tmp_path / "segs.csv",
                   "--out", tmp_path / "scores.csv") == 0
        scores = [float(line.split(",")[1]) for line in (tmp_path / "scores.csv").read_text().splitlines()[1:]]
        assert (min(scores), max(scores)) == (0.0, 1.0)

    def test_config_hyper_then_flags_append(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 2, "--n-per-task", 6, "--dims", 9, "--out", feats)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"hyper": ["C=5"]}))
        for extra, expect in (((), 5), (("--hyper", "C=10"), 10)):
            out = tmp_path / f"m{expect}.json"
            assert run("train", "--config", config, "--features", feats, "--model", "linear_svm",
                       *extra, "--out", out) == 0
            assert json.loads(out.read_text())["hyperparams"]["C"] == expect
        meta = json.loads((tmp_path / "m10.json.meta.json").read_text())
        assert meta["config"]["hyper"] == ["C=5", "C=10"]
        config.write_text(json.dumps({"hyper": "C=5"}))
        with pytest.raises(SystemExit) as exc:
            run("train", "--config", config, "--features", feats, "--model", "linear_svm",
                "--hyper", "C=10", "--out", tmp_path / "m.json")
        assert exc.value.code == 2

    def test_each_subcommand_writes_its_sidecar_set(self, tmp_path):
        t = tmp_path

        def sidecars(*argv, code=0):
            before = set(t.rglob("*.meta.json"))
            assert run(*argv) == code
            return sorted(p.relative_to(t).as_posix() for p in set(t.rglob("*.meta.json")) - before)

        assert sidecars("synth", "ratings", "--raters", 4, "--items", 8, "--out", t / "ratings.csv",
                        "--with-manifest", t / "ads.jsonl") == ["ratings.csv.meta.json"]
        assert sidecars("synth", "quadrant", "--n-per-task", 6, "--dims", 9,
                        "--out", t / "f.csv") == ["f.csv.meta.json"]
        assert sidecars("synth", "eeg", "--n-per-class", 2, "--out", t / "eeg") == ["eeg/run.meta.json"]
        assert sidecars("synth", "media", "--out", t / "media") == ["media/run.meta.json"]
        assert sidecars("synth", "schedule-instance", "--out", t / "inst") == ["inst/run.meta.json"]
        assert sidecars("synth", "posteriors", "--ads", 3, "--segments", 2,
                        "--out", t / "segs.csv") == ["segs.csv.meta.json"]
        assert sidecars("agreement", "--ratings", t / "ratings.csv") == []
        assert sidecars("agreement", "--ratings", t / "ratings.csv",
                        "--out", t / "agree.csv") == ["agree.csv.meta.json"]
        assert sidecars("extract-av", "--audio", t / "media" / "tone.wav", "--frames", t / "media" / "frames",
                        "--out-audio", t / "a.csv", "--out-video", t / "v.csv",
                        "--spectrogram", t / "s.csv") == ["a.csv.meta.json", "s.csv.meta.json", "v.csv.meta.json"]
        assert sidecars("preprocess-eeg", "--epochs", t / "eeg", "--out", t / "e.csv") == ["e.csv.meta.json"]
        assert sidecars("train", "--features", t / "f.csv", "--model", "lda",
                        "--out", t / "m.json") == ["m.json.meta.json"]
        assert sidecars("evaluate", "--features", t / "f.csv", "--model", "lda", "--reps", 1, "--folds", 3,
                        "--out", t / "r.csv") == ["r.csv.meta.json"]
        assert sidecars("evaluate", "--features", t / "f.csv", "--model", "lda", "--reps", 1, "--folds", 3,
                        "--out", t / "r2.csv", "--predictions", t / "p.csv") == ["p.csv.meta.json", "r2.csv.meta.json"]
        assert sidecars("evaluate", "--features", t / "f.csv", "--model", "lda", "--reps", 0,
                        "--out", t / "r3.csv", code=1) == []
        assert sidecars("fuse", "--a", t / "p.csv", "--b", t / "p.csv", "--f1a", 0.9, "--f1b", 0.8,
                        "--out", t / "fused.csv") == ["fused.csv.meta.json"]
        assert sidecars("score-ads", "--predictions", t / "segs.csv",
                        "--out", t / "scores.csv") == ["scores.csv.meta.json"]
        assert sidecars("schedule", "--scenes", t / "inst" / "scenes.json", "--ads", t / "inst" / "ads.json",
                        "--k", 3, "--generations", 5, "--out", t / "sched.csv") == ["sched.csv.meta.json"]
        assert sidecars("schedule", "--scenes", t / "inst" / "scenes.json", "--ads", t / "inst" / "ads.json",
                        "--k", 3, "--population", 0, "--out", t / "sched0.csv", code=1) == []


class TestByteDeterminism:
    def test_predictions_and_fusion_deterministic(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 1, "--n-per-task", 8, "--dims", 9, "--out", feats)
        outs = []
        for tag in ("x", "y"):
            rep = tmp_path / f"r_{tag}.csv"
            preds = tmp_path / f"p_{tag}.csv"
            assert run("evaluate", "--features", feats, "--model", "lda", "--reps", 1,
                       "--folds", 3, "--seed", 5, "--out", rep, "--predictions", preds) == 0
            outs.append((rep.read_bytes(), preds.read_bytes()))
        assert outs[0] == outs[1]
        fused1 = tmp_path / "fused1.csv"
        fused2 = tmp_path / "fused2.csv"
        for out in (fused1, fused2):
            assert run("fuse", "--a", tmp_path / "p_x.csv", "--b", tmp_path / "p_y.csv",
                       "--f1a", 0.9, "--f1b", 0.8, "--grid-step", 0.1, "--out", out) == 0
        assert fused1.read_bytes() == fused2.read_bytes()

    def test_agreement_with_expert_manifest(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        manifest = tmp_path / "ads.jsonl"
        assert run("synth", "ratings", "--seed", 6, "--raters", 8, "--items", 24,
                   "--agreement", 0.9, "--out", ratings, "--with-manifest", manifest) == 0
        out = tmp_path / "agree.csv"
        assert run("agreement", "--ratings", ratings, "--manifest", manifest, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        cohen_lines = [l for l in lines if l.startswith("cohen_kappa_mean_vs_expert")]
        assert len(cohen_lines) == 2  # one per attribute
        for line in cohen_lines:
            value = float(line.split(",")[2])
            assert -1.0 <= value <= 1.0
            assert value > 0.3  # high agreement level implies real concordance

    def test_score_ads_normalized_output(self, tmp_path):
        segs = tmp_path / "segs.csv"
        run("synth", "posteriors", "--seed", 2, "--ads", 4, "--segments", 5, "--out", segs)
        scores = tmp_path / "scores.csv"
        assert run("score-ads", "--predictions", segs, "--normalize", "--out", scores) == 0
        rows = scores.read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert min(values) == 0.0 and max(values) == 1.0


class TestFusePath:
    def test_fused_file_format(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 4, "--n-per-task", 8, "--dims", 9, "--out", feats)
        pa = tmp_path / "pa.csv"
        pb = tmp_path / "pb.csv"
        run("evaluate", "--features", feats, "--model", "lda", "--reps", 1, "--folds", 3,
            "--seed", 1, "--out", tmp_path / "ra.csv", "--predictions", pa)
        run("evaluate", "--features", feats, "--model", "mtl", "--reps", 1, "--folds", 3,
            "--seed", 2, "--out", tmp_path / "rb.csv", "--predictions", pb)
        fused = tmp_path / "fused.csv"
        assert run("fuse", "--a", pa, "--b", pb, "--f1a", 0.85, "--f1b", 0.9,
                   "--grid-step", 0.05, "--out", fused) == 0
        lines = fused.read_text().strip().splitlines()
        assert lines[0].startswith("# alpha1=")
        assert lines[1] == "item_id,truth,p_high,p_low,label"
        ids, truths, posts = read_predictions_csv(pa)
        assert len(lines) == 2 + len(ids)

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf", "2"])
    def test_bad_grid_step_exits_1_naming_it(self, tmp_path, capsys, step):
        preds = tmp_path / "p.csv"
        preds.write_text(PREDICTIONS)
        out = tmp_path / "fused.csv"
        assert run("fuse", "--a", preds, "--b", preds, "--f1a", 0.8, "--f1b", 0.7,
                   "--grid-step", step, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: grid_step must be a number in (0, 1], got {float(step)!r}\n"
        assert not out.exists()
        assert run("fuse", "--a", preds, "--b", preds, "--f1a", 0.8, "--f1b", 0.7,
                   "--grid-step", 1, "--out", out) == 0


PREDICTIONS = "item_id,truth,p_high,p_low\na,H,0.9,0.1\nb,L,0.2,0.8\nc,H,0.7,0.3\nd,L,0.4,0.6\n"
SEGMENTS = "ad_id,segment_id,p_high,p_low\nad00,seg00,0.3,0.7\nad00,seg01,0.6,0.4\nad01,seg00,0.5,0.5\n"
FEATURES = "item_id,label,quadrant,f0,f1\nx0,H,HH,0.1,0.2\nx1,L,LL,0.3,0.4\nx2,H,HL,0.5,0.6\nx3,L,LH,0.7,0.8\n"
RATINGS = "rater_id,item_id,attribute,score\nr1,a,valence,1\nr1,b,valence,-1\nr2,a,valence,2\nr2,b,valence,0\n"


class TestReaderBoundaries:
    """A bad row or header in a CSV input fails the command with one
    `path:line:` line, a feature or predictions file without data rows with
    one `path:` line."""

    @pytest.mark.parametrize("command, text, old, new, line", [
        ("fuse", PREDICTIONS, "c,H,0.7,0.3", "c,H,nan,0.3", 4),
        ("fuse", PREDICTIONS, "c,H,0.7,0.3", "c,H,1.7,-0.7", 4),
        ("fuse", PREDICTIONS, "b,L,0.2,0.8", "b,L,0.2", 3),
        ("score-ads", SEGMENTS, "seg01,0.6", "seg01,1.7", 3),
        ("score-ads", SEGMENTS, "seg01,0.6", "seg01,-3", 3),
        ("score-ads", SEGMENTS, "seg01,0.6", "seg01,nan", 3),
        ("score-ads", SEGMENTS, "ad01,seg00,0.5,0.5", "ad01", 4),
        ("train", FEATURES, "x2,H,HL,0.5,0.6", "x2,H,HL,0.5", 4),
        ("train", FEATURES, "x2,H,HL,0.5,0.6", "x2,H,HL,0.5,high", 4),
        ("train", FEATURES, "x3,L,LH", "x1,L,LH", 5),
        ("train", FEATURES, "x2,H,HL,0.5,0.6", "x2,H,HL,nan,0.6", 4),
        ("train", FEATURES, "x3,L,LH,0.7,0.8", "x3,L,LH,0.7,-inf", 5),
        ("agreement", RATINGS, "r2,a,valence,2", "r2,a,valence", 4),
        ("agreement", RATINGS, "r2,a,valence,2", "r2,a,valence,2,extra", 4),
        ("agreement", RATINGS, "r2,a,valence,2", "r2,a,valence,nan", 4),
        ("agreement", RATINGS, "r2,a,valence,2", "r2,a,valence,inf", 4),
        ("agreement", RATINGS, "r2,b,valence,0", "r2,a,valence,0", 5),
        ("agreement", RATINGS, "r2,a,valence,2", "r2,a,valence,3", 4),
        ("fuse", PREDICTIONS, "p_low", "p_lo", 1),
        ("score-ads", SEGMENTS, "ad_id,", "ad,", 1),
        ("train", FEATURES, "label,", "labels,", 1),
        ("agreement", RATINGS, "score", "value", 1),
        ("agreement", RATINGS, RATINGS, "", 1),
    ], ids=["fuse-nan", "fuse-above-one", "predictions-short-row", "score-ads-above-one",
            "score-ads-negative", "score-ads-nan", "segments-short-row", "features-ragged",
            "features-non-numeric", "features-duplicate-id", "features-nan", "features-inf",
            "ratings-short-row", "ratings-long-row", "ratings-nan", "ratings-inf", "ratings-duplicate-cell",
            "ratings-off-scale", "predictions-header", "segments-header", "features-header", "ratings-header",
            "ratings-empty"])
    def test_bad_row_exits_1_with_path_line(self, tmp_path, capsys, command, text, old, new, line):
        good, bad, out = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "out.csv"
        assert old in text
        good.write_text(text)
        bad.write_text(text.replace(old, new))
        argv = {
            "fuse": ("--a", bad, "--b", good, "--f1a", 0.8, "--f1b", 0.7),
            "score-ads": ("--predictions", bad),
            "train": ("--features", bad, "--model", "lda"),
            "agreement": ("--ratings", bad),
        }[command]
        assert run(command, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("model", ["lda", "linear_svm", "rbf_svm", "mtl"])
    def test_feature_header_without_feature_column_exits_1(self, tmp_path, capsys, command, model):
        bad, out = tmp_path / "bad.csv", tmp_path / "out.csv"
        quads = ["HH", "HL", "LH", "LL"]
        bad.write_text("item_id,label,quadrant\n" + "".join(f"x{i},{'HL'[i % 2]},{quads[i % 4]}\n" for i in range(40)))
        assert run(command, "--features", bad, "--model", model, "--out", out) == 1
        assert capsys.readouterr().err == (f"error: {bad}:1: header names no feature column "
                                           "after item_id,label,quadrant\n")
        assert not out.exists()

    @pytest.mark.parametrize("tune", [(), ("--tune-on-eval",)], ids=["split", "tune-on-eval"])
    def test_predictions_file_without_data_rows_exits_1_naming_it(self, tmp_path, capsys, tune):
        preds, out = tmp_path / "p.csv", tmp_path / "fused.csv"
        preds.write_text(PREDICTIONS.splitlines()[0] + "\n")
        assert run("fuse", "--a", preds, "--b", preds, "--f1a", 0.8, "--f1b", 0.7, *tune, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {preds}: no data rows\n"
        assert not out.exists()

    def test_undecodable_bytes_exit_1_with_one_line(self, tmp_path, capsys):
        # The whole file is decoded before csv reads a row; the line comes from the byte's offset.
        preds, out = tmp_path / "p.csv", tmp_path / "fused.csv"
        preds.write_bytes(PREDICTIONS.replace("b,L", "\xff,L").encode("latin-1"))
        assert run("fuse", "--a", preds, "--b", preds, "--f1a", 0.8, "--f1b", 0.7, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {preds}:3: byte 0xff is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_feature_file_without_data_rows_exits_1_naming_it(self, tmp_path, capsys, command):
        bad, out = tmp_path / "bad.csv", tmp_path / "out.csv"
        bad.write_text(FEATURES.splitlines()[0] + "\n")
        assert run(command, "--features", bad, "--model", "lda", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: no data rows\n"
        assert not out.exists()


def test_short_eeg_epoch_exits_1_naming_the_file(tmp_path, capsys):
    sidecar = {"sample_rate": 128, "stimulus_id": "ad02", "clean": True, "label": "H", "quadrant": "HH"}
    write_eeg_epoch(tmp_path / "eeg", "ad01", np.zeros((14, 64)), None, {**sidecar, "stimulus_id": "ad01"})
    write_eeg_epoch(tmp_path / "eeg", "ad02", np.zeros((14, 20)), None, sidecar)
    out = tmp_path / "eeg.csv"
    assert run("preprocess-eeg", "--epochs", tmp_path / "eeg", "--out", out) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'eeg' / 'ad02.f32'}: epoch 'ad02' has 20 samples; "
                                       "the zero-phase band-pass needs at least 28\n")
    assert not out.exists()


def test_eeg_duration_without_a_sample_exits_1_before_numpy_warns(tmp_path):
    # 0.001 s at 128 Hz rounds to no sample; the generator must say so before
    # it draws, which under -W error::RuntimeWarning numpy would otherwise end.
    code = ("import sys; sys.path.insert(0, %r); from adaffect.cli import main; sys.exit(main(sys.argv[1:]))"
            % str(Path(adaffect.__file__).resolve().parents[1]))
    out = tmp_path / "eeg"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           "synth", "eeg", "--duration", "0.001", "--out", str(out)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: duration_s 0.001 s gives no sample at the 128 Hz EEG sample rate\n"
    assert not out.exists()


def synth_epochs(path):
    assert run("synth", "eeg", "--seed", 3, "--n-per-class", 2, "--duration", 4, "--out", path) == 0


def test_non_finite_eeg_sample_exits_1_naming_the_file(tmp_path, capsys):
    synth_epochs(tmp_path / "eeg")
    bad = sorted((tmp_path / "eeg").glob("*.f32"))[1]
    blob = np.fromfile(bad, dtype="<f4")
    blob[700] = np.inf
    blob.tofile(bad)
    out = tmp_path / "eeg.csv"
    assert run("preprocess-eeg", "--epochs", tmp_path / "eeg", "--out", out) == 1
    # Each channel stores 128 baseline then 512 epoch samples, so value 700 is channel 1's.
    assert capsys.readouterr().err == f"error: {bad}: channel 1 holds a non-finite sample\n"
    assert not out.exists()


def test_epochs_of_unequal_length_exit_1_naming_the_odd_one(tmp_path, capsys):
    synth_epochs(tmp_path / "eeg")
    paths = sorted((tmp_path / "eeg").glob("*.f32"))
    data, baseline, meta = read_eeg_epoch(paths[2])
    write_eeg_epoch(tmp_path / "eeg", paths[2].stem, data[:, :400], baseline, meta)
    out = tmp_path / "eeg.csv"
    assert run("preprocess-eeg", "--epochs", tmp_path / "eeg", "--window", "all", "--out", out) == 1
    assert capsys.readouterr().err == (f"error: {paths[2]}: the 'all' window holds 400 samples per channel, "
                                       f"but {paths[0]}'s holds 512\n")
    assert not out.exists()


def test_clean_subset_without_a_clean_epoch_exits_1_naming_the_directory(tmp_path, capsys):
    synth_epochs(tmp_path / "eeg")
    for sidecar in (tmp_path / "eeg").glob("*.json"):
        meta = json.loads(sidecar.read_text())
        if "clean" in meta:
            sidecar.write_text(json.dumps({**meta, "clean": False}))
    out = tmp_path / "eeg.csv"
    assert run("preprocess-eeg", "--epochs", tmp_path / "eeg", "--subset", "clean", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == "epochs: 4 total, 0 clean, 4 dirty; using 0\n"
    assert captured.err == f"error: {tmp_path / 'eeg'}: no clean epoch; --subset all uses the dirty ones too\n"
    assert not out.exists()


def edit_sidecar(**changes):
    """Rewrite an epoch's sidecar with `changes`; a value of None drops the key."""
    def edit(f32):
        meta = json.loads(f32.with_suffix(".json").read_text())
        meta.update(changes)
        f32.with_suffix(".json").write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
    return edit


def thirteen_channels(f32):
    data, baseline, meta = read_eeg_epoch(f32)
    write_eeg_epoch(f32.parent, f32.stem, data[:13], baseline[:13], meta)


@pytest.mark.parametrize("edit, message", [
    (lambda f32: f32.with_suffix(".json").write_text('{\n  "channels": 14,\n}\n'),
     ":3: Expecting property name enclosed in double quotes"),
    (lambda f32: f32.with_suffix(".json").write_text("[14]"), ": expected a JSON object"),
    (edit_sidecar(channels=None), ": missing key 'channels'"),
    (edit_sidecar(samples="many"), ": invalid literal for int() with base 10: 'many'"),
    (edit_sidecar(sample_rate=256), ": sample rate must be 128 Hz, got 256"),
    (edit_sidecar(sample_rate=128.5), ": sample rate must be 128 Hz, got 128.5"),
    (edit_sidecar(clean="false"), ": clean must be true or false, got 'false'"),
    (edit_sidecar(label=None), ": missing key 'label'"),
    (edit_sidecar(label="X"), ": affect label must be 'H' or 'L', got 'X'"),
    (edit_sidecar(quadrant="H"), ": quadrant code must be two letters, got 'H'"),
    (thirteen_channels, ": epoch data must be 14 x T, got shape (13, 512)"),
], ids=["json-syntax", "not-an-object", "no-channels", "bad-samples", "sample-rate", "fractional-rate",
        "clean-string", "no-label", "bad-label", "bad-quadrant", "13-channels"])
def test_bad_eeg_sidecar_exits_1_naming_it(tmp_path, capsys, edit, message):
    synth_epochs(tmp_path / "eeg")
    bad = sorted((tmp_path / "eeg").glob("*.f32"))[1]
    edit(bad)
    out = tmp_path / "eeg.csv"
    capsys.readouterr()
    assert run("preprocess-eeg", "--epochs", tmp_path / "eeg", "--out", out) == 1
    assert capsys.readouterr().err == f"error: {bad.with_suffix('.json')}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, change, message", [
    ("fps.txt", lambda raw: b"nan\n", ": frame rate 'nan' is not a finite number > 0"),
    ("fps.txt", lambda raw: b"abc\n", ": frame rate 'abc' is not a finite number > 0"),
    ("fps.txt", lambda raw: b"0\n", ": frame rate '0' is not a finite number > 0"),
    ("fps.txt", lambda raw: b"inf\n", ": frame rate 'inf' is not a finite number > 0"),
    ("frame_000003.ppm", lambda raw: raw[:100], ": a 16x16 PPM holds 768 pixel bytes, found 87"),
    ("frame_000003.ppm", lambda raw: raw + b"\n", ": a 16x16 PPM holds 768 pixel bytes, found 769"),
    ("frame_000003.ppm", lambda raw: b"P6\n16 x\n255\n",
     ": PPM width, height and maxval must be integers, got '16 x 255'"),
    ("frame_000005.ppm", lambda raw: b"P6\n4 2\n255\n" + bytes(24),
     ": a 4x2 frame, but {frames}/frame_000000.ppm is 16x16"),
], ids=["fps-nan", "fps-text", "fps-zero", "fps-inf", "truncated-frame", "long-frame", "bad-header", "frame-size"])
def test_bad_frame_dir_exits_1_naming_the_file(tmp_path, capsys, name, change, message):
    assert run("synth", "media", "--out", tmp_path / "media") == 0
    frames, out = tmp_path / "media" / "frames", tmp_path / "video.csv"
    (frames / name).write_bytes(change((frames / name).read_bytes()))
    capsys.readouterr()
    assert run("extract-av", "--frames", frames, "--out-video", out) == 1
    assert capsys.readouterr().err == f"error: {frames / name}{message.format(frames=frames)}\n"
    assert not out.exists()


def test_wav_without_fmt_chunk_exits_1(tmp_path, capsys):
    wav, out = tmp_path / "a.wav", tmp_path / "audio.csv"
    wav.write_bytes(b"RIFF\x14\x00\x00\x00WAVEdata\x08\x00\x00\x00" + bytes(8))
    assert run("extract-av", "--audio", wav, "--out-audio", out) == 1
    assert capsys.readouterr().err == f"error: {wav}: no 'fmt ' chunk\n"
    assert not out.exists()


def test_padded_segment_header_exits_1(tmp_path, capsys):
    # Header names match exactly, as in every other CSV reader.
    segments, out = tmp_path / "segments.csv", tmp_path / "scores.csv"
    segments.write_text(SEGMENTS.replace("ad_id,segment_id,p_high", " ad_id,segment_id, p_high"))
    assert run("score-ads", "--predictions", segments, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {segments}:1: need ad_id and p_high columns\n"
    assert not out.exists()


def test_carriage_return_id_exits_1_and_writes_nothing(tmp_path, capsys):
    # csv.reader keeps a quoted carriage return, but the CSV writers cannot carry one.
    preds, out = tmp_path / "p.csv", tmp_path / "fused.csv"
    preds.write_text(PREDICTIONS.replace("a,H", '"a\rb",H'))
    assert run("fuse", "--a", preds, "--b", preds, "--f1a", 0.8, "--f1b", 0.7, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}:3: ") and "carriage return" in err and err.count("\n") == 1
    assert not out.exists()


def schedule_entries(prefix):
    return [{"id": f"{prefix}{i:02d}", "asl": 0.2 * i + 0.1, "val": 0.5} for i in range(4)]


def drop_val(entries):
    del entries[1]["val"]
    return json.dumps(entries, indent=2)


def out_of_range(entries):
    entries[1]["asl"] = 1.5
    return json.dumps(entries, indent=2)


class TestScheduleInputBoundaries:
    """A bad scenes or ads JSON file fails `schedule` with one line that names it."""

    @pytest.mark.parametrize("which", ["scenes", "ads"])
    @pytest.mark.parametrize("make_bad, where", [
        (drop_val, ": entry 2: missing key 'val'"),
        (lambda entries: json.dumps(entries, indent=2).split('"asl"')[0], ":4: Expecting"),
        (lambda entries: json.dumps({"entries": entries}), ": expected a JSON list"),
        (out_of_range, ": entry 2: "),
        (lambda entries: json.dumps([entries[0], ["x", 0.5, 0.5], *entries[2:]]),
         ": entry 2: expected a JSON object\n"),
    ], ids=["missing-key", "truncated", "top-level-object", "out-of-range", "entry-not-an-object"])
    def test_bad_file_exits_1_naming_it(self, tmp_path, capsys, which, make_bad, where):
        paths = {}
        for name, prefix in (("scenes", "scene"), ("ads", "ad")):
            paths[name] = tmp_path / f"{name}.json"
            entries = schedule_entries(prefix)
            paths[name].write_text(make_bad(entries) if name == which else json.dumps(entries))
        out = tmp_path / "sched.csv"
        assert run("schedule", "--scenes", paths["scenes"], "--ads", paths["ads"], "--k", 2,
                   "--method", "exact", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[which]}{where}") and err.count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """A directory holding one valid file of each text input the program reads."""
    d = tmp_path_factory.mktemp("text_inputs")
    for argv in (("synth", "ratings", "--raters", 4, "--items", 6, "--out", d / "ratings.csv",
                  "--with-manifest", d / "ads.jsonl"),
                 ("synth", "quadrant", "--seed", 3, "--n-per-task", 6, "--dims", 9, "--out", d / "f.csv"),
                 ("synth", "posteriors", "--ads", 3, "--segments", 2, "--out", d / "segments.csv"),
                 ("synth", "schedule-instance", "--scenes", 4, "--ads", 3, "--out", d / "inst"),
                 ("synth", "eeg", "--seed", 3, "--n-per-class", 2, "--duration", 4, "--out", d / "eeg"),
                 ("train", "--features", d / "f.csv", "--model", "lda", "--out", d / "m.json")):
        assert run(*argv) == 0
    (d / "p.csv").write_text(PREDICTIONS)
    (d / "cfg.json").write_text('{\n  "dims": 9\n}\n')
    write_frame_dir(d / "frames", np.zeros((2, 4, 4, 3)), 25.0)
    return d


# input: (the file given a 0xff byte, its line, the command reading it given the inputs and an output path)
UNDECODABLE_INPUTS = {
    "ratings": (lambda d: d / "ratings.csv", 3, lambda d, out: ("agreement", "--ratings", d / "ratings.csv",
                                                                "--out", out)),
    "features": (lambda d: d / "f.csv", 2, lambda d, out: ("train", "--features", d / "f.csv", "--model", "lda",
                                                           "--out", out)),
    "predictions": (lambda d: d / "p.csv", 4, lambda d, out: ("fuse", "--a", d / "p.csv", "--b", d / "p.csv",
                                                              "--f1a", 0.8, "--f1b", 0.7, "--out", out)),
    "segments": (lambda d: d / "segments.csv", 5, lambda d, out: ("score-ads", "--predictions", d / "segments.csv",
                                                                  "--out", out)),
    "manifest": (lambda d: d / "ads.jsonl", 4, lambda d, out: ("agreement", "--ratings", d / "ratings.csv",
                                                               "--manifest", d / "ads.jsonl", "--out", out)),
    "scenes": (lambda d: d / "inst" / "scenes.json", 3, lambda d, out: (
        "schedule", "--scenes", d / "inst" / "scenes.json", "--ads", d / "inst" / "ads.json", "--k", 2,
        "--method", "exact", "--out", out)),
    "ads": (lambda d: d / "inst" / "ads.json", 7, lambda d, out: (
        "schedule", "--scenes", d / "inst" / "scenes.json", "--ads", d / "inst" / "ads.json", "--k", 2,
        "--method", "exact", "--out", out)),
    "eeg-sidecar": (lambda d: sorted((d / "eeg").glob("*.f32"))[0].with_suffix(".json"), 6,
                    lambda d, out: ("preprocess-eeg", "--epochs", d / "eeg", "--out", out)),
    "fps": (lambda d: d / "frames" / "fps.txt", 1, lambda d, out: ("extract-av", "--frames", d / "frames",
                                                                   "--out-video", out)),
    "config": (lambda d: d / "cfg.json", 2, lambda d, out: ("synth", "quadrant", "--config", d / "cfg.json",
                                                            "--out", out)),
    "model": (lambda d: d / "m.json", 1, None),
}


@pytest.mark.parametrize("name", list(UNDECODABLE_INPUTS))
def test_undecodable_text_input_fails_with_one_path_line(tmp_path, capsys, text_inputs, name):
    # Every text input is UTF-8: one 0xff byte fails naming the file and the byte's line, and nothing is written.
    target, line, argv = UNDECODABLE_INPUTS[name]
    d = tmp_path / "inputs"
    shutil.copytree(text_inputs, d)
    path = target(d)
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
    path.write_bytes(b"\n".join(lines))
    before = sorted(tmp_path.rglob("*"))
    message = f"error: {path}:{line}: byte 0xff is not UTF-8"
    if argv is None:  # no command reads a model file yet
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert f"error: {exc.value}" == message
    elif name == "config":  # a usage error: argparse prints its usage line first
        with pytest.raises(SystemExit) as exc:
            run(*argv(d, tmp_path / "out"))
        assert exc.value.code == 2
        assert [x for x in capsys.readouterr().err.splitlines() if "error: " in x] == [f"adaffect: {message}"]
    else:
        capsys.readouterr()
        assert run(*argv(d, tmp_path / "out")) == 1
        assert capsys.readouterr().err == message + "\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_non_ascii_ids_round_trip_under_an_ascii_locale(tmp_path):
    # Inputs are decoded as UTF-8 whatever the locale's encoding is.
    scenes = [{"id": f"scène{i}", "asl": 0.2 * i, "val": 0.5} for i in range(4)]
    ads = [{"id": f"annonce-é{i}", "asl": 0.3 * i, "val": 0.4} for i in range(3)]
    for name, entries in (("scenes", scenes), ("ads", ads)):
        (tmp_path / f"{name}.json").write_bytes(json.dumps(entries, ensure_ascii=False).encode("utf-8"))
    code = ("import sys; sys.path.insert(0, %r); from adaffect.cli import main; sys.exit(main(sys.argv[1:]))"
            % str(Path(adaffect.__file__).resolve().parents[1]))
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    out = tmp_path / "sched.csv"
    proc = subprocess.run([sys.executable, "-c", code, "schedule", "--scenes", str(tmp_path / "scenes.json"),
                           "--ads", str(tmp_path / "ads.json"), "--k", "2", "--method", "exact", "--out", str(out)],
                          env=env, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    rows = out.read_bytes().decode("utf-8").splitlines()
    assert {row.split(",")[1] for row in rows[1:-1]} <= {ad["id"] for ad in ads} and len(rows) == 4


class TestNumericFlagBounds:
    """A NaN, infinite, out-of-range or empty numeric flag, or a grid key the model lacks, fails with one
    line naming the field and value."""

    @pytest.mark.parametrize("command, flags, message", [
        ("schedule", ("--lambda-v", "nan"), "lambda_v must be a finite number >= 0, got nan"),
        ("schedule", ("--lambda-a", "inf", "--method", "exact"), "lambda_a must be a finite number >= 0, got inf"),
        ("synth", ("--snr", "inf"), "class_separation must be a finite number >= 0, got inf"),
        ("synth", ("--noise-std", "nan"), "noise_std must be a finite number >= 0, got nan"),
        ("synth", ("--noise-std", "0"), "noise_std must be a finite number > 0, got 0.0"),
        ("synth", ("--duration", "nan"), "duration_s must be a finite number > 0, got nan"),
        ("preprocess-eeg", ("--retain", "nan"), "retain must be a number in (0, 1], got nan"),
        ("preprocess-eeg", ("--retain", "-0.5"), "retain must be a number in (0, 1], got -0.5"),
        ("evaluate", ("--grid", "C="), "rbf_svm grid C has no values"),
        ("evaluate", ("--grid", "gamma=0.1", "--grid", "C=,"), "rbf_svm grid C has no values"),
        ("evaluate", ("--model", "lda", "--grid", "C=1,10"), "lda has no hyperparameter C (known: shrinkage)"),
    ], ids=["lambda-v-nan", "lambda-a-inf", "snr-inf", "noise-std-nan", "noise-std-zero", "duration-nan",
            "retain-nan", "retain-negative", "grid-empty", "grid-only-commas", "grid-unknown-key"])
    def test_bad_value_exits_1_and_writes_nothing(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "out"
        if command == "schedule":
            for name, prefix in (("scenes", "scene"), ("ads", "ad")):
                (tmp_path / f"{name}.json").write_text(json.dumps(schedule_entries(prefix)))
            argv = ("schedule", "--scenes", tmp_path / "scenes.json", "--ads", tmp_path / "ads.json", "--k", 2)
        elif command == "synth":
            argv = ("synth", "eeg", "--n-per-class", 2, "--duration", 4)
        elif command == "evaluate":
            run("synth", "quadrant", "--n-per-task", 6, "--dims", 9, "--out", tmp_path / "f.csv")
            argv = ("evaluate", "--features", tmp_path / "f.csv", "--model", "rbf_svm")
        else:
            synth_epochs(tmp_path / "eeg")
            argv = ("preprocess-eeg", "--epochs", tmp_path / "eeg")
        capsys.readouterr()
        assert run(*argv, *flags, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestModelSerialization:
    def features(self):
        from adaffect.synthgen import GenSpec, gen_quadrant_data

        return gen_quadrant_data(GenSpec(seed=6, n_per_task=8, dims=9, class_separation=5.0))

    def write_features(self, tmp_path, features):
        path = tmp_path / "f.csv"
        write_feature_csv(path, features)
        return path

    @pytest.mark.parametrize("kind", ["lda", "linear_svm", "rbf_svm"])
    def test_shallow_roundtrip(self, tmp_path, kind):
        data = self.features()
        X, y = data.features.X, data.features.y_signs()
        model = shallow_fit(X, y, kind)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(shallow_predict_proba(model, X), shallow_predict_proba(loaded, X))

    def test_mtl_roundtrip(self, tmp_path):
        data = self.features()
        g = build_task_graph()
        Xs, Ys = [], []
        y = data.features.y_signs()
        for quad in g.tasks:
            idx = [i for i, q in enumerate(data.features.quadrants) if q == quad]
            Xs.append(data.features.X[idx])
            Ys.append(y[idx])
        model = mtl_fit(Xs, Ys, 0.5, 0.01, 0.1, g, fit_intercept=True)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(mtl_scores(model, data.features.X), mtl_scores(loaded, data.features.X))
        assert loaded.graph.edges == model.graph.edges

    def test_cnn_roundtrip(self, tmp_path):
        data = self.features()
        model = cnn_train(data.features.X, data.features.y_signs(), CnnConfig(max_epochs=2, seed=1))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(
            cnn_predict_proba(model, data.features.X), cnn_predict_proba(loaded, data.features.X)
        )

    @pytest.mark.parametrize("kind, params", [
        ("lda", {}), ("linear_svm", {}), ("rbf_svm", {}), ("mtl", {}), ("cnn", {"max_epochs": 2}),
    ])
    def test_resaved_model_file_is_byte_identical(self, tmp_path, kind, params):
        from adaffect.evaluation import fit_model, predict_proba

        features = self.features().features
        model = fit_model(kind, features, params, seed=1)
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(predict_proba(kind, loaded, features), predict_proba(kind, model, features))

    @pytest.mark.parametrize("text, message", [
        ('[{"kind": "lda"}]', ": expected a JSON object"),
        ('{"format_version": 1}', ": missing key 'kind'"),
        ('{"format_version": 1, "kind": ["lda"]}', ": unhashable type: 'list'"),
        ('{"format_version": 1, "kind": "lda"}', ": missing key "),
    ], ids=["list", "no-kind", "list-kind", "no-fields"])
    def test_malformed_model_file_fails_naming_it(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}{message}")

    def test_edited_mtl_edges_rejected(self, tmp_path):
        data = self.features()
        path = tmp_path / "m.json"
        assert run("train", "--features", self.write_features(tmp_path, data.features),
                   "--model", "mtl", "--out", path) == 0
        doc = json.loads(path.read_text())
        doc["edges"] = doc["edges"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="edges"):
            load_model(path)

    def test_train_mtl_missing_quadrant_exits_1(self, tmp_path, capsys):
        features = self.features().features
        keep = [i for i, q in enumerate(features.quadrants) if q.code != "LH"]
        feats = self.write_features(tmp_path, features.subset(keep))
        assert run("train", "--features", feats, "--model", "mtl",
                   "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("has no training items\n")
        assert err.count("\n") == 1

    def test_train_warns_on_unconverged_smo(self, tmp_path, capsys, monkeypatch):
        from adaffect.learners import shallow

        feats = self.write_features(tmp_path, self.features().features)
        converged = tmp_path / "converged.json"
        assert run("train", "--features", feats, "--model", "linear_svm", "--out", converged) == 0
        assert capsys.readouterr().err == ""

        solve = shallow._linear_dual
        monkeypatch.setattr(shallow, "_linear_dual", lambda X, y, C, start: solve(X, y, C, max_steps=1, max_iter=1))
        out = tmp_path / "capped.json"
        assert run("train", "--features", feats, "--model", "linear_svm", "--out", out) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: linear_svm C=1.0 stopped after 1 interior-point steps and 1 SMO pair updates "
                              "without meeting the KKT tolerance")
        assert err.count("\n") == 1
        assert load_model(out).kind == "linear_svm"

    def test_evaluate_warns_on_unconverged_smo(self, tmp_path, capsys, monkeypatch):
        from adaffect.learners import shallow

        feats = self.write_features(tmp_path, self.features().features)
        args = ("evaluate", "--features", feats, "--model", "linear_svm", "--grid", "C=1",
                "--reps", 1, "--folds", 3)
        assert run(*args, "--out", tmp_path / "converged.csv") == 0
        assert capsys.readouterr().err == ""

        solve = shallow._linear_dual
        monkeypatch.setattr(shallow, "_linear_dual", lambda X, y, C, start: solve(X, y, C, max_steps=1, max_iter=1))
        assert run(*args, "--out", tmp_path / "capped.csv") == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: linear_svm: 3 of 3 final fold fits stopped without meeting")
        assert err.count("\n") == 1

    def test_train_and_evaluate_warn_on_unconverged_calibration(self, tmp_path, capsys, monkeypatch):
        # Only the Platt calibration solves stop short: in each shallow_fit,
        # the model's own solve comes first and runs as usual, and every
        # later solve is capped at one interior-point step and one SMO pair
        # update.
        from adaffect import evaluation
        from adaffect.learners import shallow

        solve, fit = shallow._linear_dual, evaluation.shallow_fit

        def capped_calibration(*args, **kwargs):
            solves = []

            def capped_after_first(X, y, C, start):
                solves.append(C)
                return solve(X, y, C, start=start) if len(solves) == 1 else solve(X, y, C, max_steps=1, max_iter=1)

            monkeypatch.setattr(shallow, "_linear_dual", capped_after_first)
            try:
                return fit(*args, **kwargs)
            finally:
                monkeypatch.setattr(shallow, "_linear_dual", solve)

        monkeypatch.setattr(evaluation, "shallow_fit", capped_calibration)
        feats = self.write_features(tmp_path, self.features().features)
        assert run("train", "--features", feats, "--model", "linear_svm", "--out", tmp_path / "m.json") == 0
        err = capsys.readouterr().err
        assert err == ("warning: linear_svm C=1.0: 3 of 3 Platt calibration solves stopped without meeting "
                       "the KKT tolerance\n")
        assert run("evaluate", "--features", feats, "--model", "linear_svm", "--grid", "C=1",
                   "--reps", 1, "--folds", 3, "--out", tmp_path / "r.csv") == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: linear_svm: 3 of 3 final fold fits stopped without meeting")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["linear_svm", "rbf_svm"])
    def test_evaluate_hyper_is_not_searched_over(self, tmp_path, monkeypatch, kind):
        # The SVMs' default grids search C, so a fixed C leaves the grid.
        from adaffect import evaluation

        fit, Cs = evaluation.shallow_fit, []

        def fit_spy(X, y, kind, params, seed):
            Cs.append(params["C"])
            return fit(X, y, kind, params, seed=seed)

        monkeypatch.setattr(evaluation, "shallow_fit", fit_spy)
        feats = self.write_features(tmp_path, self.features().features)
        assert run("evaluate", "--features", feats, "--model", kind, "--hyper", "C=5",
                   "--reps", 1, "--folds", 3, "--out", tmp_path / "r.csv") == 0
        assert Cs == [5] * 3

    def test_evaluate_hyper_also_in_grid_exits_1(self, tmp_path, capsys):
        feats = self.write_features(tmp_path, self.features().features)
        out = tmp_path / "r.csv"
        assert run("evaluate", "--features", feats, "--model", "linear_svm", "--hyper", "C=5", "--grid", "C=1,10",
                   "--reps", 1, "--folds", 3, "--out", out) == 1
        assert capsys.readouterr().err == "error: linear_svm C is both fixed by params and searched by the grid\n"
        assert not out.exists()

    @pytest.mark.parametrize("hyper, field", [
        ("dropout=1.0", "dropout"),
        ("learning_rate=-1", "learning_rate"),
        ("batch_size=0", "batch_size"),
        ("n_filters=0", "n_filters"),
        ("batch_size=2.5", "batch_size"),
        ("max_epochs=0", "max_epochs"),
        ("val_fraction=1.5", "val_fraction"),
    ])
    def test_train_cnn_bad_config_exits_1(self, tmp_path, capsys, hyper, field):
        feats = self.write_features(tmp_path, self.features().features)
        out = tmp_path / "m.json"
        assert run("train", "--features", feats, "--model", "cnn", "--hyper", hyper, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: CnnConfig {field} must be ")
        assert err.endswith(f", got {hyper.split('=')[1]}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, hyper", [
        ("linear_svm", "C=nan"), ("linear_svm", "C=inf"), ("rbf_svm", "C=0"),
        ("rbf_svm", "gamma=nan"), ("rbf_svm", "gamma=-1"), ("rbf_svm", "gamma=auto"),
        ("lda", "shrinkage=nan"), ("lda", "shrinkage=-1"), ("lda", "shrinkage=2"),
        ("mtl", "alpha=nan"), ("mtl", "beta=inf"), ("mtl", "gamma=-1"), ("mtl", "tol=nan"),
        ("mtl", "max_iter=-5"), ("mtl", "max_iter=2.5"), ("mtl", "fit_intercept=3"),
    ])
    def test_train_hyper_out_of_bounds_exits_1(self, tmp_path, capsys, kind, hyper):
        feats = self.write_features(tmp_path, self.features().features)
        out = tmp_path / "m.json"
        assert run("train", "--features", feats, "--model", kind, "--hyper", hyper, "--out", out) == 1
        field, value = hyper.split("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} {field} must be ")
        assert err.count("\n") == 1 and err.rstrip("\n").split(", got ")[-1].strip("'") == value
        assert not out.exists()

    @pytest.mark.parametrize("kind, hyper", [("mtl", "alpah=0.5"), ("linear_svm", "Cc=5")])
    def test_train_unknown_hyper_exits_1(self, tmp_path, capsys, kind, hyper):
        feats = self.write_features(tmp_path, self.features().features)
        out = tmp_path / "m.json"
        assert run("train", "--features", feats, "--model", kind, "--hyper", hyper, "--out", out) == 1
        assert f"has no hyperparameter {hyper.split('=')[0]} " in capsys.readouterr().err
        assert not out.exists()

    def test_train_subcommand_writes_loadable_model(self, tmp_path):
        feats = tmp_path / "f.csv"
        run("synth", "quadrant", "--seed", 8, "--n-per-task", 8, "--dims", 9, "--out", feats)
        model_path = tmp_path / "model.json"
        assert run("train", "--features", feats, "--model", "rbf_svm",
                   "--hyper", "C=10", "--out", model_path) == 0
        model = load_model(model_path)
        loaded = read_feature_csv(feats)
        proba = shallow_predict_proba(model, loaded.X)
        assert proba.shape == (loaded.n_items, 2)
        doc = json.loads(model_path.read_text())
        assert doc["format_version"] == 1
        assert doc["hyperparams"]["C"] == 10
