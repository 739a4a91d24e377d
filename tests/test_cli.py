import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaffect
from adaffect.cli import main
from adaffect.fileio import read_feature_csv, read_predictions_csv
from adaffect.learners import load_model, save_model
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

    def test_import_defers_slow_scipy_modules(self):
        # scipy.signal and scipy.io take most of the start-up time; only the
        # commands that filter EEG or read/write WAV files should load them.
        src = str(Path(adaffect.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, %r); import adaffect.cli; "
                "print(sorted(m for m in ('scipy.signal', 'scipy.io') if m in sys.modules))" % src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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


class TestModelSerialization:
    def features(self):
        from adaffect.synthgen import GenSpec, gen_quadrant_data

        return gen_quadrant_data(GenSpec(seed=6, n_per_task=8, dims=9, class_separation=5.0))

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
