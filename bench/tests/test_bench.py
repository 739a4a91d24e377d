"""Tests of the benchmark's own machinery: span self times and the
reference computations its checks rely on.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer", spans._count_calls("outer_calls"))
    module.outer()
    tracer.restore()
    assert module.outer is outer and module.inner is inner
    selfs = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(total)
    assert 0.01 <= selfs["outer"] < 0.03
    assert selfs["inner"] >= 0.04
    assert tracer.counts["outer_calls"] == 1
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_absorbed_spans_keep_their_nesting():
    a = spans.Tracer()
    a.spans = [["x", 0.0, 1.0, -1]]
    b = {"spans": [["y", 0.0, 2.0, -1], ["z", 0.5, 1.0, 0]], "counts": {"n": 2}}
    a.absorb(b)
    assert a.spans[2][3] == 1
    assert a.self_times() == {"x": 1.0, "y": 1.5, "z": 0.5}
    assert a.counts["n"] == 2


def test_alpha_counts_match_pair_enumeration_and_program():
    from adaffect.stats import krippendorff_alpha

    oracles = reference.load_test_oracles(ROOT)
    rng = np.random.default_rng(11)
    for _ in range(30):
        grid = rng.integers(0, 5, size=(int(rng.integers(2, 7)), int(rng.integers(3, 15)))).astype(float)
        grid[rng.random(grid.shape) < 0.15] = np.nan
        for metric in ("ordinal", "interval"):
            try:
                brute = oracles.krippendorff_alpha_bruteforce(grid.tolist(), metric)
            except (ValueError, ZeroDivisionError):
                continue
            assert reference.krippendorff_alpha_counts(grid, metric) == pytest.approx(brute, abs=1e-10)
            assert krippendorff_alpha(grid, metric).statistic == pytest.approx(brute, abs=1e-10)


def test_svm_optimality_accepts_a_solved_svm_and_rejects_a_perturbed_one():
    from adaffect.learners.shallow import KKT_TOL, shallow_fit

    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=60) > 0, 1.0, -1.0)
    for kind, hyper in (("linear_svm", {"C": 1.0}), ("rbf_svm", {"C": 10.0, "gamma": 0.5})):
        model = shallow_fit(X, y, kind, hyper)
        alpha = model.train_meta["alpha"]
        _, gap, failures = reference.svm_optimality(X, y, alpha, model.b, hyper["C"], kind, model.gamma, KKT_TOL)
        assert failures == [] and gap >= 0
        _, _, failures = reference.svm_optimality(X, y, alpha, model.b + 0.5, hyper["C"], kind, model.gamma, KKT_TOL)
        assert any("KKT" in f for f in failures)


def test_schedule_optimum_matches_brute_force_schedule():
    from adaffect.scheduler import AdItem, SceneRecord, ScheduleProblem, brute_force_schedule

    rng = np.random.default_rng(5)
    scenes = [{"id": f"s{i}", "asl": float(rng.random()), "val": float(rng.random())} for i in range(7)]
    ads = [{"id": f"a{i}", "asl": float(rng.random()), "val": float(rng.random())} for i in range(5)]
    problem = ScheduleProblem([SceneRecord(**s) for s in scenes], [AdItem(**a) for a in ads], k=4)
    assert reference.schedule_optimum(scenes, ads, 4) == pytest.approx(brute_force_schedule(problem)[1], abs=1e-12)


def test_spectrogram_identities_hold_for_the_program_and_catch_a_wrong_frame_count():
    from adaffect.media import AudioClip, stft_spectrogram

    samples = np.random.default_rng(7).uniform(-1, 1, size=16000 * 2)
    mags = stft_spectrogram(AudioClip(samples, 16000, 1)).magnitudes
    assert reference.spectrogram_identities(samples, 16000, mags) == []
    assert reference.spectrogram_identities(samples, 16000, mags[:-1]) != []


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == spans.PER_LAYER_UNITS
    assert {w["name"] for w in config["workloads"]} <= set(run.SETUP_IMPORTS)
