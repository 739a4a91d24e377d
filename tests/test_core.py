import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaffect.core import (
    ALL_QUADRANTS,
    AdRecord,
    AffectLabel,
    DegenerateRangeError,
    EmptyRaterError,
    ManifestError,
    Quadrant,
    RatingMatrix,
    ScaleViolationError,
    binarize_ratings,
    min_max_normalize,
    quadrant_summary,
    stratified_splits,
)
from adaffect.fileio import load_manifest, load_ratings_csv
from oracles import reference_stratified_folds

H = AffectLabel.HIGH
L = AffectLabel.LOW


class TestAffectLabel:
    def test_two_levels_with_total_order(self):
        assert len(AffectLabel) == 2
        assert L < H
        assert not (H < L)

    def test_sign_encoding(self):
        assert H.sign == 1.0 and L.sign == -1.0


class TestQuadrant:
    def test_four_distinct_quadrants(self):
        assert len(set(ALL_QUADRANTS)) == 4
        assert [q.code for q in ALL_QUADRANTS] == ["HH", "HL", "LH", "LL"]

    def test_relatedness_shares_an_axis(self):
        hh, hl, lh, ll = ALL_QUADRANTS
        assert hh.related_to(hl) and hh.related_to(lh)
        assert ll.related_to(hl) and ll.related_to(lh)
        assert not hh.related_to(ll)
        assert not hl.related_to(lh)
        assert not hh.related_to(hh)

    def test_code_roundtrip(self):
        for q in ALL_QUADRANTS:
            assert Quadrant.from_code(q.code) == q


class TestStratifiedSplits:
    @settings(max_examples=300, deadline=None)
    @given(signs=st.lists(st.sampled_from([1.0, -1.0]), max_size=40), n_folds=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_item_dealing(self, signs, n_folds, seed):
        # Fold counts above a class's size leave some test sides without
        # that class, or empty.
        y = np.array(signs)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        splits = stratified_splits(y, n_folds, rng)
        expect = reference_stratified_folds(y, n_folds, ref_rng)
        assert len(splits) == n_folds
        everyone = np.arange(len(y))
        for (train_idx, test_idx), ref in zip(splits, expect):
            assert np.array_equal(test_idx, ref)
            assert np.array_equal(train_idx, np.setdiff1d(everyone, test_idx))
        assert np.array_equal(np.sort(np.concatenate([test_idx for _, test_idx in splits])), everyone)
        for cls in (1.0, -1.0):
            counts = [int(np.sum(y[test_idx] == cls)) for _, test_idx in splits]
            assert max(counts) - min(counts) <= 1
        # Both consumed the same draws, so what the caller draws next agrees.
        assert rng.integers(0, 2**31 - 1) == ref_rng.integers(0, 2**31 - 1)

    def test_unlabelled_item_is_on_every_training_side(self):
        y = np.array([1.0, 0.0, -1.0, 1.0, -1.0])
        splits = stratified_splits(y, 2, np.random.default_rng(0))
        assert all(1 in train_idx and 1 not in test_idx for train_idx, test_idx in splits)
        assert sorted(np.concatenate([test_idx for _, test_idx in splits])) == [0, 2, 3, 4]


def write_manifest(tmp_path, rows):
    path = tmp_path / "ads.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestLoadManifest:
    def test_one_ad_per_quadrant(self, tmp_path):
        rows = [
            {"id": f"ad{i}", "duration_s": 50.0, "expert_arousal": a, "expert_valence": v}
            for i, (a, v) in enumerate([("H", "H"), ("H", "L"), ("L", "H"), ("L", "L")])
        ]
        ads = load_manifest(write_manifest(tmp_path, rows))
        assert len(ads) == 4
        counts = {q: 0 for q in ALL_QUADRANTS}
        for ad in ads:
            counts[ad.expert_quadrant] += 1
        assert all(c == 1 for c in counts.values())

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "duration_s": 10, "expert_arousal": "H", "expert_valence": "H"}\nnot json\n')
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    @pytest.mark.parametrize("line, message", [
        ('["ad1", 10, "H", "H"]', ":2: expected a JSON object"),
        ('"ad1"', ":2: expected a JSON object"),
        ('{"id": "b", "duration_s": 10, "expert_arousal": "L"}', ":2: missing key 'expert_valence'"),
    ], ids=["list", "string", "missing-key"])
    def test_bad_line_fails_naming_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "duration_s": 10, "expert_arousal": "H", "expert_valence": "H"}\n' + line + "\n")
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}{message}"

    def test_scale_violation_names_cell(self, tmp_path):
        rpath = tmp_path / "ratings.csv"
        rpath.write_text("rater_id,item_id,attribute,score\nr1,a,valence,3\n")
        with pytest.raises(ScaleViolationError, match="'a'"):
            load_ratings_csv(rpath)

    def test_table_style_mean_length(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [{"id": "a", "duration_s": 48.16, "expert_arousal": "H", "expert_valence": "H"}],
        )
        summary = quadrant_summary(load_manifest(mpath))
        assert summary[Quadrant.from_code("HH")].mean_length_s == pytest.approx(48.16)


class TestMinMaxNormalize:
    def test_arousal_midpoint(self):
        assert np.allclose(min_max_normalize([0, 2, 4]), [0, 0.5, 1])

    def test_valence_endpoints(self):
        assert np.allclose(min_max_normalize([-2, 0, 2]), [0, 0.5, 1])

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRangeError):
            min_max_normalize([5, 5, 5])

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=17)
            assert np.array_equal(np.argsort(x), np.argsort(min_max_normalize(x)))


def matrix(values, attribute="arousal"):
    lo, hi = (-2, 2) if attribute == "valence" else (0, 4)
    return RatingMatrix(np.asarray(values, dtype=float), lo, hi, attribute)


class TestBinarizeRatings:
    def test_per_rater_mean_with_tie_to_low(self):
        out = binarize_ratings(matrix([[1, 2, 3]]), "per_rater_mean")
        assert list(out[0]) == [L, L, H]

    def test_identical_scores_all_low(self):
        out = binarize_ratings(matrix([[2, 2, 2, 2]]), "per_rater_mean")
        assert all(lab is L for lab in out[0])

    def test_group_mean(self):
        out = binarize_ratings(matrix([[0, 4], [4, 0]]), "group_mean")
        assert list(out[0]) == [L, H]
        assert list(out[1]) == [H, L]

    def test_missing_stays_missing(self):
        out = binarize_ratings(matrix([[1, np.nan, 3]]), "per_rater_mean")
        assert out[0][1] is None

    def test_empty_rater_error(self):
        with pytest.raises(EmptyRaterError):
            binarize_ratings(matrix([[np.nan, np.nan], [1, 2]]), "per_rater_mean")

    def test_symmetric_scale_flip_flips_labels(self):
        vals = np.array([[-2.0, -1.0, 0.5, 2.0, 1.5]])
        out = binarize_ratings(matrix(vals, "valence"), "per_rater_mean")
        flipped = binarize_ratings(matrix(-vals, "valence"), "per_rater_mean")
        # Strict-threshold asymmetry: a tie maps to Low either way, so only
        # compare entries that were strictly off the threshold before the flip.
        thr = vals.mean()
        for j, v in enumerate(vals[0]):
            if v != thr:
                assert {out[0][j], flipped[0][j]} == {H, L}


class TestQuadrantSummary:
    def ads(self, quads_durations):
        return [
            AdRecord(f"ad{i}", d, Quadrant.from_code(q))
            for i, (q, d) in enumerate(quads_durations)
        ]

    def test_two_ads_mean_length(self):
        summary = quadrant_summary(self.ads([("HH", 40.0), ("HH", 60.0)]))
        assert summary[Quadrant.from_code("HH")].mean_length_s == pytest.approx(50.0)

    def test_singleton_means(self):
        summary = quadrant_summary(
            self.ads([("HH", 48.16), ("HL", 64.16), ("LH", 44.18), ("LL", 60.24)])
        )
        assert summary[Quadrant.from_code("HL")].mean_length_s == pytest.approx(64.16)
        assert summary[Quadrant.from_code("LL")].mean_length_s == pytest.approx(60.24)

    def test_permutation_invariant(self):
        ads = self.ads([("HH", 10), ("HL", 20), ("HH", 30), ("LL", 40)])
        a = quadrant_summary(ads)
        b = quadrant_summary(ads[::-1])
        assert a == b

    def test_rating_means_attached(self):
        ads = self.ads([("HH", 48.16)])
        asl = RatingMatrix(np.array([[2.0], [3.0]]), 0, 4, "arousal", item_ids=["ad0"], rater_ids=["r1", "r2"])
        val = RatingMatrix(np.array([[1.0], [1.5]]), -2, 2, "valence", item_ids=["ad0"], rater_ids=["r1", "r2"])
        stats = quadrant_summary(ads, asl, val)[Quadrant.from_code("HH")]
        assert stats.mean_asl == pytest.approx(2.5)
        assert stats.mean_val == pytest.approx(1.25)

    def test_empty_quadrant_absent(self):
        summary = quadrant_summary(self.ads([("HH", 10)]))
        assert Quadrant.from_code("LL") not in summary


class TestRatingsCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "rater_id,item_id,attribute,score\n"
            "r1,a,valence,1\nr1,b,valence,-2\nr2,a,valence,2\n"
            "r1,a,arousal,3\n"
        )
        out = load_ratings_csv(path)
        val = out["valence"]
        assert val.values.shape == (2, 2)
        assert np.isnan(val.values[1, 1])
        assert out["arousal"].values.shape == (1, 1)
