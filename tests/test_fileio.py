import csv
import io
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaffect.core import (
    ALL_QUADRANTS,
    AROUSAL_SCALE,
    VALENCE_SCALE,
    AffectLabel,
    FeatureMatrix,
    Quadrant,
    RatingMatrix,
)
from adaffect.fileio import (
    fmt,
    load_ratings_csv,
    read_eeg_epoch,
    read_feature_csv,
    read_frame_dir,
    read_ppm,
    read_predictions_csv,
    read_segment_posteriors_csv,
    read_wav,
    write_eeg_epoch,
    write_feature_csv,
    write_frame_dir,
    write_ppm,
    write_csv,
    write_descriptor_csv,
    write_predictions_csv,
    write_ratings_csv,
    write_spectrogram_csv,
    write_wav,
)
from adaffect.media import DescriptorSeries, Spectrogram


class TestWav:
    def test_float32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1, 1, 1600).astype(np.float32)
        path = tmp_path / "x.wav"
        write_wav(path, samples, 16000)
        loaded, sr, channels = read_wav(path)
        assert sr == 16000 and channels == 1
        assert np.allclose(loaded, samples, atol=1e-7)

    def test_int16_read(self, tmp_path):
        from scipy.io import wavfile

        data = (np.sin(2 * np.pi * 440 * np.arange(800) / 8000) * 32767).astype(np.int16)
        path = tmp_path / "i.wav"
        wavfile.write(path, 8000, data)
        loaded, sr, channels = read_wav(path)
        assert channels == 1
        assert np.max(np.abs(loaded)) <= 1.0
        assert np.allclose(loaded, data / 32768.0)

    def test_stereo_interleaving(self, tmp_path):
        left = np.linspace(-0.5, 0.5, 100).astype(np.float32)
        stereo = np.column_stack([left, -left])
        path = tmp_path / "s.wav"
        write_wav(path, stereo, 8000)
        loaded, sr, channels = read_wav(path)
        assert channels == 2
        assert np.allclose(loaded.reshape(-1, 2)[:, 0], left, atol=1e-7)


def riff(*chunks, form=b"WAVE"):
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def chunk(chunk_id, body, size=None):
    return chunk_id + struct.pack("<I", len(body) if size is None else size) + body


def fmt_chunk(tag=3, channels=1, bits=32, rate=8000, block_align=None, extensible_tag=None):
    block_align = channels * bits // 8 if block_align is None else block_align
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits)
    if extensible_tag is not None:
        guid = struct.pack("<I", extensible_tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return chunk(b"fmt ", body)


BAD_WAVS = {
    "not_riff": (b"RIFX" + riff(fmt_chunk(), chunk(b"data", bytes(8)))[4:], r"not a RIFF/WAVE file"),
    "not_wave": (riff(fmt_chunk(), chunk(b"data", bytes(8)), form=b"AVI "), r"not a RIFF/WAVE file"),
    "empty_file": (b"", r"not a RIFF/WAVE file"),
    "no_fmt": (riff(chunk(b"data", bytes(8))), r"no 'fmt ' chunk"),
    "no_data": (riff(fmt_chunk()), r"no 'data' chunk"),
    "short_fmt": (riff(chunk(b"fmt ", bytes(14)), chunk(b"data", bytes(8))), r"'fmt ' chunk has 14 bytes"),
    "truncated_data": (riff(fmt_chunk(), chunk(b"data", bytes(8), size=100)),
                       r"'data' chunk at byte 36 declares 100 bytes, only 8 remain"),
    "truncated_header": (riff(fmt_chunk(), chunk(b"data", bytes(8)), b"LIS"), r"truncated chunk header at byte 52"),
    "partial_frame": (riff(fmt_chunk(channels=2), chunk(b"data", bytes(12))),
                      r"data chunk of 12 bytes is not a whole number of 8-byte frames"),
    "zero_channels": (riff(fmt_chunk(channels=0, block_align=4), chunk(b"data", bytes(8))), r"zero channels"),
    "pcm_8bit": (riff(fmt_chunk(tag=1, bits=8), chunk(b"data", bytes(8))), r"unsupported sample format: 8-bit PCM"),
    "pcm_24bit": (riff(fmt_chunk(tag=1, bits=24), chunk(b"data", bytes(9))), r"unsupported sample format: 24-bit PCM"),
    "pcm_64bit": (riff(fmt_chunk(tag=1, bits=64), chunk(b"data", bytes(8))), r"unsupported sample format: 64-bit PCM"),
    "a_law": (riff(fmt_chunk(tag=6, bits=8), chunk(b"data", bytes(8))), r"unsupported sample format: 8-bit A-law"),
    "extensible_a_law": (riff(fmt_chunk(tag=0xFFFE, bits=8, extensible_tag=6), chunk(b"data", bytes(8))),
                         r"unsupported sample format: 8-bit A-law"),
    "bad_block_align": (riff(fmt_chunk(tag=1, bits=16, block_align=4), chunk(b"data", bytes(8))),
                        r"block align 4 does not fit 1 channels of 16-bit samples"),
}


class TestWavInput:
    @pytest.mark.parametrize("name", sorted(BAD_WAVS))
    def test_rejected_as_path_reason(self, tmp_path, name):
        raw, reason = BAD_WAVS[name]
        path = tmp_path / f"{name}.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {reason}"):
            read_wav(path)

    @pytest.mark.parametrize("tag,bits,dtype,scale", [(1, 16, "<i2", 32768.0), (1, 32, "<i4", 2147483648.0),
                                                      (3, 32, "<f4", 1.0), (3, 64, "<f8", 1.0)])
    def test_extensible_subformats_read_as_plain(self, tmp_path, tag, bits, dtype, scale):
        stored = (np.arange(-6, 6) * (1000 if tag == 1 else 0.125)).astype(dtype)
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(tag=0xFFFE, channels=2, bits=bits, extensible_tag=tag),
                              chunk(b"LIST", b"INFO"), chunk(b"data", stored.tobytes())))
        samples, sr, channels = read_wav(path)
        assert (sr, channels) == (8000, 2)
        assert np.array_equal(samples, stored.astype(np.float64) / scale)


class TestWavScipyOracle:
    """scipy.io.wavfile stays the reference for the RIFF writer and reader."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: arrays(np.float32, st.sampled_from([(n,), (n, 2)]))),
           st.integers(1, 192000))
    def test_write_bytes_equal_wavfile_write(self, samples, rate):
        # Mono and stereo float32, NaN and infinities included.
        from scipy.io import wavfile

        expect = io.BytesIO()
        wavfile.write(expect, rate, samples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            write_wav(path, samples, rate)
            assert path.read_bytes() == expect.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["int16", "int32", "float32", "float64"]), st.integers(1, 4), st.integers(0, 200),
           st.integers(0, 2**32 - 1))
    def test_read_equals_wavfile_read(self, dtype, channels, frames, seed):
        from scipy.io import wavfile

        rng = np.random.default_rng(seed)
        if dtype.startswith("int"):
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=(frames, channels), endpoint=True, dtype=dtype)
        else:
            data = rng.uniform(-1.0, 1.0, size=(frames, channels)).astype(dtype)
        data = data[:, 0] if channels == 1 else data
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            wavfile.write(path, 22050, data)
            rate, expect = wavfile.read(path)
            samples, sr, ch = read_wav(path)
        scale = 2.0 ** (8 * expect.dtype.itemsize - 1) if dtype.startswith("int") else 1.0
        assert (sr, ch) == (rate, channels) and samples.dtype == np.float64
        assert np.array_equal(samples, expect.reshape(-1).astype(np.float64) / scale)

    def test_synth_media_files_are_wavfile_bytes(self, tmp_path):
        from scipy.io import wavfile

        from adaffect.cli import main

        assert main(["synth", "media", "--out", str(tmp_path)]) == 0
        for name in ("tone.wav", "tone_stereo.wav", "sweep.wav"):
            raw = (tmp_path / name).read_bytes()
            rate, data = wavfile.read(io.BytesIO(raw))
            expect = io.BytesIO()
            wavfile.write(expect, rate, data)
            assert data.dtype == np.float32 and raw == expect.getvalue()


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, size=(12, 9, 3)).astype(float) / 255.0
        path = tmp_path / "f.ppm"
        write_ppm(path, frame)
        loaded = read_ppm(path)
        assert loaded.shape == (12, 9, 3)
        assert np.allclose(loaded, frame, atol=1e-9)

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes([10, 20, 30] * 4)
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + body)
        loaded = read_ppm(path)
        assert loaded.shape == (2, 2, 3)

    def test_frame_dir_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, size=(5, 8, 8, 3)).astype(float) / 255.0
        write_frame_dir(tmp_path / "frames", frames, 25.0)
        loaded, fps = read_frame_dir(tmp_path / "frames")
        assert fps == 25.0
        assert loaded.shape == frames.shape
        assert np.allclose(loaded, frames, atol=1e-9)

    def test_missing_fps_sidecar(self, tmp_path):
        d = tmp_path / "nofps"
        d.mkdir()
        with pytest.raises(FileNotFoundError, match="fps"):
            read_frame_dir(d)


class TestEegBinary:
    def test_roundtrip_with_baseline(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(14, 256)).astype(np.float32)
        baseline = rng.normal(size=(14, 128)).astype(np.float32)
        write_eeg_epoch(tmp_path, "e1", data, baseline,
                        {"stimulus_id": "e1", "clean": False, "label": "H", "quadrant": "HH"})
        loaded, loaded_base, meta = read_eeg_epoch(tmp_path / "e1.f32")
        assert np.allclose(loaded, data, atol=1e-7)
        assert np.allclose(loaded_base, baseline, atol=1e-7)
        assert meta["clean"] is False
        assert meta["baseline_offset"] == 128
        assert meta["label"] == "H"

    def test_roundtrip_without_baseline(self, tmp_path):
        data = np.zeros((14, 64), dtype=np.float32)
        write_eeg_epoch(tmp_path, "e2", data, None, {"stimulus_id": "e2"})
        loaded, baseline, meta = read_eeg_epoch(tmp_path / "e2.f32")
        assert baseline is None
        assert loaded.shape == (14, 64)

    def test_size_mismatch_rejected(self, tmp_path):
        data = np.zeros((14, 32), dtype=np.float32)
        write_eeg_epoch(tmp_path, "e3", data, None, {})
        (tmp_path / "e3.f32").write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError, match="floats"):
            read_eeg_epoch(tmp_path / "e3.f32")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("in_baseline", [False, True])
    def test_non_finite_sample_rejected_naming_file_and_channel(self, tmp_path, value, in_baseline):
        data, baseline = np.zeros((14, 32), dtype=np.float32), np.zeros((14, 8), dtype=np.float32)
        (baseline if in_baseline else data)[3, 5] = value
        write_eeg_epoch(tmp_path, "e4", data, baseline, {})
        with pytest.raises(ValueError) as exc:
            read_eeg_epoch(tmp_path / "e4.f32")
        assert str(exc.value) == f"{tmp_path / 'e4.f32'}: channel 3 holds a non-finite sample"


class TestCsvTables:
    def test_feature_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = FeatureMatrix(
            rng.normal(size=(6, 3)),
            [AffectLabel.HIGH, AffectLabel.LOW] * 3,
            [Quadrant.from_code("HH"), Quadrant.from_code("LL")] * 3,
            [f"item{i}" for i in range(6)],
        )
        path = tmp_path / "f.csv"
        write_feature_csv(path, feats)
        loaded = read_feature_csv(path)
        assert np.array_equal(loaded.X, feats.X)  # repr round-trips exactly
        assert loaded.labels == feats.labels
        assert loaded.quadrants == feats.quadrants

    def test_predictions_roundtrip(self, tmp_path):
        ids = ["a", "b", "c"]
        truths = [AffectLabel.HIGH, AffectLabel.LOW, AffectLabel.HIGH]
        post = np.array([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]])
        path = tmp_path / "p.csv"
        write_predictions_csv(path, ids, truths, post)
        rids, rtruths, rpost = read_predictions_csv(path)
        assert rids == ids and rtruths == truths
        assert np.array_equal(rpost, post)

    def test_segment_posteriors_grouping(self, tmp_path):
        path = tmp_path / "segs.csv"
        path.write_text("ad_id,segment_id,p_high,p_low\nx,0,0.2,0.8\ny,0,0.9,0.1\nx,1,0.4,0.6\n")
        groups = read_segment_posteriors_csv(path)
        assert groups == {"x": [0.2, 0.4], "y": [0.9]}


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1.0 / 3.0, float("inf"), float("-inf"), float("nan")]


@st.composite
def float_rows(draw):
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 6))
    value = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
    return np.array(draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows)))


class TestFloatRows:
    """Each writer renders a row of floats as one join of reprs; the bytes
    equal the per-value `fmt` rendering. Feature and descriptor values must
    be finite, so their non-finite draws are replaced by 1e300."""

    @settings(max_examples=60, deadline=None)
    @given(float_rows())
    def test_row_writers_match_per_value_fmt(self, values):
        def row(r):
            return ",".join(fmt(v) for v in r)

        ids = [f"i{i}" for i in range(len(values))]
        labels = [AffectLabel.HIGH if i % 2 else AffectLabel.LOW for i in range(len(values))]
        finite = np.where(np.isfinite(values), values, 1e300)
        mags = np.where(values < 0, -values, values)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_spectrogram_csv(tmp / "s.csv", Spectrogram(mags, 25.0, 10.0, 16000))
            write_descriptor_csv(tmp / "d.csv", DescriptorSeries(finite))
            quads = [Quadrant.from_code("HL")] * len(values)
            write_feature_csv(tmp / "f.csv", FeatureMatrix(finite, labels, quads, ids))
            write_predictions_csv(tmp / "p.csv", ids, labels, values[:, [0, -1]])
            written = {name: (tmp / f"{name}.csv").read_text() for name in "sdfp"}
        n, d = values.shape
        expect = {
            "s": [f"# window_ms=25.0,hop_ms=10.0,sample_rate=16000,frames={n},bins={d}"]
                 + [row(r) for r in mags],
            "d": ["second," + ",".join(f"d{j}" for j in range(d))]
                 + [f"{s}," + row(r) for s, r in enumerate(finite)],
            "f": ["item_id,label,quadrant," + ",".join(f"f{j}" for j in range(d))]
                 + [",".join([iid, lab.value, "HL"] + [fmt(v) for v in r]) for iid, lab, r in zip(ids, labels, finite)],
            "p": ["item_id,truth,p_high,p_low"]
                 + [f"{iid},{lab.value},{fmt(r[0])},{fmt(r[-1])}" for iid, lab, r in zip(ids, labels, values)],
        }
        for name, lines in expect.items():
            assert written[name] == "\n".join(lines) + "\n", name

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats(-1e-300, 1e-300),  # subnormals among them
        st.sampled_from(["id,1", 'q"t', 7, np.float64(0.5)]),
    ), max_size=6), max_size=6))
    def test_write_csv_equals_csv_writer(self, rows):
        # Rows of Python floats alone take the joined fast path; every other
        # row (a str, an int, a numpy scalar) goes through csv.writer.
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(Path(tmp) / "t.csv", rows)
            assert (Path(tmp) / "t.csv").read_text() == buf.getvalue()


ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-,\" \n"
id_strings = st.text(ID_CHARS, min_size=1, max_size=8)
affect_labels = st.sampled_from([AffectLabel.HIGH, AffectLabel.LOW])


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def feature_matrices(draw):
    item_ids = draw(st.lists(id_strings, min_size=1, max_size=6, unique=True))
    n, d = len(item_ids), draw(st.integers(1, 5))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    quads = draw(st.lists(st.sampled_from(ALL_QUADRANTS), min_size=n, max_size=n))
    return FeatureMatrix(X, draw(st.lists(affect_labels, min_size=n, max_size=n)), quads, item_ids)


@st.composite
def rating_sets(draw):
    """{attribute: RatingMatrix}, each on its attribute's scale, with NaN
    marking missing cells."""
    out = {}
    for attr, (lo, hi) in (("valence", VALENCE_SCALE), ("arousal", AROUSAL_SCALE)):
        if draw(st.booleans()):
            raters = draw(st.lists(id_strings, min_size=1, max_size=4, unique=True))
            items = draw(st.lists(id_strings, min_size=1, max_size=5, unique=True))
            cell = st.one_of(st.floats(lo, hi), st.just(float("nan")))
            grid = draw(arrays(np.float64, (len(raters), len(items)), elements=cell))
            out[attr] = RatingMatrix(grid, lo, hi, attr, rater_ids=raters, item_ids=items)
    return out


def rating_cells(matrices) -> dict:
    """{(attribute, rater id, item id): the score's bits} over the scored cells."""
    return {(attr, rid, iid): float(v).hex()
            for attr, m in matrices.items()
            for rid, row in zip(m.rater_ids, m.values.tolist())
            for iid, v in zip(m.item_ids, row) if np.isfinite(v)}


class TestRoundTrips:
    """Each reader gives back what its writer wrote, every float bit for bit.
    Ids may hold a comma, a quote, a space or a newline: the CSV writers
    quote such fields and the readers strip none. A carriage return is the
    one character the tables cannot carry, and writing it fails."""

    @settings(max_examples=60, deadline=None)
    @given(feature_matrices())
    def test_feature_csv(self, features):
        with tempfile.TemporaryDirectory() as tmp:
            write_feature_csv(Path(tmp) / "f.csv", features)
            loaded = read_feature_csv(Path(tmp) / "f.csv")
        assert loaded.item_ids == features.item_ids
        assert loaded.labels == features.labels and loaded.quadrants == features.quadrants
        assert loaded.X.shape == features.X.shape and bits(loaded.X) == bits(features.X)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(id_strings, affect_labels, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=8))
    def test_predictions_csv(self, rows):
        item_ids, truths, p_high, p_low = map(list, zip(*rows))
        posteriors = np.column_stack([p_high, p_low])
        with tempfile.TemporaryDirectory() as tmp:
            write_predictions_csv(Path(tmp) / "p.csv", item_ids, truths, posteriors)
            rids, rtruths, rpost = read_predictions_csv(Path(tmp) / "p.csv")
        assert rids == item_ids and rtruths == truths
        assert rpost.shape == posteriors.shape and bits(rpost) == bits(posteriors)

    @settings(max_examples=60, deadline=None)
    @given(rating_sets())
    def test_ratings_csv(self, matrices):
        with tempfile.TemporaryDirectory() as tmp:
            write_ratings_csv(Path(tmp) / "r.csv", matrices)
            loaded = load_ratings_csv(Path(tmp) / "r.csv")
        assert rating_cells(loaded) == rating_cells(matrices)
        for attr, m in loaded.items():
            assert (m.scale_min, m.scale_max) == (matrices[attr].scale_min, matrices[attr].scale_max)

    @pytest.mark.parametrize("write", [
        lambda path, iid: write_feature_csv(path, FeatureMatrix(np.zeros((1, 1)), [AffectLabel.HIGH],
                                                                [ALL_QUADRANTS[0]], [iid])),
        lambda path, iid: write_predictions_csv(path, [iid], [AffectLabel.HIGH], [[0.5, 0.5]]),
        lambda path, iid: write_ratings_csv(path, {"valence": RatingMatrix(
            np.zeros((1, 1)), *VALENCE_SCALE, "valence", rater_ids=["r"], item_ids=[iid])}),
    ], ids=["feature", "predictions", "ratings"])
    def test_carriage_return_id_fails_with_path_line(self, tmp_path, write):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="carriage return") as exc:
            write(path, "a\rb")
        assert str(exc.value).startswith(f"{path}:2: ") and "\n" not in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eeg_epoch(self, data):
        channels = data.draw(st.integers(1, 14))
        sample = st.floats(width=32, allow_nan=False, allow_infinity=False)
        signal = data.draw(arrays(np.float32, (channels, data.draw(st.integers(0, 40))), elements=sample))
        n_base = data.draw(st.one_of(st.none(), st.integers(1, 20)))
        baseline = None if n_base is None else data.draw(arrays(np.float32, (channels, n_base), elements=sample))
        sidecar = {"stimulus_id": data.draw(id_strings), "clean": data.draw(st.booleans()),
                   "sample_rate": data.draw(st.integers(1, 1024)),
                   "label": data.draw(affect_labels).value, "quadrant": data.draw(st.sampled_from(ALL_QUADRANTS)).code}
        with tempfile.TemporaryDirectory() as tmp:
            write_eeg_epoch(tmp, "e", signal, baseline, sidecar)
            loaded, loaded_base, meta = read_eeg_epoch(Path(tmp) / "e.f32")
        assert loaded.shape == signal.shape and bits(loaded) == bits(signal)
        if baseline is None:
            assert loaded_base is None
        else:
            assert loaded_base.shape == baseline.shape and bits(loaded_base) == bits(baseline)
        assert meta == {**sidecar, "channels": channels, "samples": signal.shape[1],
                        "baseline_offset": 0 if baseline is None else n_base}
