"""On-disk formats: WAV audio, binary PPM frame directories, EEG binary
epochs with JSON sidecars, atomic writes, and the CSV tables every stage
passes on, all written by `write_csv` and read by `_read_rows`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np

from .core import (
    AROUSAL_SCALE, VALENCE_SCALE, AffectLabel, FeatureMatrix, Quadrant, RatingMatrix, ScaleViolationError,
)


def atomic_write_bytes(path, data: bytes):
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def fmt(x) -> str:
    """Full-precision decimal rendering that round-trips floats.

    `write_csv` renders a Python float field as fmt does, so `tolist()` rows
    pass straight through; fmt is for values that may be numpy scalars.
    """
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------- WAV audio

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# An extensible header's subformat GUID is {tag-0000-0010-8000-00AA00389B71}.
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (stored dtype, divisor onto [-1, 1])
_WAV_SAMPLE_FORMATS = {
    (WAVE_FORMAT_PCM, 16): ("<i2", 32768.0),
    (WAVE_FORMAT_PCM, 32): ("<i4", 2147483648.0),
    (WAVE_FORMAT_IEEE_FLOAT, 32): ("<f4", 1.0),
    (WAVE_FORMAT_IEEE_FLOAT, 64): ("<f8", 1.0),
}
_WAV_TAG_NAMES = {WAVE_FORMAT_PCM: "PCM", WAVE_FORMAT_IEEE_FLOAT: "IEEE float", 0x0006: "A-law", 0x0007: "mu-law"}


def _riff_chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body


def write_wav(path, samples: np.ndarray, sample_rate: int):
    """Write mono (1-D) or frames x channels float samples in [-1,1] as a
    32-bit float WAV.

    The bytes equal scipy's `wavfile.write` of the float32 array: RIFF/WAVE,
    an 18-byte IEEE-float `fmt ` chunk, a `fact` chunk holding the frame
    count, then the little-endian samples in one `data` chunk.
    """
    data = np.ascontiguousarray(samples, dtype="<f4")
    channels = 1 if data.ndim == 1 else data.shape[-1]
    if data.ndim not in (1, 2) or channels == 0:
        raise ValueError(f"{path}: WAV samples must be 1-D or frames x channels, got shape {data.shape}")
    rate = int(sample_rate)
    if not 0 < rate < 2**32:
        raise ValueError(f"{path}: sample rate {rate} does not fit a WAV header")
    block_align = 4 * channels
    if data.nbytes > 2**32 - 64:
        raise ValueError(f"{path}: {data.nbytes} bytes of samples do not fit a RIFF file")
    fmt_body = struct.pack("<HHIIHHH", WAVE_FORMAT_IEEE_FLOAT, channels, rate, rate * block_align,
                           block_align, 32, 0)
    head = (b"WAVE" + _riff_chunk(b"fmt ", fmt_body) + _riff_chunk(b"fact", struct.pack("<I", data.shape[0]))
            + b"data" + struct.pack("<I", data.nbytes))
    size = struct.pack("<I", len(head) + data.nbytes)
    atomic_write_bytes(path, b"".join([b"RIFF", size, head, data.view(np.uint8).reshape(-1)]))


def read_wav(path):
    """Read a little-endian RIFF/WAVE file into float64 samples.

    Accepted sample formats: PCM int16 and int32 (divided by 2**15 and
    2**31 into [-1, 1)), IEEE float32 and float64 (taken as they are), and
    WAVE_FORMAT_EXTENSIBLE headers whose subformat is PCM or IEEE float
    with one of those depths. Chunks other than `fmt ` and `data` are
    skipped. Anything else fails as `path: reason`: a file that is not
    RIFF/WAVE, a missing `fmt ` or `data` chunk, a chunk that runs past the
    end of the file, zero channels, another tag or depth (8- or 24-bit PCM,
    A-law, ...), or a data chunk that is not a whole number of frames.

    Returns (samples, sample_rate, channels) with samples flattened
    interleaved for multichannel input.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos < len(raw):
        if len(raw) - pos < 8:
            raise ValueError(f"{path}: truncated chunk header at byte {pos}")
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        if pos + 8 + size > len(raw):
            raise ValueError(f"{path}: {chunk_id.decode('latin-1')!r} chunk at byte {pos} declares {size} bytes, "
                             f"only {len(raw) - pos - 8} remain")
        chunks.setdefault(chunk_id, (pos + 8, size))
        pos += 8 + size + (size & 1)
    for chunk_id in (b"fmt ", b"data"):
        if chunk_id not in chunks:
            raise ValueError(f"{path}: no {chunk_id.decode()!r} chunk")
    fmt_at, fmt_size = chunks[b"fmt "]
    if fmt_size < 16:
        raise ValueError(f"{path}: 'fmt ' chunk has {fmt_size} bytes, expected at least 16")
    tag, channels, sample_rate, _, block_align, bits = struct.unpack_from("<HHIIHH", raw, fmt_at)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if fmt_size < 40:
            raise ValueError(f"{path}: extensible 'fmt ' chunk has {fmt_size} bytes, expected 40")
        guid = raw[fmt_at + 24 : fmt_at + 40]
        if guid[4:] != _SUBFORMAT_GUID_TAIL:
            raise ValueError(f"{path}: unsupported extensible subformat {guid.hex()}")
        (tag,) = struct.unpack("<I", guid[:4])
    if channels == 0:
        raise ValueError(f"{path}: zero channels")
    if (tag, bits) not in _WAV_SAMPLE_FORMATS:
        name = _WAV_TAG_NAMES.get(tag, f"format tag {tag:#06x}")
        raise ValueError(f"{path}: unsupported sample format: {bits}-bit {name}")
    dtype, divisor = _WAV_SAMPLE_FORMATS[tag, bits]
    if block_align != channels * bits // 8:
        raise ValueError(f"{path}: block align {block_align} does not fit {channels} channels of {bits}-bit samples")
    data_at, data_size = chunks[b"data"]
    if data_size % block_align:
        raise ValueError(f"{path}: data chunk of {data_size} bytes is not a whole number of "
                         f"{block_align}-byte frames")
    samples = np.frombuffer(raw, dtype=dtype, count=data_size // (bits // 8), offset=data_at).astype(np.float64) / divisor
    return samples, int(sample_rate), channels


# ------------------------------------------------------------- PPM frames

def write_ppm(path, frame: np.ndarray):
    """Write one H x W x 3 float frame in [0,1] as binary PPM (P6, maxval 255)."""
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("frame must be H x W x 3")
    h, w, _ = frame.shape
    data = np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)
    atomic_write_bytes(path, b"P6\n%d %d\n255\n" % (w, h) + data.tobytes())


def read_ppm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed, followed by a single whitespace byte.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"(\s*(?:#[^\n]*\n)*\s*)(\S+)", raw[pos:])
        if not m:
            raise ValueError(f"{path}: truncated PPM header")
        tokens.append(m.group(2))
        pos += m.end()
    if tokens[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


def write_frame_dir(dirpath, frames: np.ndarray, fps: float):
    """Write frames as frame_%06d.ppm plus an fps.txt sidecar."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_ppm(dirpath / f"frame_{i:06d}.ppm", frame)
    atomic_write_text(dirpath / "fps.txt", fmt(float(fps)) + "\n")


def read_frame_dir(dirpath):
    """Read a frame_%06d.ppm directory; returns (frames array, fps)."""
    dirpath = Path(dirpath)
    fps_file = dirpath / "fps.txt"
    if not fps_file.exists():
        raise FileNotFoundError(f"{dirpath}: missing fps.txt sidecar")
    fps = float(fps_file.read_text().strip())
    paths = sorted(dirpath.glob("frame_*.ppm"))
    if not paths:
        raise FileNotFoundError(f"{dirpath}: no frame_*.ppm files")
    frames = np.stack([read_ppm(p) for p in paths])
    return frames, fps


# ------------------------------------------------------------ EEG epochs

def write_eeg_epoch(dirpath, name, data, baseline, sidecar: dict):
    """Write one epoch as <name>.f32 (channel-major float32, baseline samples
    first) plus a <name>.json sidecar."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    data = np.asarray(data, dtype=np.float32)
    if baseline is not None:
        baseline = np.asarray(baseline, dtype=np.float32)
        blob = np.concatenate([baseline, data], axis=1)
        baseline_offset = baseline.shape[1]
    else:
        blob = data
        baseline_offset = 0
    meta = {
        "channels": int(data.shape[0]),
        "sample_rate": int(sidecar.get("sample_rate", 128)),
        "samples": int(data.shape[1]),
        "stimulus_id": str(sidecar.get("stimulus_id", name)),
        "clean": bool(sidecar.get("clean", True)),
        "baseline_offset": int(baseline_offset),
    }
    for extra in ("label", "quadrant"):
        if extra in sidecar and sidecar[extra] is not None:
            meta[extra] = sidecar[extra]
    atomic_write_bytes(dirpath / f"{name}.f32", blob.astype("<f4").tobytes())
    atomic_write_text(dirpath / f"{name}.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_eeg_epoch(bin_path):
    """Read one epoch binary + sidecar; returns (data, baseline, meta). A
    non-finite sample fails as `path: reason`, naming its channel."""
    bin_path = Path(bin_path)
    meta = json.loads(bin_path.with_suffix(".json").read_text())
    channels = int(meta["channels"])
    samples = int(meta["samples"])
    offset = int(meta.get("baseline_offset", 0))
    blob = np.frombuffer(bin_path.read_bytes(), dtype="<f4")
    expected = channels * (samples + offset)
    if blob.size != expected:
        raise ValueError(f"{bin_path}: expected {expected} floats, found {blob.size}")
    blob = blob.reshape(channels, samples + offset).astype(np.float64)
    bad = ~np.isfinite(blob).all(axis=1)
    if bad.any():
        raise ValueError(f"{bin_path}: channel {int(bad.argmax())} holds a non-finite sample")
    baseline = blob[:, :offset] if offset else None
    return blob[:, offset:], baseline, meta


def list_eeg_epochs(dirpath):
    return sorted(Path(dirpath).glob("*.f32"))


# ------------------------------------------------------------- CSV tables

def write_csv(path, rows, comment=None):
    """Write `rows` as RFC 4180 CSV with LF row ends, after a `# comment` line if
    given. A field is quoted only when it holds a comma, a quote or a newline. The
    reader would split a row at a carriage return, so a field holding one fails
    as `path:line: reason` and nothing is written.

    A row of Python floats alone is joined directly: csv.writer renders a
    float as its repr, which never needs quoting, and the join is faster."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        if all(type(v) is float for v in row):  # not isinstance: np.float64's repr is "np.float64(...)"
            buf.write(",".join(map(repr, row)) + "\n")
        else:
            writer.writerow(row)
    text = buf.getvalue()
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ValueError(f"{path}:{line}: a field holds a carriage return, which the CSV tables cannot carry")
    atomic_write_text(path, text)


def write_feature_csv(path, features: FeatureMatrix):
    """item_id,label,quadrant,then one column per feature dimension (f0, f1, ...)."""
    header = ["item_id", "label", "quadrant", *(f"f{j}" for j in range(features.n_dims))]
    write_csv(path, [header, *(
        [iid, label.value, quad.code, *row]
        for iid, label, quad, row in zip(features.item_ids, features.labels, features.quadrants, features.X.tolist())
    )])


def _read_rows(path, row_parser):
    """Each non-empty data row of CSV `path`, parsed by the function that
    `row_parser(header)` returns after checking the header. A row with the
    wrong field count, or that the parser rejects, fails as `path:line: why`,
    an error of the parser's own class."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        parse = row_parser(header)
        out = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, found {len(row)}")
                out.append(parse(row))
            except ValueError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    return out


def _posterior(text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:  # also rejects nan
        raise ValueError(f"posterior {text!r} is not a number in [0, 1]")
    return p


def read_feature_csv(path) -> FeatureMatrix:
    seen = set()

    def row_parser(header):
        if header[:3] != ["item_id", "label", "quadrant"]:
            raise ValueError(f"{path}: expected header item_id,label,quadrant,...")
        return parse

    def parse(row):
        if row[0] in seen:
            raise ValueError(f"duplicate item id {row[0]!r}")
        seen.add(row[0])
        values = [float(v) for v in row[3:]]
        if not all(map(math.isfinite, values)):
            bad = next(text for text, v in zip(row[3:], values) if not math.isfinite(v))
            raise ValueError(f"feature value {bad!r} is not finite")
        return row[0], AffectLabel.from_code(row[1]), Quadrant.from_code(row[2]), values

    rows = _read_rows(path, row_parser)
    ids, labels, quads, X = zip(*rows) if rows else ((), (), (), ())
    return FeatureMatrix(np.asarray(X, dtype=float), list(labels), list(quads), list(ids))


def write_descriptor_csv(path, series):
    """second index column plus one named column per descriptor."""
    write_csv(path, [["second", *series.names], *([s, *row] for s, row in enumerate(series.values.tolist()))])


def write_spectrogram_csv(path, sg):
    """Magnitude rows preceded by a parameter header line."""
    comment = (
        f"window_ms={fmt(sg.window_ms)},hop_ms={fmt(sg.hop_ms)},"
        f"sample_rate={sg.sample_rate},frames={sg.magnitudes.shape[0]},"
        f"bins={sg.magnitudes.shape[1]}"
    )
    write_csv(path, sg.magnitudes.tolist(), comment=comment)


def write_ratings_csv(path, matrices):
    """Serialize RatingMatrix objects back to rater_id,item_id,attribute,score rows."""
    rows = [["rater_id", "item_id", "attribute", "score"]]
    for attr in sorted(matrices):
        m = matrices[attr]
        for rid, scores in zip(m.rater_ids, m.values.tolist()):
            rows.extend([rid, iid, attr, v] for iid, v in zip(m.item_ids, scores) if math.isfinite(v))
    write_csv(path, rows)


def load_ratings_csv(path) -> dict[str, RatingMatrix]:
    """rater_id,item_id,attribute,score rows -> one RatingMatrix per attribute,
    raters and items in order of first appearance. An unknown attribute, a
    repeated cell and a score off its attribute's scale (`ScaleViolationError`;
    nan included) each fail as `path:line: reason`."""
    scales = {"valence": VALENCE_SCALE, "arousal": AROUSAL_SCALE}
    cells: dict[str, dict[tuple[str, str], float]] = {}

    def row_parser(header):
        if header[:4] != ["rater_id", "item_id", "attribute", "score"]:
            raise ValueError(f"{path}:1: expected header rater_id,item_id,attribute,score")
        return parse

    def parse(row):
        rater, item, attr, text = row[:4]
        if attr not in scales:
            raise ValueError(f"unknown attribute {attr!r}")
        score = float(text)
        lo, hi = scales[attr]
        if not lo <= score <= hi:  # also rejects nan
            raise ScaleViolationError(
                f"rating {text!r} at rater {rater!r}, item {item!r} outside [{lo}, {hi}] ({attr})"
            )
        scores = cells.setdefault(attr, {})
        if (rater, item) in scores:
            raise ValueError(f"duplicate {attr} score for rater {rater!r} and item {item!r}")
        scores[rater, item] = score

    _read_rows(path, row_parser)
    out = {}
    for attr, scores in cells.items():
        rpos = {r: k for k, r in enumerate(dict.fromkeys(r for r, _ in scores))}
        ipos = {i: k for k, i in enumerate(dict.fromkeys(i for _, i in scores))}
        grid = np.full((len(rpos), len(ipos)), np.nan)
        grid[[rpos[r] for r, _ in scores], [ipos[i] for _, i in scores]] = list(scores.values())
        out[attr] = RatingMatrix(grid, *scales[attr], attr, rater_ids=list(rpos), item_ids=list(ipos))
    return out


def read_segment_posteriors_csv(path):
    """ad_id,(anything...),p_high[,p_low] rows -> ordered {ad_id: [p_high...]}."""
    def row_parser(header):
        cols = {name: k for k, name in enumerate(header)}
        if "ad_id" not in cols or "p_high" not in cols:
            raise ValueError(f"{path}: need ad_id and p_high columns")
        return lambda row: (row[cols["ad_id"]], _posterior(row[cols["p_high"]]))

    out: dict[str, list[float]] = {}
    for ad_id, p_high in _read_rows(path, row_parser):
        out.setdefault(ad_id, []).append(p_high)
    return out


def write_predictions_csv(path, item_ids, truths, posteriors):
    """Out-of-fold or test predictions: item_id,truth,p_high,p_low."""
    posteriors = np.asarray(posteriors, dtype=float)
    write_csv(path, [["item_id", "truth", "p_high", "p_low"], *(
        [iid, truth.value, p_high, p_low]
        for iid, truth, (p_high, p_low) in zip(item_ids, truths, posteriors.tolist())
    )])


def read_predictions_csv(path):
    def row_parser(header):
        if header != ["item_id", "truth", "p_high", "p_low"]:
            raise ValueError(f"{path}: expected header item_id,truth,p_high,p_low")
        return lambda row: (row[0], AffectLabel.from_code(row[1]), (_posterior(row[2]), _posterior(row[3])))

    rows = _read_rows(path, row_parser)
    return [r[0] for r in rows], [r[1] for r in rows], np.asarray([r[2] for r in rows], dtype=float)
