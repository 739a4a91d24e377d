"""Model persistence as structured JSON: kind, hyperparameters, and explicit
full-precision numeric arrays, with a format version field.

Each model class lays out its own fields (`to_dict`/`from_dict`); this
module adds the version, writes every array as nested lists of floats, and
picks the class from the file's kind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..fileio import atomic_write_text
from .cnn import CnnModel
from .mtl import MtlModel
from .shallow import SHALLOW_KINDS, ShallowModel

FORMAT_VERSION = 1

_MODEL_CLASSES = {**dict.fromkeys(SHALLOW_KINDS, ShallowModel), "mtl": MtlModel, "cnn": CnnModel}


def save_model(model, path):
    doc = {"format_version": FORMAT_VERSION, **model.to_dict()}
    text = json.dumps(doc, sort_keys=True, default=lambda a: np.asarray(a, dtype=float).tolist())
    atomic_write_text(path, text + "\n")


def load_model(path):
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    if doc["kind"] not in _MODEL_CLASSES:
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    return _MODEL_CLASSES[doc["kind"]].from_dict(doc)
