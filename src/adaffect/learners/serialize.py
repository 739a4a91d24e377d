"""Model persistence as structured JSON: kind, hyperparameters, and explicit
full-precision numeric arrays, with a format version field.

Each model class lays out its own fields (`to_dict`/`from_dict`); this
module adds the version, writes every array as nested lists of floats, and
picks the class from the file's kind.
"""

from __future__ import annotations

import json

import numpy as np

from ..fileio import atomic_write_text, field_errors, read_json
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
    """The model saved at `path`; a malformed file fails as `path[:line]: reason`."""
    doc = read_json(path, dict)
    with field_errors(path):
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        if doc["kind"] not in _MODEL_CLASSES:
            raise ValueError(f"unknown model kind {doc['kind']!r}")
        return _MODEL_CLASSES[doc["kind"]].from_dict(doc)
