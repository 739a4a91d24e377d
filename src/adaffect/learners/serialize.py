"""Model persistence as structured JSON: kind, hyperparameters, and explicit
full-precision numeric arrays, with a format version field.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..core import Quadrant
from ..fileio import atomic_write_text
from .cnn import CnnConfig, CnnModel
from .mtl import MtlModel, build_task_graph
from .shallow import SHALLOW_KINDS, ShallowModel

FORMAT_VERSION = 1


def _arr(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def model_to_dict(model) -> dict:
    if isinstance(model, ShallowModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": model.kind,
            "hyperparams": model.hyperparams,
            "n_dims": model.n_dims,
            "w": _arr(model.w),
            "b": model.b,
            "support_vectors": _arr(model.support_vectors),
            "dual_coef": _arr(model.dual_coef),
            "gamma": model.gamma,
            "calibration": list(model.calibration),
        }
        return doc
    if isinstance(model, MtlModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "mtl",
            "hyperparams": {
                "alpha": model.alpha,
                "beta": model.beta,
                "gamma": model.gamma,
                "fit_intercept": model.fit_intercept,
            },
            "tasks": [t.code for t in model.graph.tasks],
            "edges": [list(e) for e in model.graph.edges],
            "W": _arr(model.W),
            "bias": _arr(model.bias),
        }
    if isinstance(model, CnnModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "cnn",
            "hyperparams": dataclasses.asdict(model.config),
            "input_dim": model.input_dim,
            "params": {k: _arr(v) for k, v in model.params.items()},
        }
    raise TypeError(f"cannot serialize a {type(model).__name__}")


def model_from_dict(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = doc["kind"]
    if kind in SHALLOW_KINDS:
        return ShallowModel(
            kind=kind,
            hyperparams=doc["hyperparams"],
            n_dims=int(doc["n_dims"]),
            w=None if doc["w"] is None else np.asarray(doc["w"], dtype=float),
            b=float(doc["b"]),
            support_vectors=None
            if doc["support_vectors"] is None
            else np.asarray(doc["support_vectors"], dtype=float),
            dual_coef=None if doc["dual_coef"] is None else np.asarray(doc["dual_coef"], dtype=float),
            gamma=None if doc["gamma"] is None else float(doc["gamma"]),
            calibration=tuple(doc["calibration"]),
        )
    if kind == "mtl":
        graph = build_task_graph([Quadrant.from_code(c) for c in doc["tasks"]])
        if [tuple(e) for e in doc["edges"]] != graph.edges:
            raise ValueError(f"mtl model edges {doc['edges']} differ from the task graph's {graph.edges}")
        hyper = doc["hyperparams"]
        return MtlModel(
            W=np.asarray(doc["W"], dtype=float),
            bias=np.asarray(doc["bias"], dtype=float),
            graph=graph,
            alpha=float(hyper["alpha"]),
            beta=float(hyper["beta"]),
            gamma=float(hyper["gamma"]),
            fit_intercept=bool(hyper.get("fit_intercept", False)),
        )
    if kind == "cnn":
        config = CnnConfig(**doc["hyperparams"])
        model = CnnModel(config=config, input_dim=int(doc["input_dim"]))
        model.params = {k: np.asarray(v, dtype=float) for k, v in doc["params"].items()}
        return model
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path):
    atomic_write_text(path, json.dumps(model_to_dict(model), sort_keys=True) + "\n")


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text()))
