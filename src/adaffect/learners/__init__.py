from .shallow import ShallowModel, shallow_fit, shallow_predict_proba
from .mtl import MtlModel, TaskGraph, build_task_graph, mtl_fit, mtl_predict
from .cnn import CnnConfig, CnnModel, cnn_train, cnn_predict_proba
from .serialize import load_model, save_model

__all__ = [
    "ShallowModel",
    "shallow_fit",
    "shallow_predict_proba",
    "MtlModel",
    "TaskGraph",
    "build_task_graph",
    "mtl_fit",
    "mtl_predict",
    "CnnConfig",
    "CnnModel",
    "cnn_train",
    "cnn_predict_proba",
    "load_model",
    "save_model",
]
