"""Plain dense network over all features jointly; the non-additive comparison model."""

from __future__ import annotations

import numpy as np

from .nn import BINARY, INFER, MULTICLASS, RELU, Mlp, as_rng, make_mlp
from .nn.mlp import FlatParams
from .nam import _mlp_from_dict, _mlp_to_dict, MODEL_SCHEMA_VERSION


class DnnModel(FlatParams):
    """Mlp wrapper exposing the same training surface as NamModel; its
    parameter vector is the Mlp's."""

    kind = "dnn"

    def __init__(self, mlp: Mlp, task: str):
        if task not in (BINARY, MULTICLASS):
            raise ValueError(f"unknown task {task!r}")
        self.mlp = mlp
        self.task = task

    @property
    def n_features(self) -> int:
        return self.mlp.in_dim

    @property
    def out_dim(self) -> int:
        return self.mlp.out_dim

    @property
    def params(self) -> np.ndarray:
        return self.mlp.params

    @property
    def layout(self) -> tuple:
        """What two models must share for their parameter vectors to be averaged."""
        shapes = tuple(layer.weights.shape for layer in self.mlp.layers)
        return (self.kind, self.task, shapes, tuple(self.mlp.activations))

    def param_tensors(self) -> list[np.ndarray]:
        return self.mlp.param_tensors()

    def set_params(self, vector: np.ndarray) -> None:
        self.mlp.set_params(vector)

    def copy(self) -> "DnnModel":
        return DnnModel(self.mlp.copy(), self.task)

    def forward_batch(self, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0):
        return self.mlp.forward(x, mode, rng)

    def backward_batch(self, cache, dlogits: np.ndarray) -> list[np.ndarray]:
        grads, _ = self.mlp.backward(cache, dlogits)
        return grads

    def input_gradients(self, x: np.ndarray, output_grad: np.ndarray) -> np.ndarray:
        _, cache = self.mlp.forward(x, INFER)
        _, dx = self.mlp.backward(cache, output_grad)
        return dx

    def to_dict(self, feature_names: list[str]) -> dict:
        doc = _mlp_to_dict(self.mlp)
        doc.update(
            schema_version=MODEL_SCHEMA_VERSION,
            kind=self.kind,
            task=self.task,
            feature_names=list(feature_names),
        )
        return doc


def build_dnn(
    n_features: int,
    task: str,
    n_classes: int = 2,
    hidden_layers: int = 2,
    hidden_units: int = 64,
    hidden_activation: str = RELU,
    dropout_rate: float = 0.0,
    rng: int | np.random.Generator = 0,
) -> DnnModel:
    out_dim = 1 if task == BINARY else n_classes
    mlp = make_mlp(
        n_features, [hidden_units] * hidden_layers, out_dim, hidden_activation, dropout_rate, as_rng(rng)
    )
    return DnnModel(mlp, task)


def dnn_from_dict(doc: dict) -> tuple[DnnModel, list[str]]:
    return DnnModel(_mlp_from_dict(doc), doc["task"]), list(doc["feature_names"])
