"""Plain dense network over all features jointly; the non-additive comparison model."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .nam import MODEL_SCHEMA_VERSION, bank_from_dicts, bank_to_dicts
from .nn import (
    BINARY,
    IDENTITY,
    INFER,
    RELU,
    BankCache,
    NetBank,
    bank_backward,
    bank_forward,
    xavier_bank,
)


class DnnModel(NetBank):
    """One dense net from all features to the logits: a bank of one net,
    with the same training surface as NamModel."""

    kind = "dnn"

    def __init__(self, weights, biases, activations, dropout_rate, task):
        super().__init__(weights, biases, activations, dropout_rate, task)
        if self.weights[0].shape[0] != 1:
            raise ShapeMismatchError("a DnnModel is a bank of exactly one net")

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[2]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward_batch(
        self, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
    ) -> tuple[np.ndarray, BankCache]:
        """Logits for a (batch, n_features) input, and the cache for backward."""
        h, cache = bank_forward(self, _bank_input(self, x), mode, rng)
        return h[0], cache

    def backward_batch(
        self, cache: BankCache, dlogits: np.ndarray, out: np.ndarray | None = None
    ) -> list[np.ndarray]:
        grads, _ = dnn_backward(self, cache, dlogits, out)
        return grads

    def to_dict(self, feature_names: list[str]) -> dict:
        doc = bank_to_dicts(self)[0]
        doc.update(
            schema_version=MODEL_SCHEMA_VERSION,
            kind=self.kind,
            task=self.task,
            feature_names=list(feature_names),
        )
        return doc


def _bank_input(model: DnnModel, x: np.ndarray) -> np.ndarray:
    """A (batch, n_features) input as the (1, batch, n_features) input of the bank."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeMismatchError(f"input shape {x.shape} incompatible with in_dim {model.n_features}")
    return x[None]


def dnn_backward(
    model: DnnModel, cache: BankCache, dlogits: np.ndarray, out: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients as views of one vector aligned with `param_tensors()`, and dLoss/dInput.

    Every entry of the vector, `out` or a new one, is written.
    """
    g = np.asarray(dlogits, dtype=np.float64)
    expected = (cache.x.shape[1], model.out_dim)
    if g.shape != expected:
        raise ShapeMismatchError(f"output_grad shape {g.shape} does not match output {expected}")
    grads = model.split(np.empty_like(model.params) if out is None else out)
    dx = bank_backward(model, cache, g[None], grads)
    return grads, dx[0]


def build_dnn(
    n_features: int,
    task: str,
    n_classes: int = 2,
    hidden_layers: int = 2,
    hidden_units: int = 64,
    rng: int | np.random.Generator = 0,
) -> DnnModel:
    """Xavier-initialized ReLU net without dropout."""
    out_dim = 1 if task == BINARY else n_classes
    weights, biases = xavier_bank(1, [n_features, *[hidden_units] * hidden_layers, out_dim], rng)
    return DnnModel(weights, biases, [RELU] * hidden_layers + [IDENTITY], 0.0, task)


def dnn_from_dict(doc: dict) -> tuple[DnnModel, list[str]]:
    return DnnModel(*bank_from_dicts([doc]), doc["task"]), list(doc["feature_names"])
