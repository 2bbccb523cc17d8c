"""Plain dense network over all features jointly; the non-additive comparison model."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
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

    def __init__(self, dims, activations, dropout_rate, task):
        super().__init__(1, dims, activations, dropout_rate, task)

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
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ShapeMismatchError(f"input shape {x.shape} incompatible with in_dim {self.n_features}")
        h, cache = bank_forward(self, x[None], mode, rng)
        return h[0], cache

    def backward_batch(
        self, cache: BankCache, dlogits: np.ndarray, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        grads, _ = dnn_backward(self, cache, dlogits, out, input_grad=False)
        return grads


def dnn_backward(
    model: DnnModel,
    cache: BankCache,
    dlogits: np.ndarray,
    out: list[np.ndarray] | None = None,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Gradients in `out`, views laid out like `param_tensors()` (a new
    vector's when None), and dLoss/dInput (None without `input_grad`).

    Every entry of the views is written; `out` is the list returned.
    """
    g = np.asarray(dlogits, dtype=np.float64)
    expected = (cache.acts[0].shape[1], model.out_dim)
    if g.shape != expected:
        raise ShapeMismatchError(f"output_grad shape {g.shape} does not match output {expected}")
    grads = model.split(np.empty_like(model.params)) if out is None else out
    dx = bank_backward(model, cache, g[None], grads, input_grad)
    return grads, None if dx is None else dx[0]


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
    dims = [n_features, *[hidden_units] * hidden_layers, out_dim]
    model = DnnModel(dims, [RELU] * hidden_layers + [IDENTITY], 0.0, task)
    xavier_bank(model, rng)
    return model

