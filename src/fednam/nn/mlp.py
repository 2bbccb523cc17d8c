"""Fixed-shape multilayer perceptron with manual backprop and inverted dropout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError, StaleCacheError
from .layers import (
    ACTIVATIONS,
    IDENTITY,
    RELU,
    LayerParams,
    activate,
    activation_grad,
    as_rng,
    layer_backward,
    layer_forward,
    xavier_init,
)

TRAIN = "train"
INFER = "infer"


@dataclass
class ForwardCache:
    """Per-layer traces recorded by forward, consumed once by backward."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    masks: list[np.ndarray | None]
    version: int


def pack(tensors: list[np.ndarray], out: np.ndarray) -> list[np.ndarray]:
    """Copy `tensors` into consecutive slices of the vector `out`; return views
    of those slices in the tensors' shapes."""
    views, offset = [], 0
    for t in tensors:
        view = out[offset : offset + t.size].reshape(t.shape)
        view[...] = t
        views.append(view)
        offset += t.size
    if offset != out.size:
        raise ShapeMismatchError(f"{offset} parameters do not fill a vector of {out.size}")
    return views


class FlatParams:
    """Parameters held in one contiguous float64 vector `params`.

    Every tensor of `param_tensors()` is a view into `params`, laid out in
    that order. `set_params` is the one write path: it copies a whole vector
    in and bumps `version`, so caches from earlier forward passes go stale.
    """

    params: np.ndarray
    version: int

    def param_tensors(self) -> list[np.ndarray]:
        raise NotImplementedError

    def set_params(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.params.shape:
            raise ShapeMismatchError(
                f"parameter vector shape {vector.shape} does not match {self.params.shape}"
            )
        self.params[...] = vector
        self.version += 1

    def set_param_tensors(self, tensors: list[np.ndarray]) -> None:
        if [np.shape(t) for t in tensors] != [t.shape for t in self.param_tensors()]:
            raise ShapeMismatchError("tensor shapes do not match this architecture")
        self.set_params(np.concatenate(tensors, axis=None))

    def copy_params_from(self, other: "FlatParams") -> None:
        self.set_params(other.params)


class Mlp(FlatParams):
    """A stack of dense layers with one activation per layer.

    Dropout (inverted, rate in [0, 1)) applies after hidden activations only,
    never to the output layer. Inference is deterministic.
    """

    def __init__(self, layers: list[LayerParams], activations: list[str], dropout_rate: float = 0.0):
        if len(layers) != len(activations):
            raise ShapeMismatchError("need exactly one activation per layer")
        if not layers:
            raise ShapeMismatchError("an Mlp needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeMismatchError(
                    f"layer out_dim {a.out_dim} does not chain into next in_dim {b.in_dim}"
                )
        for kind in activations:
            if kind not in ACTIVATIONS:
                raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self.layers = layers
        self.activations = list(activations)
        self.dropout_rate = float(dropout_rate)
        self.version = 0
        self.bind(np.empty(sum(p.weights.size + p.biases.size for p in layers)))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def param_tensors(self) -> list[np.ndarray]:
        """Live parameter arrays in a fixed order: W0, b0, W1, b1, ..."""
        return [t for p in self.layers for t in (p.weights, p.biases)]

    def bind(self, params: np.ndarray) -> None:
        """Move the parameters into the vector `params` and view them from there."""
        views = pack(self.param_tensors(), params)
        for layer, w, b in zip(self.layers, views[0::2], views[1::2]):
            layer.weights, layer.biases = w, b
        self.params = params

    def copy(self) -> "Mlp":
        """An independent Mlp: the constructor copies the values into a fresh vector."""
        layers = [LayerParams(p.weights, p.biases) for p in self.layers]
        return Mlp(layers, list(self.activations), self.dropout_rate)

    def forward(
        self,
        x: np.ndarray,
        mode: str = INFER,
        rng: int | np.random.Generator = 0,
    ) -> tuple[np.ndarray, ForwardCache]:
        """Run the net on a (batch, in_dim) or (in_dim,) input.

        Returns the output with matching batch shape plus a cache for backward.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatchError(f"input shape {x.shape} incompatible with in_dim {self.in_dim}")
        gen = as_rng(rng) if mode == TRAIN and self.dropout_rate > 0.0 else None

        inputs, preacts, masks = [], [], []
        h = x
        last = len(self.layers) - 1
        for i, (params, kind) in enumerate(zip(self.layers, self.activations)):
            inputs.append(h)
            z = layer_forward(params, kind, h)
            a = activate(kind, z)
            preacts.append(z)
            if gen is not None and i < last:
                keep = 1.0 - self.dropout_rate
                mask = (gen.random(a.shape) < keep) / keep
                masks.append(mask)
                h = a * mask
            else:
                masks.append(None)
                h = a
        cache = ForwardCache(inputs, preacts, masks, self.version)
        return (h[0] if squeeze else h), cache

    def backward(
        self, cache: ForwardCache, output_grad: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Backpropagate dLoss/dOutput; returns (param grads aligned with
        param_tensors(), dLoss/dInput). Dropout masks from the forward pass are reused.
        """
        if cache.version != self.version:
            raise StaleCacheError("cache was produced by an earlier version of the parameters")
        g = np.asarray(output_grad, dtype=np.float64)
        squeeze = g.ndim == 1
        if squeeze:
            g = g[None, :]
        expected = (cache.inputs[0].shape[0], self.out_dim)
        if g.shape != expected:
            raise ShapeMismatchError(f"output_grad shape {g.shape} does not match output {expected}")
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            mask = cache.masks[i]
            if mask is not None:
                g = g * mask
            dz = activation_grad(self.activations[i], cache.preacts[i], g)
            dw, db, g = layer_backward(self.layers[i], self.activations[i], cache.inputs[i], dz)
            grads[2 * i] = dw
            grads[2 * i + 1] = db
        return grads, (g[0] if squeeze else g)


def make_mlp(
    in_dim: int,
    hidden: list[int],
    out_dim: int,
    hidden_activation: str = RELU,
    dropout_rate: float = 0.0,
    rng: int | np.random.Generator = 0,
) -> Mlp:
    """Xavier-initialized MLP with Identity output activation."""
    gen = as_rng(rng)
    dims = [in_dim, *hidden, out_dim]
    layers = [xavier_init(dims[i], dims[i + 1], gen) for i in range(len(dims) - 1)]
    activations = [hidden_activation] * len(hidden) + [IDENTITY]
    return Mlp(layers, activations, dropout_rate)
