"""Dense layer parameters, activations, and Xavier initialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError

RELU = "relu"
EXU = "exu"
IDENTITY = "identity"

ACTIVATIONS = (RELU, EXU, IDENTITY)

# Logits are clamped to this range before any exponential.
LOGIT_CLAMP = 30.0


def as_rng(rng: int | np.random.Generator, *tags: int) -> np.random.Generator:
    """Build a Generator from an int seed plus derivation tags, or pass one through."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng([int(rng), *tags])


@dataclass
class LayerParams:
    """Weights (out_dim x in_dim) and biases (out_dim) of one dense layer."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeMismatchError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeMismatchError(
                f"biases shape {self.biases.shape} does not match out_dim {self.weights.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def xavier_init(in_dim: int, out_dim: int, rng: int | np.random.Generator) -> LayerParams:
    """Uniform Xavier/Glorot weights in [-sqrt(6/(in+out)), +sqrt(6/(in+out))], zero biases."""
    if in_dim < 1 or out_dim < 1:
        raise ShapeMismatchError(f"layer dims must be >= 1, got ({in_dim}, {out_dim})")
    gen = as_rng(rng)
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    weights = gen.uniform(-bound, bound, size=(out_dim, in_dim))
    return LayerParams(weights=weights, biases=np.zeros(out_dim))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax; outputs sum to 1 and every component is strictly inside (0, 1).

    The shifted exponent is floored at -LOGIT_CLAMP: a wider spread would round
    components to exactly 0 or 1 in double precision.
    """
    z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    shifted = np.maximum(z - z.max(axis=-1, keepdims=True), -LOGIT_CLAMP)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    if kind == EXU:
        # capped ReLU: the exp scaling already happened in the pre-activation
        return np.clip(z, 0.0, 1.0)
    if kind == IDENTITY:
        return z
    raise ValueError(f"unknown activation {kind!r}")


def activation_grad(kind: str, z: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. the pre-activation z, given the upstream gradient."""
    if kind == RELU:
        return upstream * (z > 0.0)
    if kind == EXU:
        return upstream * ((z > 0.0) & (z < 1.0))
    if kind == IDENTITY:
        return upstream
    raise ValueError(f"unknown activation {kind!r}")


def layer_forward(params: LayerParams, kind: str, x: np.ndarray) -> np.ndarray:
    """Pre-activation of one layer for a (batch, in_dim) input.

    Standard layers compute x @ W.T + b. ExU layers compute
    sum_i exp(W_ji) * (x_i - b_j): the per-unit bias shifts the input and the
    weights enter through their exponential.
    """
    if x.shape[-1] != params.in_dim:
        raise ShapeMismatchError(
            f"input has {x.shape[-1]} features, layer expects {params.in_dim}"
        )
    if kind == EXU:
        ew = np.exp(np.clip(params.weights, -LOGIT_CLAMP, LOGIT_CLAMP))
        return x @ ew.T - params.biases * ew.sum(axis=1)
    return x @ params.weights.T + params.biases


def layer_backward(
    params: LayerParams, kind: str, x: np.ndarray, dz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (dW, db, dx) for one layer given dLoss/dPreactivation."""
    if kind == EXU:
        ew = np.exp(np.clip(params.weights, -LOGIT_CLAMP, LOGIT_CLAMP))
        col = dz.sum(axis=0)
        dw = ew * (dz.T @ x - params.biases[:, None] * col[:, None])
        db = -ew.sum(axis=1) * col
        dx = dz @ ew
        return dw, db, dx
    dw = dz.T @ x
    db = dz.sum(axis=0)
    dx = dz @ params.weights
    return dw, db, dx
