"""Activations and Xavier initialization of dense layers."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError

RELU = "relu"
EXU = "exu"
IDENTITY = "identity"

ACTIVATIONS = (RELU, EXU, IDENTITY)

# Logits are clamped to this range before any exponential.
LOGIT_CLAMP = 30.0


def as_rng(rng: int | np.random.Generator) -> np.random.Generator:
    """Build a Generator from an int seed, or pass one through."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))


def xavier_init(in_dim: int, out_dim: int, rng: int | np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot (out_dim, in_dim) weights in [-sqrt(6/(in+out)), +sqrt(6/(in+out))]."""
    if in_dim < 1 or out_dim < 1:
        raise ShapeMismatchError(f"layer dims must be >= 1, got ({in_dim}, {out_dim})")
    gen = as_rng(rng)
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return gen.uniform(-bound, bound, size=(out_dim, in_dim))


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
