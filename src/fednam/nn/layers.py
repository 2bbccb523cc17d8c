"""Activations and Xavier initialization of dense layers."""

from __future__ import annotations

import numpy as np

RELU = "relu"
EXU = "exu"
IDENTITY = "identity"

# a bank checks its activations against these when it is built
ACTIVATIONS = (RELU, EXU, IDENTITY)

# Logits and ExU weights are clamped to this range before any exponential.
LOGIT_CLAMP = 30.0


def xavier_init(weights: np.ndarray, rng: int | np.random.Generator) -> np.ndarray:
    """Fill (out, in) `weights` in place with uniform Xavier/Glorot draws in
    [-sqrt(6/(in+out)), +sqrt(6/(in+out))) and return it. The draws land in memory
    order, which is `uniform`'s order for a C-contiguous array, with `uniform`'s
    bits: `low + (high - low) * u` for each u the stream gives. NumPy rejects a
    strided view with ValueError."""
    out_dim, in_dim = weights.shape
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    np.random.default_rng(rng).random(out=weights)
    weights *= 2 * bound
    weights -= bound
    return weights


def activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    if kind == EXU:
        # capped ReLU: the exp scaling already happened in the pre-activation
        return np.clip(z, 0.0, 1.0)
    return z  # IDENTITY


def activation_grad(kind: str, z: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. the pre-activation z, given the upstream gradient."""
    if kind == RELU:
        return upstream * (z > 0.0)
    if kind == EXU:
        return upstream * ((z > 0.0) & (z < 1.0))
    return upstream  # IDENTITY
