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


def activation_grad(kind: str, h: np.ndarray, upstream: np.ndarray, cap: np.ndarray | float) -> np.ndarray:
    """dLoss/dz read from a layer's output h = activate(kind, z) * s, where `cap`
    is s: the dropout mask, or 1.0 without dropout. Where s = 1 / keep >= 1,
    h > 0 exactly where z > 0, and h < s exactly where z < 1; where s = 0,
    `upstream` is already +-0, which keeps its sign."""
    if kind == RELU:
        return upstream * (h > 0.0)
    if kind == EXU:
        return upstream * ((h > 0.0) & (h < cap))
    return upstream  # IDENTITY
