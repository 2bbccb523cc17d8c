"""Classification losses: sigmoid and softmax cross-entropy with analytic gradients."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from .layers import LOGIT_CLAMP

BINARY = "binary"
MULTICLASS = "multiclass"


def cross_entropy(logits: np.ndarray, targets: np.ndarray, task: str) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch, and the class probabilities it read.

    The logits are clipped to [-LOGIT_CLAMP, LOGIT_CLAMP] once. Binary logits
    are (batch, 1) and give P(class 1) as their sigmoid, in a (batch, 1) array.
    Multiclass logits give the row-wise softmax, whose shifted logits are
    floored at -LOGIT_CLAMP: a wider spread would round components to exactly
    0 or 1 in double precision. Every probability is thus strictly inside (0, 1).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets)
    if z.ndim != 2 or z.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"logits {z.shape} and targets {y.shape} do not align")
    n = z.shape[0]
    zc = z.clip(-LOGIT_CLAMP, LOGIT_CLAMP)
    if task == BINARY:
        if z.shape[1] != 1:
            raise ShapeMismatchError(f"binary task expects 1 logit column, got {z.shape[1]}")
        if np.logical_or.reduce((y != 0) & (y != 1), axis=None):
            raise ValueError("binary targets must be 0 or 1")
        losses = np.logaddexp(0.0, zc) - y.astype(np.float64)[:, None] * zc
        return float(np.add.reduce(losses, axis=None) / n), 1.0 / (1.0 + np.exp(-zc))
    if task == MULTICLASS:
        c = z.shape[1]
        if np.logical_or.reduce((y < 0) | (y >= c), axis=None):
            raise ValueError(f"multiclass targets must lie in [0, {c})")
        top = np.maximum.reduce(zc, axis=1, keepdims=True)
        shifted = zc - top
        e = np.exp(shifted)
        total = np.add.reduce(e, axis=1, keepdims=True)
        losses = np.log(total[:, 0]) + top[:, 0] - zc[np.arange(n), y]
        # the probabilities reuse the exponentials, unless a shifted logit lies
        # below the floor (or is NaN)
        if not np.minimum.reduce(shifted, axis=None, initial=0.0) >= -LOGIT_CLAMP:
            e = np.exp(np.maximum(shifted, -LOGIT_CLAMP))
            total = np.add.reduce(e, axis=1, keepdims=True)
        return float(np.add.reduce(losses) / n), np.divide(e, total, out=e)
    raise ValueError(f"unknown task {task!r}")


def batch_loss_and_grad(logits: np.ndarray, targets: np.ndarray, task: str) -> tuple[float, np.ndarray]:
    """`cross_entropy`'s loss and its gradient with the batch mean folded in:
    (probabilities - one-hot targets) / n, formed in the probabilities' array."""
    loss, grad = cross_entropy(logits, targets, task)
    y = np.asarray(targets)
    if task == BINARY:
        grad -= y.astype(np.float64)[:, None]
    else:
        # grad[rows, y] -= 1.0, without its buffering
        np.subtract.at(grad, (np.arange(len(y)), y), 1.0)
    grad /= len(y)
    return loss, grad
