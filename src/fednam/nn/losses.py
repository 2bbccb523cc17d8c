"""Classification losses: sigmoid and softmax cross-entropy with analytic gradients."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from .layers import LOGIT_CLAMP, sigmoid, softmax

BINARY = "binary"
MULTICLASS = "multiclass"


def batch_loss_and_grad(logits: np.ndarray, targets: np.ndarray, task: str) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; gradient has the batch mean folded in.

    The logits are clipped to [-LOGIT_CLAMP, LOGIT_CLAMP] once. The gradient
    is that of `sigmoid` or `softmax` of the clipped logits, bit for bit.
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
        yf = y.astype(np.float64)[:, None]
        losses = np.logaddexp(0.0, zc) - yf * zc
        grad = 1.0 / (1.0 + np.exp(-zc))  # sigmoid of logits already clipped
        grad -= yf
        grad /= n
        return float(np.add.reduce(losses, axis=None) / n), grad
    if task == MULTICLASS:
        c = z.shape[1]
        if np.logical_or.reduce((y < 0) | (y >= c), axis=None):
            raise ValueError(f"multiclass targets must lie in [0, {c})")
        rows = np.arange(n)
        top = np.maximum.reduce(zc, axis=1, keepdims=True)
        shifted = zc - top
        e = np.exp(shifted)
        total = np.add.reduce(e, axis=1, keepdims=True)
        losses = np.log(total[:, 0]) + top[:, 0] - zc[rows, y]
        # the gradient reuses the exponentials, unless a shifted logit lies
        # below the floor of `softmax` (or is NaN)
        if not np.minimum.reduce(shifted, axis=None, initial=0.0) >= -LOGIT_CLAMP:
            e = np.exp(np.maximum(shifted, -LOGIT_CLAMP))
            total = np.add.reduce(e, axis=1, keepdims=True)
        grad = np.divide(e, total, out=e)
        np.subtract.at(grad, (rows, y), 1.0)  # grad[rows, y] -= 1.0, without its buffering
        grad /= n
        return float(np.add.reduce(losses) / n), grad
    raise ValueError(f"unknown task {task!r}")


def class_probabilities(logits: np.ndarray, task: str) -> np.ndarray:
    """P(class 1) per row of (batch, 1) binary logits, or the row-wise softmax
    of multiclass logits."""
    return sigmoid(logits[:, 0]) if task == BINARY else softmax(logits)
