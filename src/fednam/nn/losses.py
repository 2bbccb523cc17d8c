"""Classification losses: sigmoid and softmax cross-entropy with analytic gradients."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from .layers import LOGIT_CLAMP, sigmoid, softmax

BINARY = "binary"
MULTICLASS = "multiclass"


def batch_loss_and_grad(logits: np.ndarray, targets: np.ndarray, task: str) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; gradient has the batch mean folded in."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets)
    if z.ndim != 2 or z.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"logits {z.shape} and targets {y.shape} do not align")
    n = z.shape[0]
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    if task == BINARY:
        if z.shape[1] != 1:
            raise ShapeMismatchError(f"binary task expects 1 logit column, got {z.shape[1]}")
        if ((y != 0) & (y != 1)).any():
            raise ValueError("binary targets must be 0 or 1")
        yf = y.astype(np.float64)[:, None]
        losses = np.logaddexp(0.0, zc) - yf * zc
        grad = (sigmoid(zc) - yf) / n
        return float(losses.mean()), grad
    if task == MULTICLASS:
        c = z.shape[1]
        if ((y < 0) | (y >= c)).any():
            raise ValueError(f"multiclass targets must lie in [0, {c})")
        shifted = zc - zc.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + zc.max(axis=1)
        losses = lse - zc[np.arange(n), y]
        grad = softmax(zc)
        grad[np.arange(n), y] -= 1.0
        return float(losses.mean()), grad / n
    raise ValueError(f"unknown task {task!r}")


def class_probabilities(logits: np.ndarray, task: str) -> np.ndarray:
    """P(class 1) per row of (batch, 1) binary logits, or the row-wise softmax
    of multiclass logits."""
    return sigmoid(logits[:, 0]) if task == BINARY else softmax(logits)
