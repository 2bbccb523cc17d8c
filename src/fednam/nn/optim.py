"""SGD and Adam over one flat parameter vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError, TrainingError

SGD = "sgd"
ADAM = "adam"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Optimizer kind, learning rate, step counter, and Adam moments (one vector
    each): between steps Adam keeps nothing else."""

    kind: str = ADAM
    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.empty(0))
    v: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if self.kind not in (SGD, ADAM):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


def optimizer_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One update of a parameter vector; returns the new vector and advances the state in place.

    The step spends `grads`: Adam works in them and in the vector it returns,
    so a step allocates only that vector. Rejects non-finite gradients so the
    training loop can surface the failure.
    """
    if params.shape != grads.shape:
        raise ShapeMismatchError(f"gradient shape {grads.shape} does not match params {params.shape}")
    # logical_and.reduce is what ndarray.all runs, without its Python wrapper
    if not np.logical_and.reduce(np.isfinite(grads), axis=None):
        raise TrainingError("non-finite gradient; update rejected")

    lr = state.learning_rate
    state.step += 1
    if state.kind == SGD:
        # -lr * g + p is p - lr * g bit for bit, through one new vector
        out = np.multiply(grads, -lr)
        out += params
    else:
        if state.m.size == 0:
            state.m = np.zeros_like(params)
            state.v = np.zeros_like(params)
        # m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g*g and
        # out = params - lr*m_hat / (sqrt(v_hat) + eps), each operation in
        # this order, in place on the result and the spent gradient
        t = state.step
        out = np.empty_like(params)
        state.m *= ADAM_BETA1
        state.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=out)
        state.v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=out)
        state.v += np.multiply(out, grads, out=out)
        m_hat = np.divide(state.m, 1.0 - ADAM_BETA1**t, out=out)
        v_hat = np.divide(state.v, 1.0 - ADAM_BETA2**t, out=grads)
        update = np.multiply(m_hat, lr, out=out)
        update /= np.add(np.sqrt(v_hat, out=grads), ADAM_EPS, out=grads)
        np.subtract(params, update, out=out)
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise TrainingError("non-finite parameter update; update rejected")
    return out
