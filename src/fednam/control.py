"""Early stopping and reduce-on-plateau learning-rate scheduling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

CONTINUE = "continue"
STOP = "stop"


@dataclass
class EarlyStopState:
    """Tracks the best validation loss and a snapshot of the matching parameters.

    Stops after `patience` consecutive epochs without an improvement larger
    than `min_delta`.
    """

    patience: int = 20
    min_delta: float = 1e-4
    best_loss: float = math.inf
    best_snapshot: np.ndarray | None = None
    epochs_since_improvement: int = 0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        # with inf or nan no epoch would ever improve, with -inf every epoch would
        if not math.isfinite(self.min_delta):
            raise ValueError(f"min_delta must be finite, got {self.min_delta}")


def early_stop_update(
    state: EarlyStopState,
    val_loss: float,
    params: np.ndarray | None = None,
) -> str:
    """Record one epoch's validation loss; returns CONTINUE or STOP.

    Callers pass finite losses. An improvement (best - loss > min_delta)
    resets the counter and snapshots `params`, a model's parameter vector.
    """
    if state.best_loss - val_loss > state.min_delta:
        state.best_loss = val_loss
        state.epochs_since_improvement = 0
        if params is not None:
            state.best_snapshot = np.copy(params)
        return CONTINUE
    state.epochs_since_improvement += 1
    if state.epochs_since_improvement >= state.patience:
        return STOP
    return CONTINUE


@dataclass
class LrSchedule:
    """Reduce-on-plateau: halve the rate after `patience` non-improving epochs."""

    factor: float = 0.5
    patience: int = 10
    min_lr: float = 1e-5
    best_loss: float = math.inf
    epochs_since_improvement: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must be in (0,1), got {self.factor}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not self.min_lr > 0:  # a rate of 0 would stop training
            raise ValueError(f"min_lr must be > 0, got {self.min_lr}")


def schedule_lr(schedule: LrSchedule, current_lr: float, val_loss: float) -> float:
    """Update the plateau counter with one epoch's loss and return the new rate."""
    if current_lr <= 0.0:
        raise ValueError("learning rate must be positive")
    if val_loss < schedule.best_loss:
        schedule.best_loss = val_loss
        schedule.epochs_since_improvement = 0
        return current_lr
    schedule.epochs_since_improvement += 1
    if schedule.epochs_since_improvement >= schedule.patience:
        schedule.epochs_since_improvement = 0
        if current_lr <= schedule.min_lr:
            return current_lr
        return max(current_lr * schedule.factor, schedule.min_lr)
    return current_lr


@dataclass
class ControlConfig:
    """Hook settings applied per client per round."""

    early_stop_patience: int = 20
    min_delta: float = 1e-4
    lr_factor: float = 0.5
    lr_patience: int = 10
    min_lr: float = 1e-5

    def __post_init__(self) -> None:
        # the hooks check their own settings: build a hook from each key alone, to
        # run those checks now and name the key that a check rejects
        for key, hook, field in (
            ("early_stop_patience", EarlyStopState, "patience"),
            ("min_delta", EarlyStopState, "min_delta"),
            ("lr_factor", LrSchedule, "factor"),
            ("lr_patience", LrSchedule, "patience"),
            ("min_lr", LrSchedule, "min_lr"),
        ):
            try:
                hook(**{field: getattr(self, key)})
            except ValueError as exc:
                raise ConfigError(f"control.{key}: {exc}") from exc

    def make_early_stop(self) -> EarlyStopState:
        return EarlyStopState(patience=self.early_stop_patience, min_delta=self.min_delta)

    def make_schedule(self) -> LrSchedule:
        return LrSchedule(factor=self.lr_factor, patience=self.lr_patience, min_lr=self.min_lr)
