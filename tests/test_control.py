import math

import numpy as np
import pytest

from fednam.control import (
    CONTINUE,
    STOP,
    ControlConfig,
    EarlyStopState,
    LrSchedule,
    early_stop_update,
    schedule_lr,
)
from fednam.errors import ConfigError


class TestEarlyStopping:
    def test_strictly_decreasing_never_stops(self):
        state = EarlyStopState(patience=5)
        for epoch in range(200):
            assert early_stop_update(state, 1.0 / (epoch + 1)) == CONTINUE

    def test_constant_loss_stops_at_epoch_21(self):
        state = EarlyStopState(patience=20)
        stopped_at = None
        for epoch in range(1, 100):
            if early_stop_update(state, 1.0) == STOP:
                stopped_at = epoch
                break
        assert stopped_at == 21

    def test_best_snapshot_is_epoch_two_model(self):
        state = EarlyStopState(patience=20)
        losses = [1.0, 0.5, 0.6, 0.6, 0.6]
        for epoch, loss in enumerate(losses, start=1):
            early_stop_update(state, loss, params=[np.array([float(epoch)])])
        assert state.best_snapshot is not None
        assert state.best_snapshot[0][0] == 2.0
        assert state.best_loss == 0.5

    def test_min_delta_blocks_tiny_improvements(self):
        state = EarlyStopState(patience=3, min_delta=1e-2)
        assert early_stop_update(state, 1.0) == CONTINUE
        assert early_stop_update(state, 0.999) == CONTINUE  # below min_delta
        assert early_stop_update(state, 0.998) == CONTINUE
        assert early_stop_update(state, 0.997) == STOP


class TestLrSchedule:
    def test_ten_flat_epochs_halve(self):
        schedule = LrSchedule(factor=0.5, patience=10, min_lr=1e-5)
        lr = schedule_lr(schedule, 0.01, 1.0)  # establishes the baseline best
        for _ in range(9):
            lr = schedule_lr(schedule, lr, 1.0)
            assert lr == 0.01
        lr = schedule_lr(schedule, lr, 1.0)  # tenth non-improving epoch
        assert lr == 0.005

    def test_min_lr_floor(self):
        schedule = LrSchedule(factor=0.5, patience=1, min_lr=1e-5)
        schedule_lr(schedule, 1e-4, 1.0)
        lr = 2e-5
        lr = schedule_lr(schedule, lr, 1.0)
        assert lr == 1e-5
        lr = schedule_lr(schedule, lr, 1.0)
        assert lr == 1e-5

    def test_improving_stream_keeps_lr(self):
        schedule = LrSchedule(patience=2)
        lr = 0.01
        for epoch in range(50):
            lr = schedule_lr(schedule, lr, 1.0 / (epoch + 1))
        assert lr == 0.01

    def test_sequence_non_increasing(self):
        rng = np.random.default_rng(0)
        schedule = LrSchedule(factor=0.5, patience=3, min_lr=1e-5)
        lr = 0.02
        previous = lr
        for _ in range(500):
            lr = schedule_lr(schedule, lr, float(rng.random()))
            assert lr <= previous
            assert lr >= 1e-5
            previous = lr

    def test_counter_resets_after_reduction(self):
        schedule = LrSchedule(factor=0.5, patience=2, min_lr=1e-5)
        schedule_lr(schedule, 0.01, 1.0)
        lr = schedule_lr(schedule, 0.01, 1.0)
        lr = schedule_lr(schedule, lr, 1.0)
        assert lr == 0.005
        lr = schedule_lr(schedule, lr, 1.0)
        assert lr == 0.005  # needs another full patience window
        lr = schedule_lr(schedule, lr, 1.0)
        assert lr == 0.0025


@pytest.mark.parametrize("rate", [0.0, -1e-3])
def test_non_positive_learning_rate_rejected(rate):
    with pytest.raises(ValueError, match="^learning rate must be positive$"):
        schedule_lr(LrSchedule(), rate, 1.0)


def test_control_config_builds_fresh_state():
    cfg = ControlConfig(early_stop_patience=7, min_delta=1e-3, lr_patience=4)
    a, b = cfg.make_early_stop(), cfg.make_early_stop()
    assert a is not b and a.patience == 7 and a.min_delta == 1e-3
    s = cfg.make_schedule()
    assert s.patience == 4 and math.isinf(s.best_loss)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_min_delta_rejected(value):
    """inf and nan would record no improvement, so nothing to restore; -inf one every epoch."""
    with pytest.raises(ValueError, match="min_delta must be finite"):
        EarlyStopState(min_delta=value)
    with pytest.raises(ConfigError, match="control.min_delta: min_delta must be finite"):
        ControlConfig(min_delta=value)
