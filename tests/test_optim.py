import tracemalloc

import numpy as np
import pytest

from _oracles import per_tensor_optimizer_step
from fednam.config import OptimizerConfig
from fednam.dnn import build_dnn
from fednam.errors import ConfigError, ShapeMismatchError, TrainingError
from fednam.nam import build_nam
from fednam.nn import ADAM, BINARY, MULTICLASS, SGD, OptimizerState, optimizer_step


def test_sgd_step():
    state = OptimizerState(kind=SGD, learning_rate=0.1)
    p = optimizer_step(state, np.array([1.0]), np.array([2.0]))
    assert p[0] == pytest.approx(0.8, abs=1e-15)
    assert state.step == 1


def test_zero_gradient_leaves_params_unchanged():
    for kind in (SGD, ADAM):
        state = OptimizerState(kind=kind, learning_rate=0.5)
        p = optimizer_step(state, np.array([3.0, -1.0]), np.zeros(2))
        assert np.array_equal(p, np.array([3.0, -1.0]))


def test_adam_first_step_magnitude():
    # bias-corrected m_hat/sqrt(v_hat) equals 1 on the first step
    state = OptimizerState(kind=ADAM, learning_rate=1e-3)
    p = optimizer_step(state, np.array([1.0]), np.array([1.0]))
    assert abs((1.0 - p[0]) - 1e-3) < 1e-9


def test_adam_moments_accumulate_deterministically():
    a = OptimizerState(kind=ADAM, learning_rate=0.01)
    b = OptimizerState(kind=ADAM, learning_rate=0.01)
    params_a = np.array([0.5, -0.5])
    params_b = np.array([0.5, -0.5])
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=2) for _ in range(10)]
    for g in grads:  # a step spends its gradient, so each run gets its own copy
        params_a = optimizer_step(a, params_a, g.copy())
    for g in grads:
        params_b = optimizer_step(b, params_b, g.copy())
    assert np.array_equal(params_a, params_b)
    assert a.step == b.step == 10
    assert isinstance(a.m, np.ndarray) and isinstance(a.v, np.ndarray)


def test_nonfinite_gradient_rejected():
    state = OptimizerState(kind=SGD, learning_rate=0.1)
    with pytest.raises(TrainingError):
        optimizer_step(state, np.array([1.0]), np.array([np.nan]))
    with pytest.raises(TrainingError):
        optimizer_step(state, np.array([1.0]), np.array([np.inf]))


def test_finite_update_that_overflows_rejected():
    """Finite parameters and gradients whose SGD step overflows to inf."""
    state = OptimizerState(kind=SGD, learning_rate=1.0)
    with pytest.raises(TrainingError, match="^non-finite parameter update; update rejected$"), \
            np.errstate(over="ignore"):
        optimizer_step(state, np.array([1.5e308]), np.array([-1.5e308]))


def test_shape_mismatch_rejected():
    state = OptimizerState(kind=SGD, learning_rate=0.1)
    with pytest.raises(ShapeMismatchError):
        optimizer_step(state, np.zeros(3), np.zeros(2))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        OptimizerState(kind="momentum")
    with pytest.raises(ValueError):
        OptimizerState(kind=SGD, learning_rate=0.0)


@pytest.mark.parametrize("lr", [0.0, float("nan")])
def test_learning_rate_must_be_positive(lr):
    with pytest.raises(ValueError, match="^learning_rate must be > 0"):
        OptimizerState(kind=ADAM, learning_rate=lr)
    with pytest.raises(ConfigError, match="^optimizer.learning_rate must be > 0$"):
        OptimizerConfig(learning_rate=lr)


def test_adam_step_allocates_only_its_result():
    params = build_nam(13, BINARY, rng=0).params.copy()  # the default heart NAM, 11,727 floats
    rng = np.random.default_rng(5)
    state = OptimizerState(kind=ADAM, learning_rate=1e-3)
    params = optimizer_step(state, params, rng.normal(size=params.shape))
    grads = rng.normal(size=params.shape)
    tracemalloc.start()
    try:
        params = optimizer_step(state, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * params.nbytes


def test_adam_state_is_its_two_moments():
    """Between steps Adam keeps only m and v: its first step leaves them and
    the result allocated, and nothing else."""
    params = np.random.default_rng(7).normal(size=100_000)
    grads = np.random.default_rng(8).normal(size=100_000)
    state = OptimizerState(kind=ADAM, learning_rate=1e-3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        params = optimizer_step(state, params, grads)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (held - start) / params.nbytes == pytest.approx(3, abs=0.01)


def test_adam_returns_a_fresh_vector_each_step():
    rng = np.random.default_rng(6)
    state = OptimizerState(kind=ADAM, learning_rate=1e-2)
    params = np.zeros(7)
    returned = []
    for _ in range(3):
        params = optimizer_step(state, params, rng.normal(size=7))
        returned.append((params, params.copy()))
    for out, kept in returned:
        assert np.array_equal(out, kept)
        assert not np.shares_memory(out, state.m) and not np.shares_memory(out, state.v)


MODEL_SHAPES = {
    "nam": [t.shape for t in build_nam(13, BINARY, rng=0).param_tensors()],
    "dnn": [t.shape for t in build_dnn(4, MULTICLASS, n_classes=3, rng=0).param_tensors()],
}


@pytest.mark.parametrize("kind", [SGD, ADAM])
@pytest.mark.parametrize("model", sorted(MODEL_SHAPES))
def test_flat_step_matches_per_tensor_oracle(kind, model):
    shapes = MODEL_SHAPES[model]
    rng = np.random.default_rng(21)
    tensors = [rng.normal(size=s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = OptimizerState(kind=kind, learning_rate=0.01)
    flat = np.concatenate(tensors, axis=None)
    for step in range(1, 21):
        grads = [rng.normal(size=s) for s in shapes]
        tensors = per_tensor_optimizer_step(kind, 0.01, step, tensors, grads, m, v)
        flat = optimizer_step(state, flat, np.concatenate(grads, axis=None))
    assert np.array_equal(flat, np.concatenate(tensors, axis=None))
    if kind == ADAM:
        assert np.array_equal(state.m, np.concatenate(m, axis=None))
        assert np.array_equal(state.v, np.concatenate(v, axis=None))
