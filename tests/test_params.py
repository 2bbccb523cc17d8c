"""One parameter vector per model: every tensor is a view into `params`."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednam.dnn import build_dnn
from fednam.errors import ShapeMismatchError, StaleCacheError
from fednam.federation import ClientState, fed_avg
from fednam.nam import NamModel, build_nam, load_model, save_model
from fednam.nn import BINARY, MULTICLASS, OptimizerState


@st.composite
def models(draw):
    """A freshly built NAM or DNN of random shape, task and weights."""
    n_features = draw(st.integers(1, 5))
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    args = dict(
        n_features=n_features,
        task=task,
        n_classes=2 if task == BINARY else draw(st.integers(3, 4)),
        hidden_layers=draw(st.integers(1, 3)),
        hidden_units=draw(st.integers(1, 8)),
        rng=draw(st.integers(0, 10_000)),
    )
    build = draw(st.sampled_from([build_nam, build_dnn]))
    return build(**args)


def assert_views(model):
    tensors = model.param_tensors()
    assert all(np.shares_memory(t, model.params) for t in tensors)
    assert all(t.base is model.params and t.flags.c_contiguous for t in tensors)
    assert np.array_equal(np.concatenate(tensors, axis=None), model.params)


def client(cid, model, n):
    x = np.zeros((n, model.n_features))
    return ClientState(cid, x, np.zeros(n, dtype=int), model, OptimizerState(),
                       np.arange(n), np.empty(0, dtype=int))


@given(models())
@settings(max_examples=40, deadline=None)
def test_tensors_view_the_vector(model):
    assert_views(model)
    copied = model.copy()
    assert_views(copied)
    assert not np.shares_memory(copied.params, model.params)
    assert copied.params.tobytes() == model.params.tobytes()
    merged = fed_avg([client(0, model, 3), client(1, model.copy(), 5)])
    assert_views(merged)
    if not isinstance(model, NamModel):  # only additive models have a model file
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        names = [f"f{k}" for k in range(model.n_features)]
        save_model(model, names, path)
        loaded, loaded_names = load_model(path)
    assert_views(loaded)
    assert loaded_names == names
    assert loaded.params.tobytes() == model.params.tobytes()


@given(models(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_set_params_writes_views_and_stales_caches(model, seed):
    x = np.random.default_rng(seed).normal(size=(3, model.n_features))
    logits, cache = model.forward_batch(x)
    vector = np.random.default_rng(seed).normal(size=model.params.shape)
    model.set_params(vector)
    assert np.array_equal(np.concatenate(model.param_tensors(), axis=None), vector)
    with pytest.raises(StaleCacheError):
        model.backward_batch(cache, np.ones_like(logits))


def test_layer_stacks_in_layer_order():
    model = build_nam(3, BINARY, hidden_layers=2, hidden_units=4, rng=0)
    stacks = [t for pair in zip(model.weights, model.biases) for t in pair]
    assert [t.shape for t in stacks] == [(3, 4, 1), (3, 4), (3, 4, 4), (3, 4), (3, 1, 4), (3, 1)]
    offset = 0
    for t in [*stacks, model.output_weights, model.output_bias]:
        assert t.base is model.params
        assert np.array_equal(t.reshape(-1), model.params[offset : offset + t.size])
        offset += t.size
    assert offset == model.params.size


def test_set_params_rejects_wrong_length():
    model = build_nam(2, BINARY, hidden_layers=1, hidden_units=3, rng=0)
    with pytest.raises(ShapeMismatchError):
        model.set_params(np.zeros(model.params.size + 1))
    with pytest.raises(ShapeMismatchError):
        model.set_param_tensors(model.param_tensors()[:-1])
