"""The stacked bank against separate nets, bit for bit.

`bank_forward`/`bank_backward` run layer i of all K nets as one batched
matmul over (K, out, in) views of the parameter vector: K feature nets for the
additive model, one net for the dense model. The oracles in `_oracles.py` run
the same nets one at a time, layer by layer, in plain NumPy.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import dense_net, input_gradients
from _oracles import (
    per_feature_curves,
    per_feature_nam_backward,
    per_feature_nam_forward,
    per_layer_dnn_backward,
    per_layer_dnn_forward,
)
from fednam.dnn import DnnModel, build_dnn, dnn_backward
from fednam.errors import ShapeMismatchError, StaleCacheError
from fednam.interpret import model_curves
from fednam.nam import NamModel, build_nam, nam_backward, nam_forward
from fednam.nn import BINARY, EXU, IDENTITY, INFER, MULTICLASS, RELU, TRAIN, NetBank
from fednam.nn.bank import INFER_BLOCK_ROWS


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# batches on both sides of a multiple of NumPy's 128-element pairwise-sum block
# and of GRAD_BLOCK_ROWS, and ones that sum several blocks of either
BLOCK_EDGE_BATCHES = [255, 256, 257, 600, 1100]


@st.composite
def cases(draw, units=st.integers(1, 12), activations=st.sampled_from([RELU, EXU]),
          batches=st.integers(1, 150) | st.sampled_from(BLOCK_EDGE_BATCHES)):
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    dropout = draw(st.sampled_from([0.0, 0.1, 0.5]))
    model = build_nam(
        n_features=draw(st.integers(1, 6)),
        task=task,
        n_classes=2 if task == BINARY else draw(st.integers(3, 4)),
        hidden_layers=draw(st.integers(1, 3)),
        hidden_units=draw(units),
        hidden_activation=draw(activations),
        dropout_rate=dropout,
        rng=draw(st.integers(0, 10_000)),
    )
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    # move the zero biases off the kinks so every branch of the activations is taken
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    batch = draw(batches)
    x = rng.normal(size=(batch, model.n_features))
    mode = TRAIN if dropout > 0.0 and draw(st.booleans()) else INFER
    dlogits = rng.normal(size=(batch, model.out_dim))
    return model, x, mode, seed, dlogits


@given(cases())
@settings(max_examples=120, deadline=None)
def test_bank_matches_per_feature_nets(case):
    _check_against_per_feature_nets(case)


@pytest.mark.parametrize("activation", [RELU, EXU])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_unit_layers_match_per_feature_nets(activation, data):
    """At width 1 every layer has one input, so its matmul forms each entry
    as one product and hands the next layer a C-order array. A product that
    followed the input's layout would be batch-major after layer 0, and BLAS
    would sum the later layers' transposed operands in another order."""
    _check_against_per_feature_nets(data.draw(cases(units=st.just(1), activations=st.just(activation))))


@pytest.mark.parametrize("units", [1, 12])
@pytest.mark.parametrize("batch", BLOCK_EDGE_BATCHES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_block_edge_batches_match_per_feature_nets(batch, units, data):
    """Every bias gradient is one reduce over the batch: at width 1 it sums
    each net's column pairwise, as a lone net does, and wider layers add row by
    row. These batches pass NumPy's pairwise blocks and GRAD_BLOCK_ROWS."""
    _check_against_per_feature_nets(data.draw(cases(units=st.just(units), batches=st.just(batch))))


def _check_against_per_feature_nets(case):
    model, x, mode, seed, dlogits = case
    want_logits, want_terms, want_outputs, caches = per_feature_nam_forward(
        model, x, mode, np.random.default_rng(seed)
    )
    logits, terms, cache = nam_forward(model, x, mode, np.random.default_rng(seed))
    assert same_bits(logits, want_logits)
    assert same_bits(terms, want_terms)
    # the bank's (K, batch, 1) output, as the (batch, K) outputs the head read
    assert same_bits(cache.features, want_outputs)

    want_grads, want_d_input = per_feature_nam_backward(model, want_outputs, caches, dlogits)
    grads, d_input = nam_backward(model, cache, dlogits)
    assert len(grads) == len(want_grads) == len(model.param_tensors())
    for got, want in zip(grads, want_grads):
        assert same_bits(got, want)
    assert same_bits(d_input, want_d_input)
    # training reads no input gradient: it skips it and keeps every other bit
    assert same_bits(np.concatenate(model.backward_batch(cache, dlogits), axis=None), grads[0].base)
    assert nam_backward(model, cache, dlogits, input_grad=False)[1] is None
    # every layer's array in the layout a matmul gives; inputs[0] is the caller's x
    assert all(a.flags.c_contiguous for a in [*cache.inputs[1:], *cache.preacts])


@given(cases())
@settings(max_examples=30, deadline=None)
def test_gradients_are_views_of_one_vector(case):
    model, x, mode, seed, dlogits = case
    _, _, cache = nam_forward(model, x, mode, np.random.default_rng(seed))
    grads, _ = nam_backward(model, cache, dlogits)
    vector = grads[0].base
    assert vector.shape == model.params.shape
    assert all(g.base is vector for g in grads)
    assert [g.shape for g in grads] == [t.shape for t in model.param_tensors()]
    assert np.array_equal(np.concatenate(grads, axis=None), vector)
    # a caller's buffer is written whole: no entry keeps what it held before
    out = np.full_like(model.params, np.nan)
    views = model.split(out)
    into, _ = nam_backward(model, cache, dlogits, views)
    assert into is views and same_bits(out, vector)


def test_bank_views_share_the_parameter_vector():
    model = build_nam(4, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=5, rng=0)
    assert [w.shape for w in model.weights] == [(4, 5, 1), (4, 5, 5), (4, 1, 5)]
    assert [b.shape for b in model.biases] == [(4, 5), (4, 5), (4, 1)]
    layer_major = [t for pair in zip(model.weights, model.biases) for t in pair]
    tensors = model.param_tensors()
    assert len(tensors) == 8
    offset = 0
    for t, view in zip(tensors, [*layer_major, model.output_weights, model.output_bias]):
        assert t.base is model.params and t.flags.c_contiguous
        assert np.array_equal(t, view)
        assert np.array_equal(t.reshape(-1), model.params[offset : offset + t.size])
        offset += t.size
    assert offset == model.params.size
    model.set_params(np.arange(model.params.size, dtype=np.float64))
    assert np.array_equal(model.weights[1], model.param_tensors()[2])


def test_heterogeneous_feature_nets_rejected():
    doc = {"task": BINARY, **build_nam(2, BINARY, hidden_layers=2, hidden_units=4, rng=0).to_dict()}
    nets = doc["feature_nets"]
    fewer_layers = [nets[0], {**nets[1], "layers": nets[1]["layers"][:2],
                              "activations": [RELU, IDENTITY]}]
    with pytest.raises(ShapeMismatchError, match="feature net 1"):
        NamModel.from_dict({**doc, "feature_nets": fewer_layers})
    mixed_units = [nets[0], {**nets[1], "activations": [EXU, EXU, IDENTITY]}]
    with pytest.raises(ShapeMismatchError, match="feature net 1"):
        NamModel.from_dict({**doc, "feature_nets": mixed_units})
    wider = build_nam(2, BINARY, hidden_layers=2, hidden_units=5, rng=0).to_dict()["feature_nets"]
    with pytest.raises(ValueError):
        NamModel.from_dict({**doc, "feature_nets": [nets[0], wider[1]]})


@st.composite
def dense_cases(draw):
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    out_dim = 1 if task == BINARY else draw(st.integers(3, 4))
    hidden = [draw(st.integers(1, 12)) for _ in range(draw(st.integers(1, 3)))]
    dims = [draw(st.integers(1, 8)), *hidden, out_dim]
    dropout = draw(st.sampled_from([0.0, 0.3]))
    model = dense_net(dims, activation=draw(st.sampled_from([RELU, EXU])), dropout_rate=dropout,
                      rng=draw(st.integers(0, 10_000)))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    batch = draw(st.integers(1, 400))
    x = rng.normal(size=(batch, dims[0]))
    mode = TRAIN if dropout > 0.0 else INFER
    return model, x, mode, seed, rng.normal(size=(batch, out_dim))


@given(dense_cases())
@settings(max_examples=100, deadline=None)
def test_dense_model_matches_per_layer_net(case):
    model, x, mode, seed, dlogits = case
    want_logits, trace = per_layer_dnn_forward(model, x, mode, np.random.default_rng(seed))
    logits, cache = model.forward_batch(x, mode, np.random.default_rng(seed))
    assert same_bits(logits, want_logits)

    want_grads, want_dx = per_layer_dnn_backward(model, trace, dlogits)
    grads = model.backward_batch(cache, dlogits)
    assert [g.shape for g in grads] == [t.shape for t in model.param_tensors()]
    for got, want in zip(grads, want_grads):
        assert same_bits(got, want)
    out = np.full_like(model.params, np.nan)
    model.backward_batch(cache, dlogits, model.split(out))
    assert same_bits(out, np.concatenate(grads, axis=None))
    if mode == INFER:
        assert same_bits(input_gradients(model, x, dlogits), want_dx)


@pytest.mark.parametrize("batch", [40, 700])
def test_dense_gradients_do_not_depend_on_the_layout_of_dlogits(batch):
    """The output layer's bias sum reduces a C-order copy of the upstream, so a
    column-major `dlogits` gives the bits of a row-major one."""
    model = build_dnn(5, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=7, rng=0)
    rng = np.random.default_rng(batch)
    _, cache = model.forward_batch(rng.normal(size=(batch, 5)), TRAIN)
    dlogits = rng.normal(size=(batch, 3))
    want_grads, want_dx = dnn_backward(model, cache, dlogits)
    grads, dx = dnn_backward(model, cache, np.asfortranarray(dlogits))
    assert same_bits(grads[0].base, want_grads[0].base)
    assert same_bits(dx, want_dx)


@pytest.mark.parametrize("activation", [RELU, EXU])
@pytest.mark.parametrize("task,n_classes", [(BINARY, 2), (MULTICLASS, 3)])
@pytest.mark.parametrize("layers,units", [(2, 9), (3, 20)])
def test_curves_match_per_feature_nets(activation, task, n_classes, layers, units):
    model = build_nam(4, task, n_classes=n_classes, hidden_layers=layers, hidden_units=units,
                      hidden_activation=activation, rng=5)
    rng = np.random.default_rng(6)
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    ranges = [(-1.7, 2.3), (0.4, 0.4), (-3.0, -0.5), (0.0, 1.9)]  # feature 1 is degenerate
    curves = model_curves(model, ranges, "c")
    want = per_feature_curves(model, ranges)
    assert len(curves) == len(want) == 4 * model.out_dim
    for curve, (grid, values) in zip(curves, want):
        assert same_bits(curve.grid, grid)
        assert same_bits(curve.values, values)
    assert [len(c.grid) for c in curves[:: model.out_dim]] == [101, 1, 101, 101]


@st.composite
def blocked_cases(draw):
    """A model without dropout and a batch whose size straddles a multiple of
    the inference block, with hidden widths on both sides of 32, where BLAS
    takes other kernels for small products."""
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    n_classes = 2 if task == BINARY else draw(st.integers(3, 4))
    units = draw(st.sampled_from([1, 2, 12, 20, 33, 64]))
    layers = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        model = build_nam(draw(st.integers(1, 6)), task, n_classes=n_classes, hidden_layers=layers,
                          hidden_units=units, hidden_activation=draw(st.sampled_from([RELU, EXU])),
                          rng=seed)
    else:
        model = build_dnn(draw(st.integers(1, 40)), task, n_classes=n_classes, hidden_layers=layers,
                          hidden_units=units, rng=seed)
    rng = np.random.default_rng(seed)
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    offset = draw(st.sampled_from([-1, 0, 1, 2, 5, 18, 19, 400, 401, 600, INFER_BLOCK_ROWS - 1]))
    batch = draw(st.integers(1, 3)) * INFER_BLOCK_ROWS + offset
    x = rng.normal(size=(batch, model.n_features))
    return model, x, rng.normal(size=(batch, model.out_dim))


def _backward(model, cache, dlogits):
    if isinstance(model, NamModel):
        return nam_backward(model, cache, dlogits)
    return dnn_backward(model, cache, dlogits)


@given(blocked_cases())
@settings(max_examples=60, deadline=None)
def test_blocked_inference_matches_one_pass(case):
    model, x, dlogits = case
    want, train_cache = model.forward_batch(x, TRAIN)
    got, cache = model.forward_batch(x, INFER)
    assert same_bits(got, want)
    assert cache.inputs == [] and cache.preacts == [] and cache.masks == [None] * len(model.weights)
    # a dense model's bank output is its logits; a NAM's feature outputs are kept
    assert isinstance(model, DnnModel) or same_bits(cache.features, train_cache.features)

    want_grads, want_dx = _backward(model, train_cache, dlogits)
    grads, dx = _backward(model, cache, dlogits)
    for g, w in zip(grads, want_grads):
        assert same_bits(g, w)
    assert same_bits(dx, want_dx)
    assert same_bits(np.concatenate(model.backward_batch(cache, dlogits), axis=None), grads[0].base)
    if isinstance(model, DnnModel):
        assert same_bits(input_gradients(model, x, dlogits), want_dx)

    _, cache = model.forward_batch(x, INFER)
    model.set_params(model.params)
    with pytest.raises(StaleCacheError):
        _backward(model, cache, dlogits)


LAYER_MODELS = [build_nam(3, BINARY, hidden_layers=2, hidden_units=4, dropout_rate=0.5, rng=0),
                build_dnn(3, MULTICLASS, n_classes=3, hidden_units=5, rng=0)]


@pytest.mark.parametrize("model", LAYER_MODELS, ids=["nam", "dnn"])
def test_backward_from_a_training_cache_activates_nothing(model, monkeypatch):
    """A training pass keeps each layer's input: backward reads it, and
    recomputes no activation."""
    import fednam.nn.bank as bank

    x = np.random.default_rng(0).normal(size=(7, 3))
    _, cache = model.forward_batch(x, TRAIN, 1)
    assert [h.shape[1] for h in cache.inputs] == [7] * len(model.weights)
    assert cache.inputs[0] is cache.x and len(cache.preacts) == len(model.weights)
    calls = []
    activate = bank.activate
    monkeypatch.setattr(bank, "activate", lambda kind, z: calls.append(kind) or activate(kind, z))
    model.backward_batch(cache, np.ones((7, model.out_dim)))
    assert calls == []


@pytest.mark.parametrize("model", LAYER_MODELS, ids=["nam", "dnn"])
def test_inference_cache_holds_no_layer_arrays(model):
    x = np.random.default_rng(0).normal(size=(INFER_BLOCK_ROWS + 5, 3))
    out, cache = model.forward_batch(x, INFER)
    assert cache.inputs == [] and cache.preacts == []
    # the first backward runs the layers once, over every row, and keeps them
    model.backward_batch(cache, np.ones((len(x), model.out_dim)))
    assert [z.shape[1] for z in cache.preacts] == [len(x)] * len(model.weights)
    assert len(cache.inputs) == len(model.weights)


def test_exu_backward_holds_two_weight_stacks():
    """An ExU layer's gradients are the standard layer's, mapped back through
    exp(W) in place, so beside the gradient views backward holds at most two
    weight-sized arrays at once."""
    model = build_nam(4, BINARY, hidden_layers=2, hidden_units=256, hidden_activation=EXU, rng=0)
    rng = np.random.default_rng(1)
    x, dlogits = rng.normal(size=(32, 4)), rng.normal(size=(32, 1))
    out = model.split(np.empty_like(model.params))
    _, cache = model.forward_batch(x, TRAIN)
    model.backward_batch(cache, dlogits, out)  # warm-up
    tracemalloc.start()
    try:
        model.backward_batch(cache, dlogits, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * model.weights[1].nbytes  # one (4, 256, 256) stack


@pytest.mark.parametrize("model", LAYER_MODELS, ids=["nam", "dnn"])
def test_dlogits_off_the_batch_rejected(model):
    _, cache = model.forward_batch(np.zeros((5, 3)), TRAIN, 1)
    with pytest.raises(ShapeMismatchError, match=r"shape \(4, \d\) does not match"):
        model.backward_batch(cache, np.ones((4, model.out_dim)))


@pytest.mark.parametrize("build,error,message", [
    (lambda: NetBank(2, [1, 3, 1], [RELU, IDENTITY], 0.0, "regression"), ValueError, "unknown task 'regression'"),
    (lambda: NetBank(2, [1, 3, 1], ["tanh", IDENTITY], 0.0, BINARY), ValueError, "unknown activation 'tanh'"),
    (lambda: NetBank(2, [1, 3, 1], [RELU, IDENTITY], 1.0, BINARY), ValueError,
     r"dropout_rate must be in \[0, 1\), got 1.0"),
    (lambda: NamModel(2, [3], [RELU, IDENTITY], 0.0, 2, BINARY), ShapeMismatchError,
     "binary task requires exactly one output row"),
], ids=["task", "activation", "dropout", "binary_head_rows"])
def test_bad_architecture_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("model", [build_nam(3, BINARY, rng=0), build_dnn(3, MULTICLASS, n_classes=3, rng=0)])
@pytest.mark.parametrize("mode", ["Train", "training", "eval", ""])
def test_unknown_forward_mode_rejected(model, mode):
    with pytest.raises(ValueError, match="unknown mode"):
        model.forward_batch(np.zeros((4, 3)), mode)
