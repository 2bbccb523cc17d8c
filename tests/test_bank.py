"""The stacked feature bank against K separate feature nets, bit for bit.

`nam_forward`/`nam_backward` run layer i of all K feature nets as one batched
matmul over (K, out, in) views of the parameter vector. The oracle runs the
same nets one feature at a time through `Mlp.forward`/`Mlp.backward`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_feature_nam_backward, per_feature_nam_forward
from fednam.errors import ShapeMismatchError
from fednam.nam import FeatureNet, NamModel, build_nam, nam_backward, nam_forward
from fednam.nn import BINARY, EXU, INFER, MULTICLASS, RELU, TRAIN, make_mlp


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cases(draw):
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    dropout = draw(st.sampled_from([0.0, 0.1, 0.5]))
    model = build_nam(
        n_features=draw(st.integers(1, 6)),
        task=task,
        n_classes=2 if task == BINARY else draw(st.integers(3, 4)),
        hidden_layers=draw(st.integers(1, 3)),
        hidden_units=draw(st.integers(1, 12)),
        hidden_activation=draw(st.sampled_from([RELU, EXU])),
        dropout_rate=dropout,
        rng=draw(st.integers(0, 10_000)),
    )
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    # move the zero biases off the kinks so every branch of the activations is taken
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    batch = draw(st.integers(1, 150))
    x = rng.normal(size=(batch, model.n_features))
    mode = TRAIN if dropout > 0.0 and draw(st.booleans()) else INFER
    dlogits = rng.normal(size=(batch, model.out_dim))
    return model, x, mode, seed, dlogits


@given(cases())
@settings(max_examples=120, deadline=None)
def test_bank_matches_per_feature_nets(case):
    model, x, mode, seed, dlogits = case
    want_logits, want_terms, want_outputs, caches = per_feature_nam_forward(
        model, x, mode, np.random.default_rng(seed)
    )
    logits, terms, cache = nam_forward(model, x, mode, np.random.default_rng(seed))
    assert same_bits(logits, want_logits)
    assert same_bits(terms, want_terms)
    assert same_bits(cache.feature_outputs, want_outputs)
    assert cache.feature_outputs.flags.c_contiguous

    want_grads, want_d_input = per_feature_nam_backward(model, want_outputs, caches, dlogits)
    grads, d_input = nam_backward(model, cache, dlogits)
    assert len(grads) == len(want_grads) == len(model.param_tensors())
    for got, want in zip(grads, want_grads):
        assert same_bits(got, want)
    assert same_bits(d_input, want_d_input)


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


def test_bank_views_share_the_parameter_vector():
    model = build_nam(4, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=5, rng=0)
    assert [w.shape for w in model.bank_weights] == [(4, 5, 1), (4, 5, 5), (4, 1, 5)]
    assert [b.shape for b in model.bank_biases] == [(4, 5), (4, 5), (4, 1)]
    for i, layer in enumerate(model.feature_nets[2].mlp.layers):
        assert np.shares_memory(model.bank_weights[i], model.params)
        assert np.array_equal(model.bank_weights[i][2], layer.weights)
        assert np.array_equal(model.bank_biases[i][2], layer.biases)
    model.set_params(np.arange(model.params.size, dtype=np.float64))
    assert np.array_equal(model.bank_weights[1][3], model.feature_nets[3].mlp.layers[1].weights)


def test_heterogeneous_feature_nets_rejected():
    nets = [
        FeatureNet(make_mlp(1, [4, 4], 1, RELU, rng=0), 0),
        FeatureNet(make_mlp(1, [4], 1, RELU, rng=1), 1),
    ]
    with pytest.raises(ShapeMismatchError, match="feature net 1"):
        NamModel(nets, np.ones((1, 2)), np.zeros(1), BINARY)
    mixed_units = [
        FeatureNet(make_mlp(1, [4], 1, RELU, rng=0), 0),
        FeatureNet(make_mlp(1, [4], 1, EXU, rng=1), 1),
    ]
    with pytest.raises(ShapeMismatchError):
        NamModel(mixed_units, np.ones((1, 2)), np.zeros(1), BINARY)
