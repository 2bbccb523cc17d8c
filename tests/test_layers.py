import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import dense_net, dense_of, one_layer
from _oracles import stacked_xavier_bank
from fednam.dnn import build_dnn
from fednam.errors import ShapeMismatchError
from fednam.nam import build_nam
from fednam.nn import BINARY, EXU, IDENTITY, MULTICLASS, RELU, NetBank, xavier_bank, xavier_init


def layer_output(weights, biases, activation, x):
    out, _ = one_layer(weights, biases, activation).forward_batch(np.array([[x]], dtype=float))
    return out[0, 0]


class TestXavierInit:
    def test_1x1_bound_and_zero_bias(self):
        for seed in (0, 1, 99):
            model = dense_net([1, 1], rng=seed)
            assert abs(model.weights[0][0, 0, 0]) <= math.sqrt(3.0)
            assert model.biases[0][0, 0] == 0.0

    def test_20x20_bound(self):
        weights = xavier_init(np.empty((20, 20)), 3)
        bound = math.sqrt(6.0 / 40.0)
        assert weights.shape == (20, 20)
        assert np.all(np.abs(weights) <= bound)

    def test_deterministic(self):
        a, b = (NetBank(3, [7, 5, 2], [RELU, IDENTITY], 0.0, MULTICLASS) for _ in range(2))
        xavier_bank(a, 42)
        xavier_bank(b, 42)
        assert np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self):
        a = xavier_init(np.empty((5, 7)), 1)
        b = xavier_init(np.empty((5, 7)), 2)
        assert not np.array_equal(a, b)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeMismatchError, match="widths >= 1"):
            NetBank(2, [1, 0, 1], [RELU, IDENTITY], 0.0, BINARY)


@st.composite
def built_and_reference(draw):
    """A freshly built NAM or dense model, and the parameters the reference
    draws give for its architecture and seed. Widths up to 300 take layers
    past 65,536 entries."""
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    out_dim = 1 if task == BINARY else draw(st.integers(3, 4))
    layers = draw(st.integers(1, 3))
    units = draw(st.sampled_from([1, 2, 7, 20, 300]))
    seed = draw(st.integers(0, 10_000))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        model = build_nam(k, task, n_classes=out_dim, hidden_layers=layers, hidden_units=units, rng=seed)
        weights, biases = stacked_xavier_bank(k, [1, *[units] * layers, 1], gen)
        # the head is drawn after every feature net
        head = [stacked_xavier_bank(1, [k, out_dim], gen)[0][0][0], np.zeros(out_dim)]
    else:
        features = draw(st.sampled_from([1, 3, 40, 300]))
        model = build_dnn(features, task, n_classes=out_dim, hidden_layers=layers, hidden_units=units,
                          rng=seed)
        weights, biases = stacked_xavier_bank(1, [features, *[units] * layers, out_dim], gen)
        head = []
    return model, [*(t for pair in zip(weights, biases) for t in pair), *head]


@given(built_and_reference())
@settings(max_examples=40, deadline=None)
def test_built_parameters_equal_the_reference_draws(case):
    """Every parameter keeps the bits that K separately drawn and then stacked
    nets would give it."""
    model, reference = case
    assert [t.shape for t in model.param_tensors()] == [t.shape for t in reference]
    assert model.params.tobytes() == np.concatenate(reference, axis=None).tobytes()


@pytest.mark.parametrize("build", [
    lambda: build_nam(13, BINARY, hidden_layers=3, hidden_units=512),
    lambda: build_dnn(13, BINARY, hidden_layers=3, hidden_units=1850),
], ids=["nam", "dnn"])
def test_construction_holds_the_weights_once(build):
    """A model is drawn straight into its one parameter vector: building it
    allocates less than 64 KiB beyond that vector, and no per-net, stacked
    or per-layer copy."""
    build_nam(2, BINARY, hidden_layers=1, hidden_units=2)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        model = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.params.nbytes > 100 * 8 * 65_536
    assert peak - model.params.nbytes < 64 * 1024


def test_xavier_init_rejects_a_strided_view():
    """The draws fill memory in order, so a view with gaps cannot take them."""
    weights = np.zeros((4, 6))
    with pytest.raises(ValueError, match="contiguous"):
        xavier_init(weights[:, ::2], 0)
    assert not weights.any()


class TestLayerParams:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError, match=r"tensor 1 has shape \(1, 3\), expected \(1, 2\)"):
            one_layer(np.zeros((2, 3)), np.zeros(3), IDENTITY)
        with pytest.raises(ShapeMismatchError, match=r"tensor 2 has shape \(1, 1, 3\), expected \(1, 1, 4\)"):
            dense_of([np.zeros((1, 4, 2)), np.zeros((1, 1, 3))], [np.zeros((1, 4)), np.zeros((1, 1))],
                     [EXU, IDENTITY])

    def test_dims(self):
        model = one_layer(np.zeros((4, 2)), np.zeros(4), IDENTITY)
        assert (model.n_features, model.out_dim) == (2, 4)


class TestExu:
    def test_identity_point(self):
        # w=0, b=0: exp(0)=1, 0.4 is inside the [0,1] cap
        assert layer_output([[0.0]], [0.0], EXU, 0.4) == pytest.approx(0.4)

    def test_cap_and_floor(self):
        assert layer_output([[2.0]], [0.5], EXU, 10.0) == 1.0
        assert layer_output([[2.0]], [0.5], EXU, -10.0) == 0.0

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-50, 50)
    )
    @settings(max_examples=200, deadline=None)
    def test_output_always_in_unit_interval(self, w, b, x):
        assert 0.0 <= layer_output([[w]], [b], EXU, x) <= 1.0


def test_identity_layer_passes_bias_through():
    assert layer_output([[0.0]], [0.5], IDENTITY, 7.0) == 0.5
