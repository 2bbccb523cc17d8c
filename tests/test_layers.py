import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import one_layer
from fednam.dnn import DnnModel
from fednam.errors import ShapeMismatchError
from fednam.nn import BINARY, EXU, IDENTITY, xavier_bank, xavier_init


def layer_output(weights, biases, activation, x):
    out, _ = one_layer(weights, biases, activation).forward_batch(np.array([[x]], dtype=float))
    return out[0, 0]


class TestXavierInit:
    def test_1x1_bound_and_zero_bias(self):
        for seed in (0, 1, 99):
            weights, biases = xavier_bank(1, [1, 1], seed)
            assert abs(weights[0][0, 0, 0]) <= math.sqrt(3.0)
            assert biases[0][0, 0] == 0.0

    def test_20x20_bound(self):
        weights = xavier_init(20, 20, 3)
        bound = math.sqrt(6.0 / 40.0)
        assert weights.shape == (20, 20)
        assert np.all(np.abs(weights) <= bound)

    def test_deterministic(self):
        a = xavier_bank(3, [7, 5, 2], 42)
        b = xavier_bank(3, [7, 5, 2], 42)
        for x, y in zip(a[0] + a[1], b[0] + b[1]):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = xavier_init(7, 5, 1)
        b = xavier_init(7, 5, 2)
        assert not np.array_equal(a, b)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeMismatchError):
            xavier_init(0, 3, 0)


class TestLayerParams:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            one_layer(np.zeros((2, 3)), np.zeros(3), IDENTITY)
        with pytest.raises(ShapeMismatchError, match="does not chain"):
            DnnModel([np.zeros((1, 4, 2)), np.zeros((1, 1, 3))], [np.zeros((1, 4)), np.zeros((1, 1))],
                     [EXU, IDENTITY], 0.0, BINARY)

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
