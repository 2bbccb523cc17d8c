"""The dense multilayer perceptron: the stacked bank with a single net (K = 1)."""

import numpy as np
import pytest

from _models import dense_net, input_gradients, one_layer
from fednam.dnn import DnnModel
from fednam.errors import ShapeMismatchError, StaleCacheError
from fednam.nn import EXU, IDENTITY, INFER, MULTICLASS, RELU, TRAIN


class TestForward:
    def test_zero_weights_pass_bias(self):
        model = one_layer([[0.0]], [0.5], IDENTITY)
        out, _ = model.forward_batch(np.array([[7.0]]))
        assert out[0, 0] == 0.5

    def test_relu_clamps_negative(self):
        model = one_layer([[2.0]], [0.0], RELU)
        out, _ = model.forward_batch(np.array([[-3.0]]))
        assert out[0, 0] == 0.0

    def test_exu_identity_point(self):
        model = one_layer([[0.0]], [0.0], EXU)
        out, _ = model.forward_batch(np.array([[0.4]]))
        assert out[0, 0] == pytest.approx(0.4)

    def test_shape_error(self):
        model = dense_net([3, 4, 2])
        with pytest.raises(ShapeMismatchError):
            model.forward_batch(np.zeros((1, 5)))
        with pytest.raises(ShapeMismatchError):
            model.forward_batch(np.zeros(3))

    def test_batch_shape(self):
        model = dense_net([3, 4, 2])
        out, _ = model.forward_batch(np.zeros((8, 3)))
        assert out.shape == (8, 2)

    def test_infer_deterministic_under_dropout_config(self):
        model = dense_net([2, 16, 16, 1], dropout_rate=0.5, rng=1)
        x = np.array([[0.3, -0.8]])
        a, _ = model.forward_batch(x, INFER, rng=1)
        b, _ = model.forward_batch(x, INFER, rng=2)
        assert np.array_equal(a, b)

    def test_train_mode_differs_with_seed(self):
        model = dense_net([2, 16, 16, 1], dropout_rate=0.5, rng=1)
        x = np.array([[0.3, -0.8]])
        a, _ = model.forward_batch(x, TRAIN, rng=1)
        b, _ = model.forward_batch(x, TRAIN, rng=2)
        assert not np.array_equal(a, b)


class TestDropout:
    def test_monte_carlo_mean_matches_infer(self):
        # inverted dropout: E[train-mode hidden activation] == infer-mode activation
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 4))
        model = DnnModel(
            [w[None], np.eye(6)[None]], [np.zeros((1, 6)), np.zeros((1, 6))],
            [RELU, IDENTITY], 0.3, MULTICLASS,
        )
        x = rng.normal(size=(1, 4))
        infer_out, _ = model.forward_batch(x, INFER)
        total = np.zeros_like(infer_out)
        n = 10_000
        for seed in range(n):
            out, _ = model.forward_batch(x, TRAIN, rng=seed)
            total += out
        mc = total / n
        scale = np.abs(infer_out).max()
        assert np.all(np.abs(mc - infer_out) <= 0.02 * scale)

    def test_no_dropout_on_output_layer(self):
        model = DnnModel([np.eye(3)[None]], [np.zeros((1, 3))], [IDENTITY], 0.9, MULTICLASS)
        x = np.array([[1.0, 2.0, 3.0]])
        out, _ = model.forward_batch(x, TRAIN, rng=0)
        assert np.array_equal(out, x)


class TestBackwardBasics:
    def test_product_rule(self):
        model = one_layer([[3.0]], [0.0], IDENTITY)
        out, cache = model.forward_batch(np.array([[2.0]]))
        assert out[0, 0] == 6.0
        grads = model.backward_batch(cache, np.array([[1.0]]))
        assert grads[0][0, 0, 0] == 2.0  # dL/dw = x
        assert input_gradients(model, np.array([[2.0]]), np.array([[1.0]]))[0, 0] == 3.0  # dL/dx = w

    def test_zero_output_grad(self):
        model = dense_net([3, 5, 5, 2])
        _, cache = model.forward_batch(np.zeros((1, 3)))
        grads = model.backward_batch(cache, np.zeros((1, 2)))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(input_gradients(model, np.zeros((1, 3)), np.zeros((1, 2))) == 0.0)

    def test_stale_cache_rejected(self):
        model = dense_net([2, 4, 1])
        _, cache = model.forward_batch(np.array([[0.1, 0.2]]))
        model.set_param_tensors([t.copy() for t in model.param_tensors()])
        with pytest.raises(StaleCacheError):
            model.backward_batch(cache, np.array([[1.0]]))

    def test_param_tensor_roundtrip_preserves_shapes(self):
        model = dense_net([2, 4, 3, 1])
        tensors = model.param_tensors()
        shapes = [t.shape for t in tensors]
        assert shapes == [(1, 4, 2), (1, 4), (1, 3, 4), (1, 3), (1, 1, 3), (1, 1)]
        model.set_param_tensors([t * 2 for t in tensors])
        assert [t.shape for t in model.param_tensors()] == shapes
        with pytest.raises(ShapeMismatchError):
            model.set_param_tensors(tensors[:-1])
