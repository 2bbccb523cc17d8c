"""Backprop vs central finite differences (the oracle is in _oracles.py)."""

import numpy as np
import pytest

from _models import dense_net, input_gradients
from _oracles import finite_diff_grads, max_rel_err
from fednam.nn import (
    BINARY,
    EXU,
    MULTICLASS,
    RELU,
    TRAIN,
    batch_loss_and_grad,
)

TOL = 1e-4


def mlp_loss_closure(net, x, y, task, mode="infer", seed=0):
    def loss():
        logits, _ = net.forward_batch(x, mode, rng=seed)
        value, _ = batch_loss_and_grad(np.atleast_2d(logits), np.atleast_1d(y), task)
        return value

    return loss


def backprop_grads(net, x, y, task, mode="infer", seed=0):
    logits, cache = net.forward_batch(x, mode, rng=seed)
    _, dlogits = batch_loss_and_grad(np.atleast_2d(logits), np.atleast_1d(y), task)
    return net.backward_batch(cache, dlogits)


@pytest.mark.parametrize("seed", range(6))
def test_random_two_layer_binary(seed):
    rng = np.random.default_rng(seed)
    net = dense_net([4, 8, 6, 1], RELU, rng=seed)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 2, size=5)
    analytic = backprop_grads(net, x, y, BINARY)
    numeric = finite_diff_grads(mlp_loss_closure(net, x, y, BINARY), net.param_tensors())
    assert max_rel_err(analytic, numeric) < TOL


@pytest.mark.parametrize("seed", range(3))
def test_random_three_layer_multiclass(seed):
    rng = np.random.default_rng(100 + seed)
    net = dense_net([3, 10, 10, 10, 4], RELU, rng=200 + seed)
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 4, size=4)
    analytic = backprop_grads(net, x, y, MULTICLASS)
    numeric = finite_diff_grads(mlp_loss_closure(net, x, y, MULTICLASS), net.param_tensors())
    assert max_rel_err(analytic, numeric) < TOL


def test_exu_hidden_units():
    rng = np.random.default_rng(7)
    net = dense_net([1, 12, 12, 1], EXU, rng=7)
    x = rng.normal(size=(6, 1))
    y = rng.integers(0, 2, size=6)
    analytic = backprop_grads(net, x, y, BINARY)
    numeric = finite_diff_grads(mlp_loss_closure(net, x, y, BINARY), net.param_tensors())
    assert max_rel_err(analytic, numeric) < TOL


def test_gradients_with_fixed_dropout_mask():
    # same forward seed -> same mask, so finite differences stay valid in train mode
    rng = np.random.default_rng(13)
    net = dense_net([4, 10, 10, 1], RELU, dropout_rate=0.25, rng=13)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    analytic = backprop_grads(net, x, y, BINARY, mode=TRAIN, seed=99)
    numeric = finite_diff_grads(
        mlp_loss_closure(net, x, y, BINARY, mode=TRAIN, seed=99), net.param_tensors()
    )
    assert max_rel_err(analytic, numeric) < TOL


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    net = dense_net([5, 9, 1], RELU, rng=17)
    x = rng.normal(size=(3, 5))
    y = rng.integers(0, 2, size=3)
    logits, _ = net.forward_batch(x)
    _, dlogits = batch_loss_and_grad(logits, y, BINARY)
    dx = input_gradients(net, x, dlogits)
    numeric = finite_diff_grads(mlp_loss_closure(net, x, y, BINARY), [x])
    assert max_rel_err([dx], numeric) < TOL
