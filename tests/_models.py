"""Small dense models built straight from the stacked-bank constructor."""

import numpy as np

from fednam.dnn import DnnModel, dnn_backward, dnn_inference_cache
from fednam.nam import NamModel
from fednam.nn import BINARY, IDENTITY, MULTICLASS, RELU, xavier_bank


def dense_net(dims, activation=RELU, dropout_rate=0.0, rng=0):
    """Xavier-initialized net with layer widths `dims` and an identity output layer."""
    weights, biases = xavier_bank(1, dims, rng)
    activations = [activation] * (len(dims) - 2) + [IDENTITY]
    return DnnModel(weights, biases, activations, dropout_rate, BINARY if dims[-1] == 1 else MULTICLASS)


def one_layer(weights, biases, activation):
    """A one-layer dense model from (out, in) weights and (out,) biases."""
    w = np.array(weights, dtype=float)[None]
    b = np.array(biases, dtype=float)[None]
    return DnnModel([w], [b], [activation], 0.0, BINARY if w.shape[1] == 1 else MULTICLASS)


def linear_nam(scales, output_weights, bias: float = 0.0) -> NamModel:
    """Binary NAM whose feature net k is the single linear unit x -> scales[k] * x."""
    weights = np.array(scales, dtype=float).reshape(-1, 1, 1)
    return NamModel([weights], [np.zeros((len(scales), 1))], [IDENTITY], 0.0,
                    np.array([output_weights], dtype=float), np.array([bias]), BINARY)


def input_gradients(model: DnnModel, x, dlogits):
    """dLoss/dInput of a dense model at input `x` for upstream gradient `dlogits`."""
    _, dx = dnn_backward(model, dnn_inference_cache(model, x), dlogits)
    return dx
