from .layers import (
    ACTIVATIONS,
    EXU,
    IDENTITY,
    LOGIT_CLAMP,
    RELU,
    LayerParams,
    activate,
    as_rng,
    sigmoid,
    softmax,
    xavier_init,
)
from .losses import BINARY, MULTICLASS, batch_loss_and_grad, loss_and_grad
from .mlp import INFER, TRAIN, ForwardCache, Mlp, make_mlp
from .optim import ADAM, SGD, OptimizerState, optimizer_step

__all__ = [
    "ACTIVATIONS",
    "ADAM",
    "BINARY",
    "EXU",
    "ForwardCache",
    "IDENTITY",
    "INFER",
    "LOGIT_CLAMP",
    "LayerParams",
    "MULTICLASS",
    "Mlp",
    "OptimizerState",
    "RELU",
    "SGD",
    "TRAIN",
    "activate",
    "as_rng",
    "batch_loss_and_grad",
    "loss_and_grad",
    "make_mlp",
    "optimizer_step",
    "sigmoid",
    "softmax",
    "xavier_init",
]
