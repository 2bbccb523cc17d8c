from .bank import INFER, TRAIN, BankCache, NetBank, bank_backward, bank_forward, xavier_bank
from .layers import (
    ACTIVATIONS,
    EXU,
    IDENTITY,
    LOGIT_CLAMP,
    RELU,
    activate,
    as_rng,
    sigmoid,
    softmax,
    xavier_init,
)
from .losses import BINARY, MULTICLASS, batch_loss_and_grad, class_probabilities
from .optim import ADAM, SGD, OptimizerState, optimizer_step

__all__ = [
    "ACTIVATIONS",
    "ADAM",
    "BINARY",
    "BankCache",
    "EXU",
    "IDENTITY",
    "INFER",
    "LOGIT_CLAMP",
    "MULTICLASS",
    "NetBank",
    "OptimizerState",
    "RELU",
    "SGD",
    "TRAIN",
    "activate",
    "as_rng",
    "bank_backward",
    "bank_forward",
    "batch_loss_and_grad",
    "class_probabilities",
    "optimizer_step",
    "sigmoid",
    "softmax",
    "xavier_bank",
    "xavier_init",
]
