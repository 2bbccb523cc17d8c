from .bank import (
    INFER,
    TRAIN,
    BankCache,
    NetBank,
    bank_backward,
    bank_forward,
    xavier_bank,
)
from .layers import EXU, IDENTITY, LOGIT_CLAMP, RELU, xavier_init
from .losses import BINARY, MULTICLASS, batch_loss_and_grad, cross_entropy
from .optim import ADAM, SGD, OptimizerState, optimizer_step

__all__ = [
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
    "bank_backward",
    "bank_forward",
    "batch_loss_and_grad",
    "cross_entropy",
    "optimizer_step",
    "xavier_bank",
    "xavier_init",
]
