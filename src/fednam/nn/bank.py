"""K dense nets of one architecture run as one stacked bank, with manual
backprop and inverted dropout.

Layer i of all K nets is one (K, out, in) weight stack and one (K, out) bias
stack, so each layer runs as one batched matmul. The additive model is a bank
of one net per feature; the dense baseline is a bank of one net.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError, StaleCacheError
from .layers import ACTIVATIONS, EXU, LOGIT_CLAMP, activate, activation_grad, as_rng, xavier_init
from .losses import BINARY, MULTICLASS

TRAIN = "train"
INFER = "infer"
# Inference runs the rows through the layers in blocks of this many.
INFER_BLOCK_ROWS = 1024


@dataclass
class BankCache:
    """What backward needs from one forward pass through a bank.

    A training pass keeps each layer's input and pre-activation. An inference
    pass keeps neither; the first backward from its cache runs the layers once
    over `x` and keeps them here.
    """

    x: np.ndarray  # (K, batch, in) input of the first layer
    masks: list[np.ndarray | None]  # per layer, (K, batch, out); None where no dropout applies
    version: int
    out: np.ndarray | None = None  # (K, batch, out) output of the last layer
    inputs: list[np.ndarray] = field(default_factory=list)  # per layer, (K, batch, in); inputs[0] is x
    preacts: list[np.ndarray] = field(default_factory=list)  # per layer, (K, batch, out)


class NetBank:
    """K dense nets of one architecture with all parameters in one float64 vector.

    Layer i of every net is `weights[i]` (K, out, in) and `biases[i]` (K, out).
    `params` holds them layer-major -- W0, b0, W1, b1, ... -- followed by the
    subclass's `head` tensors; each is a contiguous view into it, and
    `param_tensors()` lists them in that order. `set_params` is the one write
    path: it copies a whole vector in and bumps `version`, so caches from
    earlier forward passes go stale.

    Dropout (inverted, rate in [0, 1)) applies after hidden activations only,
    never to the output layer. Inference is deterministic.
    """

    kind: str

    def __init__(self, weights, biases, activations, dropout_rate: float, task: str, head=()):
        if task not in (BINARY, MULTICLASS):
            raise ValueError(f"unknown task {task!r}")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(biases) != len(weights) or len(activations) != len(weights):
            raise ShapeMismatchError("need at least one layer, with one bias and one activation per layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 3 or b.shape != w.shape[:2] or w.shape[0] != weights[0].shape[0]:
                raise ShapeMismatchError(
                    f"layer {i}: weights {w.shape} and biases {b.shape} do not stack like layer 0"
                )
            if i and w.shape[2] != weights[i - 1].shape[1]:
                raise ShapeMismatchError(
                    f"layer {i - 1} out_dim {weights[i - 1].shape[1]} does not chain into "
                    f"layer {i} in_dim {w.shape[2]}"
                )
        if weights[0].shape[0] < 1:
            raise ShapeMismatchError("a bank needs at least one net")
        for kind in activations:
            if kind not in ACTIVATIONS:
                raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self.task = task
        self.activations = tuple(activations)
        self.dropout_rate = float(dropout_rate)
        self.version = 0
        tensors = [t for pair in zip(weights, biases) for t in pair]
        tensors += [np.asarray(t, dtype=np.float64) for t in head]
        self._shapes = [t.shape for t in tensors]
        self._bind(np.concatenate(tensors, axis=None))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        views = self.split(params)
        n = len(self.activations)
        self.weights, self.biases, self.head = views[0 : 2 * n : 2], views[1 : 2 * n : 2], views[2 * n :]

    @property
    def layout(self) -> tuple:
        """What two models must share for their parameter vectors to be averaged."""
        return (self.kind, self.task, tuple(self._shapes), self.activations)

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like `params`, in `param_tensors()` order;
        they copy nothing."""
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(vector[offset : offset + size].reshape(shape))
            offset += size
        return views

    def param_tensors(self) -> list[np.ndarray]:
        return self.split(self.params)

    def set_params(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.params.shape:
            raise ShapeMismatchError(
                f"parameter vector shape {vector.shape} does not match {self.params.shape}"
            )
        self.params[...] = vector
        self.version += 1

    def set_param_tensors(self, tensors: list[np.ndarray]) -> None:
        if [np.shape(t) for t in tensors] != self._shapes:
            raise ShapeMismatchError("tensor shapes do not match this architecture")
        self.set_params(np.concatenate(tensors, axis=None))

    def copy_params_from(self, other: "NetBank") -> None:
        self.set_params(other.params)

    def copy(self):
        """An independent model of the same class with the same parameters."""
        twin = copy.copy(self)
        twin._bind(self.params.copy())
        return twin


def xavier_bank(k: int, dims: list[int], rng: int | np.random.Generator):
    """Xavier weights and zero biases of K nets with layer widths `dims`.

    Drawn net by net, in the order K separately built nets would draw them.
    """
    gen = as_rng(rng)
    nets = [[xavier_init(a, b, gen) for a, b in zip(dims, dims[1:])] for _ in range(k)]
    weights = [np.stack(layer) for layer in zip(*nets)]
    return weights, [np.zeros(w.shape[:2]) for w in weights]


def _dropout_masks(bank: NetBank, batch: int, rng) -> list[np.ndarray | None]:
    """Training's inverted-dropout masks, (K, batch, out) for each hidden
    layer; None for the output layer, and for every layer without dropout.

    One draw, net-major then layer then row: the order in which K separate
    nets, run one after another, would consume the same stream.
    """
    masks: list[np.ndarray | None] = [None] * len(bank.weights)
    if bank.dropout_rate == 0.0:
        return masks
    k = bank.weights[0].shape[0]
    widths = [w.shape[1] for w in bank.weights[:-1]]
    draws = as_rng(rng).random((k, batch * sum(widths)))
    keep = 1.0 - bank.dropout_rate
    offset = 0
    for i, width in enumerate(widths):
        block = draws[:, offset : offset + batch * width]
        masks[i] = (block.reshape(k, batch, width) < keep) / keep
        offset += batch * width
    return masks


def _column_sums(dz: np.ndarray) -> np.ndarray:
    """Per-net sums over the batch of a (K, batch, out) array.

    A single unit sums pairwise, as numpy sums one column of a lone net;
    wider layers add row by row.
    """
    if dz.shape[2] == 1:
        return np.ascontiguousarray(dz[:, :, 0]).sum(axis=1)[:, None]
    return dz.sum(axis=1)


def _run_layers(
    bank: NetBank, x: np.ndarray, masks: list[np.ndarray | None], cache: BankCache | None = None
) -> np.ndarray:
    """The bank's output on a (K, rows, in) input; each layer's input and
    pre-activation are appended to `cache`, when given one."""
    h = x
    for w, b, kind, mask in zip(bank.weights, bank.biases, bank.activations, masks):
        if kind == EXU:
            ew = np.exp(np.clip(w, -LOGIT_CLAMP, LOGIT_CLAMP))
            z = np.matmul(h, ew.transpose(0, 2, 1))
            z -= (b * ew.sum(axis=2))[:, None, :]
        else:
            z = np.matmul(h, w.transpose(0, 2, 1))
            z += b[:, None, :]
        if cache is not None:
            cache.inputs.append(h)
            cache.preacts.append(z)
        h = activate(kind, z)
        if mask is not None:
            h = h * mask
    return h


def bank_forward(
    bank: NetBank, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
) -> tuple[np.ndarray, BankCache]:
    """Run the K nets on a (K, batch, in) input, one batched matmul per layer.

    Standard layers compute h @ W.T + b. ExU layers compute
    sum_i exp(W_ji) * (h_i - b_j): the per-unit bias shifts the input and the
    weights enter through their exponential. Returns the (K, batch, out)
    output and the cache for `bank_backward`.

    TRAIN runs all rows at once, with dropout, and caches every layer's input
    and pre-activation. INFER runs blocks of INFER_BLOCK_ROWS rows and caches
    neither. The rows left over join the last block, since BLAS takes other
    kernels for small products: a short block would not be bit-equal to the
    same rows of one pass over the batch.
    """
    if mode == TRAIN:
        cache = BankCache(x, _dropout_masks(bank, x.shape[1], rng), bank.version)
        cache.out = _run_layers(bank, x, cache.masks, cache)
        return cache.out, cache
    if mode != INFER:
        raise ValueError(f"unknown mode {mode!r}; expected {TRAIN!r} or {INFER!r}")
    masks = [None] * len(bank.weights)
    rows = x.shape[1]
    ends = [*range(INFER_BLOCK_ROWS, rows - INFER_BLOCK_ROWS + 1, INFER_BLOCK_ROWS), rows]
    h = np.empty((x.shape[0], rows, bank.weights[-1].shape[1]))
    for start, end in zip([0, *ends], ends):
        h[:, start:end] = _run_layers(bank, x[:, start:end], masks)
    return h, BankCache(x, masks, bank.version, h)


def bank_backward(
    bank: NetBank, cache: BankCache, dh: np.ndarray, grads: list[np.ndarray]
) -> np.ndarray:
    """Backpropagate dLoss/dOutput, (K, batch, out), through the K nets.

    Writes layer i's weight and bias gradients into grads[2i] and grads[2i+1],
    views laid out like `param_tensors()`, and returns dLoss/dInput,
    (K, batch, in). Each layer's input, pre-activation and dropout mask come
    from the cache; an inference cache gets them here, in one pass over `x`.
    """
    if cache.version != bank.version:
        raise StaleCacheError("cache was produced by an earlier version of the parameters")
    if not cache.inputs:
        _run_layers(bank, cache.x, cache.masks, cache)
    for i in range(len(bank.weights) - 1, -1, -1):
        kind = bank.activations[i]
        if cache.masks[i] is not None:
            dh = dh * cache.masks[i]
        dz = activation_grad(kind, cache.preacts[i], dh)
        h = cache.inputs[i]
        col = _column_sums(dz)
        w, dw, db = bank.weights[i], grads[2 * i], grads[2 * i + 1]
        if kind == EXU:
            ew = np.exp(np.clip(w, -LOGIT_CLAMP, LOGIT_CLAMP))
            shifted = np.matmul(dz.transpose(0, 2, 1), h) - bank.biases[i][:, :, None] * col[:, :, None]
            np.multiply(ew, shifted, out=dw)
            np.multiply(-ew.sum(axis=2), col, out=db)
            dh = np.matmul(dz, ew)
        else:
            np.matmul(dz.transpose(0, 2, 1), h, out=dw)
            db[...] = col
            dh = np.matmul(dz, w)
    return dh
