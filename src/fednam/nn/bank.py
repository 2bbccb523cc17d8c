"""K dense nets of one architecture run as one stacked bank, with manual
backprop and inverted dropout.

Layer i of all K nets is one (K, out, in) weight stack and one (K, out) bias
stack, so each layer runs as one batched matmul. The additive model is a bank
of one net per feature; the dense baseline is a bank of one net.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError, StaleCacheError
from .layers import ACTIVATIONS, EXU, LOGIT_CLAMP, activate, activation_grad, xavier_init
from .losses import BINARY, MULTICLASS

TRAIN = "train"
INFER = "infer"
# Inference runs the rows through the layers in blocks of this many.
INFER_BLOCK_ROWS = 1024
# A weight gradient sums the batch in blocks of at most this many rows, added in
# order. OpenBLAS sums a product no deeper than its inner blocking in one order
# whatever its thread count; a deeper one it may cut where the thread count
# decides (with Skylake-X kernels, most depths from 385 to 1,023 rows, and 1,500).
GRAD_BLOCK_ROWS = 256


@dataclass
class BankCache:
    """What backward needs from one forward pass through a bank.

    `acts` holds the (K, batch, in) input and, after a training pass, each
    layer's output after dropout: layer i reads acts[i] and writes acts[i + 1].
    An inference pass keeps the input alone; the first backward from its cache
    runs the layers once over it and appends their outputs here.
    """

    acts: list[np.ndarray]  # the input, then each layer's (K, batch, out) output
    masks: list[np.ndarray | None]  # per layer, (K, batch, out); None where no dropout applies
    version: int
    features: np.ndarray | None = None  # (batch, K) a NAM's feature-net outputs, which its head reads


class NetBank:
    """K dense nets of one architecture with all parameters in one float64 vector.

    Built from the architecture: K nets of layer widths `dims`, then the
    subclass's `head_shapes`. Layer i of every net is `weights[i]` (K, out, in)
    and `biases[i]` (K, out). `params` holds them layer-major -- W0, b0, W1,
    b1, ... -- followed by the `head` tensors; each is a contiguous view into
    it, and `param_tensors()` lists them in that order. Construction allocates
    `params` once, as zeros, and fills it in place before any forward pass.
    After that, `set_params` is the one write path: it copies a whole vector in
    and bumps `version`, so caches from earlier forward passes go stale.

    Dropout (inverted, rate in [0, 1)) applies after hidden activations only,
    never to the output layer. Inference is deterministic.
    """

    def __init__(self, k: int, dims, activations, dropout_rate: float, task: str, head_shapes=()):
        if task not in (BINARY, MULTICLASS):
            raise ValueError(f"unknown task {task!r}")
        if not activations or len(activations) != len(dims) - 1 or k < 1 or min(dims) < 1:
            raise ShapeMismatchError(f"need K >= 1 nets of widths >= 1, one activation per layer: "
                                     f"got {k} nets of widths {dims} with activations {activations}")
        for kind in activations:
            if kind not in ACTIVATIONS:
                raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self.task = task
        self.activations = tuple(activations)
        self.dropout_rate = float(dropout_rate)
        self.version = 0
        self._shapes = bank_shapes(k, dims, head_shapes)
        self._bind(np.zeros(sum(math.prod(shape) for shape in self._shapes)))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        views = self.split(params)
        n = len(self.activations)
        self.weights, self.biases, self.head = views[0 : 2 * n : 2], views[1 : 2 * n : 2], views[2 * n :]

    @property
    def layout(self) -> tuple:
        """What two models must share for their parameter vectors to be averaged."""
        return (type(self), self.task, tuple(self._shapes), self.activations)

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
        check_shapes(tensors, self._shapes)
        for view, tensor in zip(self.param_tensors(), tensors):
            view[...] = tensor
        self.version += 1

    def copy_params_from(self, other: "NetBank") -> None:
        self.set_params(other.params)

    def copy(self):
        """An independent model of the same class with the same parameters."""
        twin = copy.copy(self)
        twin._bind(self.params.copy())
        return twin


def bank_shapes(k: int, dims, head_shapes=()) -> list[tuple[int, ...]]:
    """Shapes in `params` order: each layer's (K, out, in) weights and (K, out) biases, then the head's."""
    return [shape for a, b in zip(dims, dims[1:]) for shape in ((k, b, a), (k, b))] + list(head_shapes)


def check_shapes(tensors, shapes) -> None:
    """Raise ShapeMismatchError naming the first tensor whose shape is not in `shapes`."""
    if len(tensors) != len(shapes):
        raise ShapeMismatchError(f"{len(tensors)} tensors given, expected {len(shapes)}")
    for i, (tensor, shape) in enumerate(zip(tensors, shapes)):
        if np.shape(tensor) != shape:
            raise ShapeMismatchError(f"tensor {i} has shape {np.shape(tensor)}, expected {shape}")


def xavier_bank(bank: NetBank, rng: int | np.random.Generator) -> None:
    """Xavier weights written into the bank's weight views net by net, in the
    order K separately built nets would draw them; the biases stay zero."""
    gen = np.random.default_rng(rng)
    for k in range(bank.weights[0].shape[0]):
        for w in bank.weights:
            xavier_init(w[k], gen)


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
    keep = 1.0 - bank.dropout_rate
    # True * (1 / keep) is the 1 / keep that True / keep gives, at less cost
    scaled = (np.random.default_rng(rng).random((k, batch * sum(widths))) < keep) * (1.0 / keep)
    offset = 0
    for i, width in enumerate(widths):
        masks[i] = scaled[:, offset : offset + batch * width].reshape(k, batch, width)
        offset += batch * width
    return masks


def row_block_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a^T @ b, summed over the rows (axis -2) of both as the products of
    blocks of GRAD_BLOCK_ROWS rows, and of the rows left over, added in block
    order; up to GRAD_BLOCK_ROWS rows the first product is the whole sum."""
    at, rows = a.swapaxes(-1, -2), a.shape[-2]
    out = np.matmul(at[..., :GRAD_BLOCK_ROWS], b[..., :GRAD_BLOCK_ROWS, :], out=out)
    for start in range(GRAD_BLOCK_ROWS, rows, GRAD_BLOCK_ROWS):
        block = slice(start, start + GRAD_BLOCK_ROWS)
        out += np.matmul(at[..., block], b[..., block, :])
    return out


def _run_layers(
    bank: NetBank, x: np.ndarray, masks: list[np.ndarray | None], cache: BankCache | None = None
) -> np.ndarray:
    """The bank's output on a (K, rows, in) input, one matmul per layer, a
    one-input layer's outer product too; each layer's output after dropout is
    appended to `cache.acts`, when given a cache."""
    h = x
    for w, b, kind, mask in zip(bank.weights, bank.biases, bank.activations, masks):
        if kind == EXU:  # the standard layer over exp(W) and -b * rowsum(exp(W))
            w = w.clip(-LOGIT_CLAMP, LOGIT_CLAMP)
            np.exp(w, out=w)
            b = -(b * np.add.reduce(w, axis=2))
        z = np.matmul(h, w.transpose(0, 2, 1))
        z += b[:, None, :]
        h = activate(kind, z)
        if mask is not None:
            np.multiply(h, mask, out=h)
        if cache is not None:
            cache.acts.append(h)
    return h


def bank_forward(
    bank: NetBank, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
) -> tuple[np.ndarray, BankCache]:
    """Run the K nets on a (K, batch, in) input, one batched matmul per layer.

    Every layer computes h @ W.T + b. An ExU layer computes
    sum_i exp(W_ji) * (h_i - b_j), which is that layer over W' = exp(W) and
    b' = -b * rowsum(W'). Returns the (K, batch, out) output and the cache for
    `bank_backward`.

    TRAIN runs all rows at once, with dropout, and caches every layer's output.
    INFER runs every batch in blocks of INFER_BLOCK_ROWS rows and caches the
    input alone; a batch of fewer than 2 * INFER_BLOCK_ROWS rows is one block.
    The rows left over join the last block, since BLAS takes other kernels for
    small products: a short block would not be bit-equal to the same rows of
    one pass over the batch.
    """
    if mode == TRAIN:
        cache = BankCache([x], _dropout_masks(bank, x.shape[1], rng), bank.version)
        return _run_layers(bank, x, cache.masks, cache), cache
    if mode != INFER:
        raise ValueError(f"unknown mode {mode!r}; expected {TRAIN!r} or {INFER!r}")
    masks = [None] * len(bank.weights)
    rows = x.shape[1]
    ends = [*range(INFER_BLOCK_ROWS, rows - INFER_BLOCK_ROWS + 1, INFER_BLOCK_ROWS), rows]
    h = np.empty((x.shape[0], rows, bank.weights[-1].shape[1]))
    for start, end in zip([0, *ends], ends):
        h[:, start:end] = _run_layers(bank, x[:, start:end], masks)
    return h, BankCache([x], masks, bank.version)


def bank_backward(
    bank: NetBank, cache: BankCache, dh: np.ndarray, grads: list[np.ndarray], input_grad: bool = True
) -> np.ndarray | None:
    """Backpropagate dLoss/dOutput, (K, batch, out), through the K nets.

    Writes layer i's weight and bias gradients into grads[2i] and grads[2i+1],
    views laid out like `param_tensors()`, summing each weight gradient over
    the batch by `row_block_product` and reducing each bias gradient over the
    batch of the upstream, in C order, straight into its view; an ExU layer
    then maps both back through exp(W) and -b * rowsum(exp(W)). Returns
    dLoss/dInput, (K, batch, in), or None without `input_grad`. Each layer's
    input, output (which gives its slope) and dropout mask come from the
    cache; an inference cache gets the outputs here, in one pass over its input.
    """
    if cache.version != bank.version:
        raise StaleCacheError("cache was produced by an earlier version of the parameters")
    if len(cache.acts) == 1:
        _run_layers(bank, cache.acts[0], cache.masks, cache)
    for i in range(len(bank.weights) - 1, -1, -1):
        kind, mask = bank.activations[i], cache.masks[i]
        if mask is not None:
            # the output layer has no mask, so `dh` is this loop's own product
            np.multiply(dh, mask, out=dh)
        dz = activation_grad(kind, cache.acts[i + 1], dh, 1.0 if mask is None else mask)
        w, dw, db = bank.weights[i], grads[2 * i], grads[2 * i + 1]
        row_block_product(dz, cache.acts[i], out=dw)
        np.add.reduce(np.ascontiguousarray(dz), axis=1, out=db)
        if kind == EXU:  # back through b' = -b * rowsum(exp(W)) and W' = exp(W)
            w = w.clip(-LOGIT_CLAMP, LOGIT_CLAMP)
            np.exp(w, out=w)
            dw -= bank.biases[i][:, :, None] * db[:, :, None]
            dw *= w
            db *= -np.add.reduce(w, axis=2)
        if i == 0 and not input_grad:
            return None
        dh = np.matmul(dz, w)
    return dh
