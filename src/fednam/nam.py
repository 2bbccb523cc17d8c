"""Additive model: one tiny MLP per feature plus a linear output head.

Every logit decomposes exactly as bias + sum_k output_weights[c,k] * f_k(x_k),
so each feature's contribution to each prediction can be read off directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError, StaleCacheError
from .nn import (
    BINARY,
    EXU,
    INFER,
    LOGIT_CLAMP,
    MULTICLASS,
    RELU,
    TRAIN,
    Mlp,
    activate,
    as_rng,
    make_mlp,
    sigmoid,
    softmax,
    xavier_init,
)
from .nn.layers import LayerParams, activation_grad
from .nn.mlp import FlatParams, pack

MODEL_SCHEMA_VERSION = 1


class FeatureNet:
    """Univariate shape function: an MLP from one scalar feature to one scalar."""

    def __init__(self, mlp: Mlp, feature_index: int):
        if mlp.in_dim != 1 or mlp.out_dim != 1:
            raise ShapeMismatchError("a FeatureNet must map exactly one input to one output")
        self.mlp = mlp
        self.feature_index = feature_index

    def copy(self) -> "FeatureNet":
        return FeatureNet(self.mlp.copy(), self.feature_index)


@dataclass
class NamCache:
    """What backward needs from one forward pass over all K feature nets.

    Each layer's input is recomputed from the previous layer's cached
    pre-activation and dropout mask, so no layer input is stored.
    """

    x: np.ndarray  # (batch, K) input
    preacts: list[np.ndarray]  # per layer, (K, batch, out)
    masks: list[np.ndarray | None]  # per layer, (K, batch, out); None where no dropout applies
    feature_outputs: np.ndarray  # (batch, K)
    version: int


class NamModel(FlatParams):
    """K FeatureNets combined by a single linear map (no activation) into C_out logits.

    `params` holds each FeatureNet's Mlp as one slice in feature order, then
    the output head; `feature_nets[k].mlp.params` is feature k's slice. The
    model takes over the given feature nets: their values move into `params`.
    All feature nets share one architecture, so layer i of every net is also
    seen as one stacked bank: `bank_weights[i]` (K, out, in) and
    `bank_biases[i]` (K, out), views into `params` that forward and backward
    run as one batched matmul per layer.
    """

    kind = "nam"

    def __init__(
        self,
        feature_nets: list[FeatureNet],
        output_weights: np.ndarray,
        output_bias: np.ndarray,
        task: str,
    ):
        if task not in (BINARY, MULTICLASS):
            raise ValueError(f"unknown task {task!r}")
        if not feature_nets:
            raise ShapeMismatchError("a NamModel needs at least one feature net")
        output_weights = np.asarray(output_weights, dtype=np.float64)
        output_bias = np.asarray(output_bias, dtype=np.float64)
        if output_weights.ndim != 2 or output_weights.shape[1] != len(feature_nets):
            raise ShapeMismatchError(
                f"output_weights {output_weights.shape} does not match {len(feature_nets)} feature nets"
            )
        if output_bias.shape != (output_weights.shape[0],):
            raise ShapeMismatchError("output_bias does not match output_weights rows")
        if task == BINARY and output_weights.shape[0] != 1:
            raise ShapeMismatchError("binary task requires exactly one output row")
        first = feature_nets[0].mlp
        for k, net in enumerate(feature_nets[1:], start=1):
            if _net_architecture(net.mlp) != _net_architecture(first):
                raise ShapeMismatchError(
                    f"feature net {k} has a different architecture than feature net 0"
                )
        self.feature_nets = feature_nets
        self.task = task
        self.activations = tuple(first.activations)
        self.dropout_rate = first.dropout_rate
        self.version = 0
        self._net_tensors = [(t.size, t.shape) for t in first.param_tensors()]
        net_size = first.params.size
        self._bank_size = len(feature_nets) * net_size
        self.params = np.empty(self._bank_size + output_weights.size + output_bias.size)
        for k, net in enumerate(feature_nets):
            net.mlp.bind(self.params[k * net_size : (k + 1) * net_size])
        self.output_weights, self.output_bias = pack(
            [output_weights, output_bias], self.params[self._bank_size :]
        )
        self.bank_weights, self.bank_biases = self.bank_views(self.params)

    @property
    def n_features(self) -> int:
        return len(self.feature_nets)

    @property
    def out_dim(self) -> int:
        return self.output_weights.shape[0]

    @property
    def layout(self) -> tuple:
        """What two models must share for their parameter vectors to be averaged."""
        shapes = tuple(w.shape for w in self.bank_weights)
        return (self.kind, self.task, shapes, self.output_weights.shape, self.activations)

    def bank_views(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Stacked (K, out, in) weight and (K, out) bias views, one per layer,
        into a vector laid out like `params`; they copy nothing."""
        k = self.n_features
        nets = vector[: self._bank_size].reshape(k, self._bank_size // k)
        views, offset = [], 0
        for size, shape in self._net_tensors:
            views.append(nets[:, offset : offset + size].reshape(k, *shape))
            offset += size
        return views[0::2], views[1::2]

    def tensor_views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like `params`, in `param_tensors()` order."""
        weights, biases = self.bank_views(vector)
        per_layer = [list(t) for pair in zip(weights, biases) for t in pair]
        nets = [t for tensors in zip(*per_layer) for t in tensors]
        head = vector[self._bank_size :]
        head_weights = head[: -self.out_dim].reshape(self.output_weights.shape)
        return nets + [head_weights, head[-self.out_dim :]]

    def param_tensors(self) -> list[np.ndarray]:
        return self.tensor_views(self.params)

    def copy(self) -> "NamModel":
        nets = [net.copy() for net in self.feature_nets]
        return NamModel(nets, self.output_weights, self.output_bias, self.task)

    def forward_batch(
        self, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
    ) -> tuple[np.ndarray, NamCache]:
        logits, _, cache = nam_forward(self, x, mode, rng)
        return logits, cache

    def backward_batch(self, cache: NamCache, dlogits: np.ndarray) -> list[np.ndarray]:
        grads, _ = nam_backward(self, cache, dlogits)
        return grads


def _net_architecture(mlp: Mlp) -> tuple:
    return ([t.shape for t in mlp.param_tensors()], list(mlp.activations), mlp.dropout_rate)


def build_nam(
    n_features: int,
    task: str,
    n_classes: int = 2,
    hidden_layers: int = 3,
    hidden_units: int = 20,
    hidden_activation: str = RELU,
    dropout_rate: float = 0.0,
    rng: int | np.random.Generator = 0,
) -> NamModel:
    """Xavier-initialized NamModel; binary tasks get one logit, multiclass gets n_classes."""
    gen = as_rng(rng)
    out_dim = 1 if task == BINARY else n_classes
    nets = [
        FeatureNet(
            make_mlp(1, [hidden_units] * hidden_layers, 1, hidden_activation, dropout_rate, gen),
            feature_index=k,
        )
        for k in range(n_features)
    ]
    head = xavier_init(n_features, out_dim, gen)
    return NamModel(nets, head.weights, np.zeros(out_dim), task)


def _dropout_masks(model: NamModel, batch: int, mode: str, rng) -> list[np.ndarray | None]:
    """Inverted-dropout masks, (K, batch, out) for each hidden layer; None for
    the output layer, and for every layer outside training or without dropout.

    One draw, feature-major then layer then row: the order in which K separate
    nets, run one after another, would consume the same stream.
    """
    masks: list[np.ndarray | None] = [None] * len(model.bank_weights)
    if mode != TRAIN or model.dropout_rate == 0.0:
        return masks
    widths = [w.shape[1] for w in model.bank_weights[:-1]]
    draws = as_rng(rng).random((model.n_features, batch * sum(widths)))
    keep = 1.0 - model.dropout_rate
    offset = 0
    for i, width in enumerate(widths):
        block = draws[:, offset : offset + batch * width]
        masks[i] = (block.reshape(model.n_features, batch, width) < keep) / keep
        offset += batch * width
    return masks


def _layer_output(kind: str, z: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """A layer's activation with its dropout mask applied: the next layer's input."""
    h = activate(kind, z)
    if mask is not None:
        h = h * mask
    return h


def _column_sums(dz: np.ndarray) -> np.ndarray:
    """Per-feature sums over the batch of a (K, batch, out) array.

    A single unit sums pairwise, as numpy sums one column of a feature net;
    wider layers add row by row.
    """
    if dz.shape[2] == 1:
        return np.ascontiguousarray(dz[:, :, 0]).sum(axis=1)[:, None]
    return dz.sum(axis=1)


def nam_forward(
    model: NamModel, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
) -> tuple[np.ndarray, np.ndarray, NamCache]:
    """Logits, per-feature terms, and caches for a (batch, K) or (K,) input.

    terms[..., c, k] == output_weights[c, k] * f_k(x_k) and
    logits == output_bias + terms.sum over k, exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeMismatchError(
            f"input shape {x.shape} incompatible with {model.n_features} features"
        )
    masks = _dropout_masks(model, x.shape[0], mode, rng)
    # feature k's column as a strided (batch, 1) view, as a lone feature net sees it
    h = x.T[:, :, None]
    preacts = []
    for i, (w, b, kind) in enumerate(zip(model.bank_weights, model.bank_biases, model.activations)):
        if kind == EXU:
            ew = np.exp(np.clip(w, -LOGIT_CLAMP, LOGIT_CLAMP))
            z = np.matmul(h, ew.transpose(0, 2, 1))
            z -= (b * ew.sum(axis=2))[:, None, :]
        else:
            z = np.matmul(h, w.transpose(0, 2, 1))
            z += b[:, None, :]
        preacts.append(z)
        h = _layer_output(kind, z, masks[i])
    outputs = np.ascontiguousarray(h[:, :, 0].T)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = terms.sum(axis=2) + model.output_bias
    cache = NamCache(x, preacts, masks, outputs, model.version)
    if squeeze:
        return logits[0], terms[0], cache
    return logits, terms, cache


def nam_backward(
    model: NamModel, cache: NamCache, dlogits: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients for every FeatureNet and the output head, plus dLoss/dInput.

    The gradients fill one vector laid out like `params`; the returned list
    holds views of it aligned with `param_tensors()`. The gradient for
    FeatureNet k flows only through its own additive term.
    """
    if cache.version != model.version:
        raise StaleCacheError("cache was produced by an earlier version of the parameters")
    g = np.asarray(dlogits, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache.feature_outputs.shape[0], model.out_dim):
        raise ShapeMismatchError(f"dlogits shape {g.shape} does not match forward batch")
    grad = np.empty_like(model.params)
    dws, dbs = model.bank_views(grad)
    # feature k's upstream gradient as a strided (batch, 1) view
    dh = (g @ model.output_weights).T[:, :, None]
    for i in range(len(model.bank_weights) - 1, -1, -1):
        kind = model.activations[i]
        if cache.masks[i] is not None:
            dh = dh * cache.masks[i]
        dz = activation_grad(kind, cache.preacts[i], dh)
        if i == 0:
            h = cache.x.T[:, :, None]
        else:
            h = _layer_output(model.activations[i - 1], cache.preacts[i - 1], cache.masks[i - 1])
        col = _column_sums(dz)
        if kind == EXU:
            w, b = model.bank_weights[i], model.bank_biases[i]
            ew = np.exp(np.clip(w, -LOGIT_CLAMP, LOGIT_CLAMP))
            shifted = np.matmul(dz.transpose(0, 2, 1), h) - b[:, :, None] * col[:, :, None]
            np.multiply(ew, shifted, out=dws[i])
            np.multiply(-ew.sum(axis=2), col, out=dbs[i])
            dh = np.matmul(dz, ew)
        else:
            np.matmul(dz.transpose(0, 2, 1), h, out=dws[i])
            dbs[i][...] = col
            dh = np.matmul(dz, model.bank_weights[i])
    grads = model.tensor_views(grad)
    np.matmul(g.T, cache.feature_outputs, out=grads[-2])
    grads[-1][...] = g.sum(axis=0)
    return grads, np.ascontiguousarray(dh[:, :, 0].T)


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Class probabilities in inference mode: sigmoid (binary) or softmax (multiclass).

    Binary returns P(class 1) per row; multiclass returns one row per input.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    batch = x[None, :] if squeeze else x
    logits, _ = model.forward_batch(batch, INFER)
    probs = sigmoid(logits[:, 0]) if model.task == BINARY else softmax(logits)
    return probs[0] if squeeze else probs


@dataclass
class PredictionTerm:
    feature_index: int
    feature_name: str
    values: np.ndarray  # (C_out,) contribution of this feature to each logit


@dataclass
class PredictionBreakdown:
    terms: list[PredictionTerm]  # sorted by descending mean |value|
    bias: np.ndarray
    logits: np.ndarray


def decompose_prediction(
    model: NamModel, x: np.ndarray, feature_names: list[str] | None = None
) -> PredictionBreakdown:
    """Exact per-feature additive breakdown of one prediction, largest terms first."""
    logits, terms, _ = nam_forward(model, np.asarray(x, dtype=np.float64), INFER)
    names = feature_names or [f"feature_{k}" for k in range(model.n_features)]
    if len(names) != model.n_features:
        raise ShapeMismatchError("feature_names length does not match model")
    entries = [PredictionTerm(k, names[k], terms[:, k]) for k in range(model.n_features)]
    entries.sort(key=lambda t: (-float(np.abs(t.values).mean()), t.feature_index))
    return PredictionBreakdown(entries, model.output_bias.copy(), logits)


def effective_shape(model: NamModel, feature_index: int, class_index: int, xs: np.ndarray) -> np.ndarray:
    """g_{c,k}(xs) = output_weights[c,k] * f_k(xs) evaluated in inference mode."""
    xs = np.asarray(xs, dtype=np.float64)
    out, _ = model.feature_nets[feature_index].mlp.forward(xs[:, None], INFER)
    return model.output_weights[class_index, feature_index] * out[:, 0]


def _mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "activations": list(mlp.activations),
        "dropout_rate": mlp.dropout_rate,
        "layers": [
            {"weights": p.weights.tolist(), "biases": p.biases.tolist()} for p in mlp.layers
        ],
    }


def _mlp_from_dict(doc: dict) -> Mlp:
    layers = [
        LayerParams(np.array(d["weights"], dtype=np.float64), np.array(d["biases"], dtype=np.float64))
        for d in doc["layers"]
    ]
    return Mlp(layers, list(doc["activations"]), float(doc["dropout_rate"]))


def nam_to_dict(model: NamModel, feature_names: list[str]) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "task": model.task,
        "feature_names": list(feature_names),
        "feature_nets": [_mlp_to_dict(net.mlp) for net in model.feature_nets],
        "output_weights": model.output_weights.tolist(),
        "output_bias": model.output_bias.tolist(),
    }


def nam_from_dict(doc: dict) -> tuple[NamModel, list[str]]:
    nets = [FeatureNet(_mlp_from_dict(d), k) for k, d in enumerate(doc["feature_nets"])]
    model = NamModel(
        nets,
        np.array(doc["output_weights"], dtype=np.float64),
        np.array(doc["output_bias"], dtype=np.float64),
        doc["task"],
    )
    return model, list(doc["feature_names"])


def save_model(model, feature_names: list[str], path: str | Path) -> None:
    """Write the model as JSON; floats use shortest round-trip decimals, so the
    on-disk form restores bit-identical doubles."""
    if model.kind == "nam":
        doc = nam_to_dict(model, feature_names)
    else:
        doc = model.to_dict(feature_names)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_model(path: str | Path):
    """Load a model JSON written by save_model; returns (model, feature_names).

    Missing keys, mismatched shapes and non-finite weights raise DataError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataError(f"model file {path} is missing a schema_version")
    found = doc["schema_version"]
    if found != MODEL_SCHEMA_VERSION:
        raise ConfigError(
            f"model schema version mismatch: expected {MODEL_SCHEMA_VERSION}, found {found}"
        )
    kind = doc.get("kind", "nam")
    if kind == "nam":
        from_dict = nam_from_dict
    elif kind == "dnn":
        from .dnn import dnn_from_dict as from_dict
    else:
        raise DataError(f"model file {path} has unknown model kind {kind!r}")
    try:
        model, feature_names = from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    if not np.isfinite(model.params).all():
        raise DataError(f"model file {path} holds non-finite weights")
    return model, feature_names
