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
    INFER,
    MULTICLASS,
    RELU,
    ForwardCache,
    Mlp,
    as_rng,
    make_mlp,
    sigmoid,
    softmax,
    xavier_init,
)
from .nn.layers import LayerParams
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
    feature_outputs: np.ndarray  # (batch, K)
    net_caches: list[ForwardCache]
    version: int


class NamModel(FlatParams):
    """K FeatureNets combined by a single linear map (no activation) into C_out logits.

    `params` holds each FeatureNet's Mlp as one slice in feature order, then
    the output head; `feature_nets[k].mlp.params` is feature k's slice. The
    model takes over the given feature nets: their values move into `params`.
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
        self.feature_nets = feature_nets
        self.task = task
        self.version = 0
        sizes = [net.mlp.params.size for net in feature_nets]
        self.params = np.empty(sum(sizes) + output_weights.size + output_bias.size)
        offset = 0
        for net, size in zip(feature_nets, sizes):
            net.mlp.bind(self.params[offset : offset + size])
            offset += size
        self.output_weights, self.output_bias = pack(
            [output_weights, output_bias], self.params[offset:]
        )

    @property
    def n_features(self) -> int:
        return len(self.feature_nets)

    @property
    def out_dim(self) -> int:
        return self.output_weights.shape[0]

    def param_tensors(self) -> list[np.ndarray]:
        nets = [t for net in self.feature_nets for t in net.mlp.param_tensors()]
        return nets + [self.output_weights, self.output_bias]

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
    gen = as_rng(rng)
    outputs = np.empty((x.shape[0], model.n_features))
    caches: list[ForwardCache] = []
    for k, net in enumerate(model.feature_nets):
        out, cache = net.mlp.forward(x[:, k : k + 1], mode, gen)
        outputs[:, k] = out[:, 0]
        caches.append(cache)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = terms.sum(axis=2) + model.output_bias
    cache = NamCache(outputs, caches, model.version)
    if squeeze:
        return logits[0], terms[0], cache
    return logits, terms, cache


def nam_backward(
    model: NamModel, cache: NamCache, dlogits: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients for every FeatureNet and the output head, plus dLoss/dInput.

    The gradient for FeatureNet k flows only through its own additive term.
    """
    if cache.version != model.version:
        raise StaleCacheError("cache was produced by an earlier version of the parameters")
    g = np.asarray(dlogits, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache.feature_outputs.shape[0], model.out_dim):
        raise ShapeMismatchError(f"dlogits shape {g.shape} does not match forward batch")
    d_outputs = g @ model.output_weights  # (batch, K)
    grads: list[np.ndarray] = []
    d_input = np.empty_like(cache.feature_outputs)
    for k, net in enumerate(model.feature_nets):
        net_grads, dx = net.mlp.backward(cache.net_caches[k], d_outputs[:, k : k + 1])
        grads.extend(net_grads)
        d_input[:, k] = dx[:, 0]
    grads.append(g.T @ cache.feature_outputs)  # output_weights grad
    grads.append(g.sum(axis=0))  # output_bias grad
    return grads, d_input


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
