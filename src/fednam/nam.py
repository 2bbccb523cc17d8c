"""Additive model: one tiny net per feature plus a linear output head.

Every logit decomposes exactly as bias + sum_k output_weights[c,k] * f_k(x_k),
so each feature's contribution to each prediction can be read off directly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .nn import (
    BINARY,
    IDENTITY,
    INFER,
    RELU,
    BankCache,
    NetBank,
    bank_backward,
    bank_forward,
    xavier_bank,
    xavier_init,
)
from .nn.bank import bank_shapes, check_shapes, row_block_product

MODEL_SCHEMA_VERSION = 1


class NamModel(NetBank):
    """A bank of K feature nets, each from one scalar feature to one scalar,
    combined by a single linear map (no activation) into C_out logits.

    `params` holds the stacked layers and then the head: `output_weights`
    (C_out, K) and `output_bias` (C_out,).
    """

    kind = "nam"  # the model file's "kind"

    def __init__(self, n_features, hidden, activations, dropout_rate, out_dim, task):
        head = _head_shapes(n_features, out_dim)
        super().__init__(n_features, [1, *hidden, 1], activations, dropout_rate, task, head)
        if task == BINARY and out_dim != 1:
            raise ShapeMismatchError("binary task requires exactly one output row")

    @property
    def output_weights(self) -> np.ndarray:
        return self.head[0]

    @property
    def output_bias(self) -> np.ndarray:
        return self.head[1]

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.output_weights.shape[0]

    def forward_batch(
        self, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
    ) -> tuple[np.ndarray, BankCache]:
        logits, _, cache = nam_forward(self, x, mode, rng)
        return logits, cache

    def backward_batch(
        self, cache: BankCache, dlogits: np.ndarray, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        grads, _ = nam_backward(self, cache, dlogits, out, input_grad=False)
        return grads

    def to_dict(self) -> dict:
        """The model file's keys: one dict per feature net, with its own layer
        list, then the head."""
        return {
            "feature_nets": [
                {
                    "activations": list(self.activations),
                    "dropout_rate": self.dropout_rate,
                    "layers": [
                        {"weights": w[k].tolist(), "biases": b[k].tolist()}
                        for w, b in zip(self.weights, self.biases)
                    ],
                }
                for k in range(self.n_features)
            ],
            "output_weights": self.output_weights.tolist(),
            "output_bias": self.output_bias.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> NamModel:
        """The model `to_dict` wrote, of the widths its rows give. Every feature net must
        share the first one's architecture; every tensor is checked before allocation."""
        nets = doc["feature_nets"]
        if not nets:
            raise ShapeMismatchError("the model has no feature nets")
        first = nets[0]
        for k, net in enumerate(nets):
            if (net["activations"], net["dropout_rate"], len(net["layers"])) != (
                first["activations"], first["dropout_rate"], len(first["layers"])
            ):
                raise ShapeMismatchError(f"feature net {k} has a different architecture than feature net 0")
        tensors = [np.array([net["layers"][i][key] for net in nets], dtype=np.float64)
                   for i in range(len(first["layers"])) for key in ("weights", "biases")]
        tensors += [np.array(doc[key], dtype=np.float64) for key in ("output_weights", "output_bias")]
        hidden, out_dim = [len(layer["weights"]) for layer in first["layers"][:-1]], len(tensors[-2])
        check_shapes(tensors, bank_shapes(len(nets), [1, *hidden, 1], _head_shapes(len(nets), out_dim)))
        model = cls(len(nets), hidden, first["activations"], first["dropout_rate"], out_dim, doc["task"])
        model.set_param_tensors(tensors)
        return model


def _head_shapes(n_features: int, out_dim: int) -> list[tuple[int, ...]]:
    return [(out_dim, n_features), (out_dim,)]


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
    gen = np.random.default_rng(rng)
    out_dim = 1 if task == BINARY else n_classes
    activations = [hidden_activation] * hidden_layers + [IDENTITY]
    model = NamModel(n_features, [hidden_units] * hidden_layers, activations, dropout_rate, out_dim, task)
    xavier_bank(model, gen)  # the feature nets, then the head
    xavier_init(model.output_weights, gen)
    return model


def nam_parameter_count(n_features: int, out_dim: int, hidden_layers: int, hidden_units: int) -> int:
    """The size of `params` of the NamModel `build_nam` makes, without building it."""
    dims = [1, *[hidden_units] * hidden_layers, 1]
    return sum(math.prod(shape) for shape in bank_shapes(n_features, dims, _head_shapes(n_features, out_dim)))


def nam_forward(
    model: NamModel, x: np.ndarray, mode: str = INFER, rng: int | np.random.Generator = 0
) -> tuple[np.ndarray, np.ndarray, BankCache]:
    """Logits, per-feature terms, and the bank's cache for a (batch, K) input.

    terms[i, c, k] == output_weights[c, k] * f_k(x[i, k]) and
    logits == output_bias + terms.sum over k, exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeMismatchError(
            f"input shape {x.shape} incompatible with {model.n_features} features"
        )
    # feature k's column as a strided (batch, 1) view, as a lone feature net sees it
    h, cache = bank_forward(model, x.T[:, :, None], mode, rng)
    # the (batch, K) outputs the head reads, contiguous: BLAS sums a transposed
    # operand in another order. nam_backward reads them from the cache.
    cache.features = outputs = np.ascontiguousarray(h[:, :, 0].T)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = np.add.reduce(terms, axis=2) + model.output_bias
    return logits, terms, cache


def nam_backward(
    model: NamModel,
    cache: BankCache,
    dlogits: np.ndarray,
    out: list[np.ndarray] | None = None,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Gradients for every feature net and the output head, plus dLoss/dInput
    (None without `input_grad`).

    The gradients fill `out`, views laid out like `param_tensors()` (a new
    vector's when None), and every entry of them is written; `out` is the
    list returned. The gradient for feature net k flows only through its own
    additive term.
    """
    g = np.asarray(dlogits, dtype=np.float64)
    if g.shape != (cache.x.shape[1], model.out_dim):
        raise ShapeMismatchError(f"dlogits shape {g.shape} does not match forward batch")
    grads = model.split(np.empty_like(model.params)) if out is None else out
    # feature k's upstream gradient as a strided (batch, 1) view
    dh = bank_backward(model, cache, (g @ model.output_weights).T[:, :, None], grads, input_grad)
    row_block_product(g, cache.features, out=grads[-2])
    np.add.reduce(g, axis=0, out=grads[-1])
    return grads, None if dh is None else np.ascontiguousarray(dh[:, :, 0].T)


def save_model(model: NamModel, feature_names: list[str], path: str | Path) -> None:
    """Write the model as one line of JSON: the header, then the keys of
    `model.to_dict()`, sorted. Floats use shortest round-trip decimals, so the
    on-disk form restores bit-identical doubles."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "task": model.task,
        "feature_names": list(feature_names),
        **model.to_dict(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_model(path: str | Path) -> tuple[NamModel, list[str]]:
    """Load a model JSON written by save_model; returns (model, feature_names).

    A kind other than "nam", missing keys, mismatched shapes or feature
    counts and non-finite weights raise DataError.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise DataError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataError(f"model file {path} is missing a schema_version")
    found = doc["schema_version"]
    if found != MODEL_SCHEMA_VERSION:
        raise ConfigError(
            f"model schema version mismatch: expected {MODEL_SCHEMA_VERSION}, found {found}"
        )
    kind = doc.get("kind", NamModel.kind)
    if kind != NamModel.kind:
        raise DataError(f"model file {path} has unknown model kind {kind!r}")
    try:
        model = NamModel.from_dict(doc)
        feature_names = list(doc["feature_names"])
    except (IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    if len(feature_names) != model.n_features:
        raise DataError(
            f"model file {path} names {len(feature_names)} features, "
            f"but its model takes {model.n_features}"
        )
    if not np.isfinite(model.params).all():
        raise DataError(f"model file {path} holds non-finite weights")
    return model, feature_names
