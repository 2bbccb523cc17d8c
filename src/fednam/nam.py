"""Additive model: one tiny net per feature plus a linear output head.

Every logit decomposes exactly as bias + sum_k output_weights[c,k] * f_k(x_k),
so each feature's contribution to each prediction can be read off directly.
"""

from __future__ import annotations

import json
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
    as_rng,
    bank_backward,
    bank_forward,
    xavier_bank,
    xavier_init,
)

MODEL_SCHEMA_VERSION = 1


class NamModel(NetBank):
    """A bank of K feature nets, each from one scalar feature to one scalar,
    combined by a single linear map (no activation) into C_out logits.

    `params` holds the stacked layers and then the head: `output_weights`
    (C_out, K) and `output_bias` (C_out,).
    """

    kind = "nam"

    def __init__(self, weights, biases, activations, dropout_rate, output_weights, output_bias, task):
        super().__init__(weights, biases, activations, dropout_rate, task, [output_weights, output_bias])
        if self.weights[0].shape[2] != 1 or self.weights[-1].shape[1] != 1:
            raise ShapeMismatchError("a feature net must map exactly one input to one output")
        if self.output_weights.ndim != 2 or self.output_weights.shape[1] != self.n_features:
            raise ShapeMismatchError(
                f"output_weights {self.output_weights.shape} does not match {self.n_features} feature nets"
            )
        if self.output_bias.shape != (self.output_weights.shape[0],):
            raise ShapeMismatchError("output_bias does not match output_weights rows")
        if task == BINARY and self.output_weights.shape[0] != 1:
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
        self, cache: BankCache, dlogits: np.ndarray, out: np.ndarray | None = None
    ) -> list[np.ndarray]:
        grads, _ = nam_backward(self, cache, dlogits, out)
        return grads

    def to_dict(self, feature_names: list[str]) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kind": self.kind,
            "task": self.task,
            "feature_names": list(feature_names),
            "feature_nets": bank_to_dicts(self),
            "output_weights": self.output_weights.tolist(),
            "output_bias": self.output_bias.tolist(),
        }


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
    weights, biases = xavier_bank(n_features, [1, *[hidden_units] * hidden_layers, 1], gen)
    activations = [hidden_activation] * hidden_layers + [IDENTITY]
    head = xavier_init(n_features, out_dim, gen)
    return NamModel(weights, biases, activations, dropout_rate, head, np.zeros(out_dim), task)


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
    outputs = np.ascontiguousarray(h[:, :, 0].T)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = terms.sum(axis=2) + model.output_bias
    return logits, terms, cache


def nam_backward(
    model: NamModel, cache: BankCache, dlogits: np.ndarray, out: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients for every feature net and the output head, plus dLoss/dInput.

    The gradients fill one vector laid out like `params`, `out` or a new one,
    and every entry of it is written; the returned list holds views of it
    aligned with `param_tensors()`. The gradient for feature net k flows only
    through its own additive term.
    """
    g = np.asarray(dlogits, dtype=np.float64)
    if g.shape != (cache.x.shape[1], model.out_dim):
        raise ShapeMismatchError(f"dlogits shape {g.shape} does not match forward batch")
    grads = model.split(np.empty_like(model.params) if out is None else out)
    # feature k's upstream gradient as a strided (batch, 1) view
    dh = bank_backward(model, cache, (g @ model.output_weights).T[:, :, None], grads)
    # the (batch, K) outputs the head read, contiguous as in the forward pass:
    # BLAS sums a transposed operand in another order
    np.matmul(g.T, np.ascontiguousarray(cache.out[:, :, 0].T), out=grads[-2])
    grads[-1][...] = g.sum(axis=0)
    return grads, np.ascontiguousarray(dh[:, :, 0].T)


def bank_to_dicts(bank: NetBank) -> list[dict]:
    """Schema v1's form of a bank: one dict per net, with its own layer list."""
    return [
        {
            "activations": list(bank.activations),
            "dropout_rate": bank.dropout_rate,
            "layers": [
                {"weights": w[k].tolist(), "biases": b[k].tolist()}
                for w, b in zip(bank.weights, bank.biases)
            ],
        }
        for k in range(bank.weights[0].shape[0])
    ]


def bank_from_dicts(nets: list[dict]) -> tuple[list[np.ndarray], list[np.ndarray], list[str], float]:
    """Weights, biases, activations and dropout rate of the bank `bank_to_dicts` wrote.

    Every net must share the first one's activations, dropout rate and layer shapes.
    """
    first = nets[0]
    for k, net in enumerate(nets):
        if (net["activations"], net["dropout_rate"], len(net["layers"])) != (
            first["activations"], first["dropout_rate"], len(first["layers"])
        ):
            raise ShapeMismatchError(f"feature net {k} has a different architecture than feature net 0")
    layers = range(len(first["layers"]))
    weights = [np.array([net["layers"][i]["weights"] for net in nets], dtype=np.float64) for i in layers]
    biases = [np.array([net["layers"][i]["biases"] for net in nets], dtype=np.float64) for i in layers]
    return weights, biases, list(first["activations"]), float(first["dropout_rate"])


def nam_from_dict(doc: dict) -> tuple[NamModel, list[str]]:
    model = NamModel(
        *bank_from_dicts(doc["feature_nets"]),
        np.array(doc["output_weights"], dtype=np.float64),
        np.array(doc["output_bias"], dtype=np.float64),
        doc["task"],
    )
    return model, list(doc["feature_names"])


def _indented_json(obj, pad: str = "") -> str:
    """The text of `json.dumps(obj, indent=1, sort_keys=True)` for a document
    of dicts with str keys, lists, str, int, bool, None and float.

    With an indent the json module runs its pure-Python encoder, which calls
    `float.__repr__` once per float; here a list of finite floats is joined
    in one pass. Everything else is encoded by `json.dumps` itself.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + " "
        items = (f"{json.dumps(k)}: {_indented_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + " "
        sep = ",\n" + inner
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            body = None
        # "nan" and "inf" are the only float reprs with an "n"; json writes them as NaN and Infinity
        if body is None or "n" in body:
            body = sep.join(_indented_json(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)


def save_model(model, feature_names: list[str], path: str | Path) -> None:
    """Write the model as JSON; floats use shortest round-trip decimals, so the
    on-disk form restores bit-identical doubles. The bytes are those of
    `json.dumps(model.to_dict(feature_names), indent=1, sort_keys=True)`."""
    Path(path).write_text(_indented_json(model.to_dict(feature_names)))


def load_model(path: str | Path):
    """Load a model JSON written by save_model; returns (model, feature_names).

    Missing keys, mismatched shapes or feature counts and non-finite weights
    raise DataError.
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
    kind = doc.get("kind", "nam")
    if kind == "nam":
        from_dict = nam_from_dict
    elif kind == "dnn":
        from .dnn import dnn_from_dict as from_dict
    else:
        raise DataError(f"model file {path} has unknown model kind {kind!r}")
    try:
        model, feature_names = from_dict(doc)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    if len(feature_names) != model.n_features:
        raise DataError(
            f"model file {path} names {len(feature_names)} features, "
            f"but its model takes {model.n_features}"
        )
    if not np.isfinite(model.params).all():
        raise DataError(f"model file {path} holds non-finite weights")
    return model, feature_names
