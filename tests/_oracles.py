"""Independent oracles the tests check the implementation against.

These deliberately avoid the library's own code paths: finite differences for
gradients, O(n^2) pair counting for AUC, plain Python loops for weighted means
and pointwise curve averages.
"""

from __future__ import annotations

import numpy as np


def finite_diff_grads(loss_fn, tensors: list[np.ndarray], eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of a scalar loss w.r.t. each tensor, in place."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t)
        flat = t.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_err(
    analytic: list[np.ndarray], numeric: list[np.ndarray], floor: float = 1e-6
) -> float:
    """Worst relative error with an absolute floor for near-zero entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def pairwise_auc(scores, labels) -> float:
    """Brute-force Mann-Whitney: fraction of (pos, neg) pairs ranked correctly, ties 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def weighted_mean_tensors(
    tensor_lists: list[list[np.ndarray]], counts: list[int]
) -> list[np.ndarray]:
    """Naive loop: sum_i (n_i / n) * tensor_i, accumulated in client order."""
    total = float(sum(counts))
    out = [np.zeros_like(t) for t in tensor_lists[0]]
    for tensors, n in zip(tensor_lists, counts):
        coeff = n / total
        for j, t in enumerate(tensors):
            out[j] = out[j] + coeff * t
    return out


def pointwise_mean(value_arrays: list[np.ndarray]) -> np.ndarray:
    """Per-grid-point mean accumulated in client order, one point at a time."""
    n_points = len(value_arrays[0])
    out = np.zeros(n_points)
    for i in range(n_points):
        acc = 0.0
        for values in value_arrays:
            acc = acc + float(values[i])
        out[i] = acc / len(value_arrays)
    return out


def per_tensor_optimizer_step(
    kind: str,
    learning_rate: float,
    step: int,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
) -> list[np.ndarray]:
    """SGD or Adam as one loop over separate tensors; returns the new tensors.

    `step` is 1-based. Adam's moments `m` and `v` are lists aligned with
    `params` and are updated in place.
    """
    if kind == "sgd":
        return [p - learning_rate * g for p, g in zip(params, grads)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    out = []
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        m_hat = mi / (1.0 - beta1**step)
        v_hat = vi / (1.0 - beta2**step)
        out.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
    return out


def per_feature_nam_forward(model, x: np.ndarray, mode: str = "infer", rng=0):
    """A NAM's forward pass as K separate nets, one `Mlp.forward` per feature.

    Returns (logits, terms, feature_outputs, per-feature caches) for a
    (batch, K) input; `rng` is one generator shared by the features in order.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    outputs = np.empty((x.shape[0], model.n_features))
    caches = []
    for k, net in enumerate(model.feature_nets):
        out, cache = net.mlp.forward(x[:, k : k + 1], mode, gen)
        outputs[:, k] = out[:, 0]
        caches.append(cache)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = terms.sum(axis=2) + model.output_bias
    return logits, terms, outputs, caches


def per_feature_nam_backward(model, outputs: np.ndarray, caches: list, dlogits: np.ndarray):
    """The matching backward pass, one `Mlp.backward` per feature: gradients in
    `param_tensors()` order and dLoss/dInput."""
    d_outputs = dlogits @ model.output_weights
    grads = []
    d_input = np.empty_like(outputs)
    for k, net in enumerate(model.feature_nets):
        net_grads, dx = net.mlp.backward(caches[k], d_outputs[:, k : k + 1])
        grads.extend(net_grads)
        d_input[:, k] = dx[:, 0]
    grads.append(dlogits.T @ outputs)
    grads.append(dlogits.sum(axis=0))
    return grads, d_input
