"""Independent oracles the tests check the implementation against.

These deliberately avoid the library's own code paths: finite differences for
gradients, O(n^2) pair counting for AUC, plain Python loops for weighted means
and pointwise curve averages. `reference_federation` composes them into a
training loop of its own.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from fednam.errors import ShapeMismatchError
from fednam.federation import BOTH, ClientRound, _carve_validation, partition_clients
from fednam.nn import BINARY, LOGIT_CLAMP, MULTICLASS
from fednam.nn.bank import GRAD_BLOCK_ROWS
from fednam.tune import make_nam_factory


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of the logits clipped to [-LOGIT_CLAMP, LOGIT_CLAMP]."""
    z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the clipped logits, one exponential of the shifted
    logits floored at -LOGIT_CLAMP: the reference for `cross_entropy`'s
    probabilities, which take that floor only when a row needs it."""
    z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    shifted = np.maximum(z - z.max(axis=-1, keepdims=True), -LOGIT_CLAMP)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def stacked_xavier_bank(k: int, dims: list[int], gen: np.random.Generator):
    """Xavier weights and zero biases of K nets with layer widths `dims`: each
    net's layers drawn one whole (out, in) matrix at a time, net by net, then
    stacked layer by layer into (K, out, in) arrays."""
    nets = [[gen.uniform(-np.sqrt(6.0 / (a + b)), np.sqrt(6.0 / (a + b)), size=(b, a))
             for a, b in zip(dims, dims[1:])] for _ in range(k)]
    weights = [np.stack(layer) for layer in zip(*nets)]
    return weights, [np.zeros(w.shape[:2]) for w in weights]


def dense_net_forward(weights, biases, activations, dropout_rate, x, mode="infer", gen=None):
    """One dense net on a (batch, in) input, layer by layer in plain NumPy.

    `weights[i]` is (out, in) and `biases[i]` is (out,). ReLU, ExU (capped at 1,
    weights entering through exp, bias shifting the input) or identity per
    layer; inverted dropout after hidden layers in train mode, one
    `gen.random` draw per layer. Returns the output and per-layer
    (input, pre-activation, mask) traces.
    """
    h, trace = x, []
    for i, (w, b, kind) in enumerate(zip(weights, biases, activations)):
        if kind == "exu":
            ew = np.exp(np.clip(w, -30.0, 30.0))
            z = h @ ew.T - b * ew.sum(axis=1)
            a = np.clip(z, 0.0, 1.0)
        else:
            z = h @ w.T + b
            a = np.maximum(z, 0.0) if kind == "relu" else z
        mask = None
        if mode == "train" and dropout_rate > 0.0 and i < len(weights) - 1:
            keep = 1.0 - dropout_rate
            mask = (gen.random(a.shape) < keep) / keep
            a = a * mask
        trace.append((h, z, mask))
        h = a
    return h, trace


def blocked_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b as a running sum, in row order, of the products of blocks of
    GRAD_BLOCK_ROWS rows: the order in which a weight gradient sums its batch."""
    total = a[:GRAD_BLOCK_ROWS].T @ b[:GRAD_BLOCK_ROWS]
    for start in range(GRAD_BLOCK_ROWS, len(a), GRAD_BLOCK_ROWS):
        total = total + a[start : start + GRAD_BLOCK_ROWS].T @ b[start : start + GRAD_BLOCK_ROWS]
    return total


def dense_net_backward(weights, biases, activations, trace, g):
    """The matching backward pass: [dW0, db0, dW1, db1, ...] and dLoss/dInput."""
    grads = [None] * (2 * len(weights))
    for i in range(len(weights) - 1, -1, -1):
        h, z, mask = trace[i]
        if mask is not None:
            g = g * mask
        kind = activations[i]
        if kind == "relu":
            dz = g * (z > 0.0)
        elif kind == "exu":
            dz = g * ((z > 0.0) & (z < 1.0))
        else:
            dz = g
        if kind == "exu":
            ew = np.exp(np.clip(weights[i], -30.0, 30.0))
            col = dz.sum(axis=0)
            grads[2 * i] = ew * (blocked_gram(dz, h) - biases[i][:, None] * col[:, None])
            grads[2 * i + 1] = -ew.sum(axis=1) * col
            g = dz @ ew
        else:
            grads[2 * i] = blocked_gram(dz, h)
            grads[2 * i + 1] = dz.sum(axis=0)
            g = dz @ weights[i]
    return grads, g


def _net(model, k):
    """Net k of a model's stacked layers, as per-layer 2-D weights and 1-D biases."""
    return [w[k] for w in model.weights], [b[k] for b in model.biases]


def per_feature_nam_forward(model, x: np.ndarray, mode: str = "infer", rng=0):
    """A NAM's forward pass as K separate nets, one `dense_net_forward` per feature.

    Returns (logits, terms, feature_outputs, per-feature traces) for a
    (batch, K) input; `rng` is one generator shared by the features in order.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    outputs = np.empty((x.shape[0], model.n_features))
    traces = []
    for k in range(model.n_features):
        out, trace = dense_net_forward(
            *_net(model, k), model.activations, model.dropout_rate, x[:, k : k + 1], mode, gen
        )
        outputs[:, k] = out[:, 0]
        traces.append(trace)
    terms = outputs[:, None, :] * model.output_weights[None, :, :]
    logits = terms.sum(axis=2) + model.output_bias
    return logits, terms, outputs, traces


def per_feature_nam_backward(model, outputs: np.ndarray, traces: list, dlogits: np.ndarray):
    """The matching backward pass, one `dense_net_backward` per feature:
    gradients stacked in `param_tensors()` order, and dLoss/dInput."""
    d_outputs = dlogits @ model.output_weights
    per_feature = []
    d_input = np.empty_like(outputs)
    for k in range(model.n_features):
        weights, biases = _net(model, k)
        grads, dx = dense_net_backward(weights, biases, model.activations, traces[k],
                                       d_outputs[:, k : k + 1])
        per_feature.append(grads)
        d_input[:, k] = dx[:, 0]
    stacked = [np.stack(tensors) for tensors in zip(*per_feature)]
    return stacked + [blocked_gram(dlogits, outputs), dlogits.sum(axis=0)], d_input


def per_layer_dnn_forward(model, x: np.ndarray, mode: str = "infer", rng=0):
    """A dense model's forward pass through `dense_net_forward`: (logits, traces)."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return dense_net_forward(*_net(model, 0), model.activations, model.dropout_rate, x, mode, gen)


def per_layer_dnn_backward(model, trace: list, dlogits: np.ndarray):
    """Gradients shaped like `param_tensors()` (a leading axis of one net), and dLoss/dInput."""
    grads, dx = dense_net_backward(*_net(model, 0), model.activations, trace, dlogits)
    return [g[None] for g in grads], dx


def per_feature_curves(model, ranges, n_points: int = 101):
    """(grid, centred values) per (feature, class), feature-major: each feature's
    net evaluated alone on its grid, a single point for a degenerate range."""
    out = []
    for k, (lo, hi) in enumerate(ranges):
        grid = np.array([lo]) if lo == hi else np.linspace(lo, hi, n_points)
        f, _ = dense_net_forward(*_net(model, k), model.activations, 0.0, grid[:, None])
        for c in range(model.output_weights.shape[0]):
            raw = model.output_weights[c, k] * f[:, 0]
            out.append((grid, raw - raw.mean()))
    return out


def loss_and_grad(logits: np.ndarray, target: int, task: str) -> tuple[float, np.ndarray]:
    """Per-example cross-entropy loss and dLoss/dLogits, the reference that
    `batch_loss_and_grad` is checked against.

    Binary expects a single logit and target in {0, 1}; the gradient is
    sigmoid(z) - y. Multiclass expects C logits and target in {0..C-1}; the
    gradient is softmax(z) - onehot(y).
    """
    z = np.atleast_1d(np.asarray(logits, dtype=np.float64))
    if task == BINARY:
        if z.shape != (1,):
            raise ShapeMismatchError(f"binary task expects 1 logit, got shape {z.shape}")
        if target not in (0, 1):
            raise ValueError(f"binary target must be 0 or 1, got {target!r}")
        zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
        loss = float(np.logaddexp(0.0, zc[0]) - target * zc[0])
        grad = sigmoid(zc) - target
        return loss, grad
    if task == MULTICLASS:
        n_classes = z.shape[0]
        if n_classes < 2:
            raise ShapeMismatchError("multiclass task expects at least 2 logits")
        if not 0 <= int(target) < n_classes:
            raise ValueError(f"target {target!r} out of range for {n_classes} classes")
        zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
        shifted = zc - zc.max()
        lse = np.log(np.exp(shifted).sum()) + zc.max()
        loss = float(lse - zc[int(target)])
        grad = softmax(zc)
        grad[int(target)] -= 1.0
        return loss, grad
    raise ValueError(f"unknown task {task!r}")


def two_exp_batch_loss_and_grad(logits: np.ndarray, targets: np.ndarray, task: str):
    """Batch cross-entropy as two exponentials: one for the log-sum-exp, and
    one inside `softmax`, which clips the logits again and floors the shifted
    ones at -LOGIT_CLAMP; the mean is `ndarray.mean`. `batch_loss_and_grad`
    shares the exponentials and must keep these bits."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets)
    n = z.shape[0]
    zc = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    if task == BINARY:
        yf = y.astype(np.float64)[:, None]
        losses = np.logaddexp(0.0, zc) - yf * zc
        return float(losses.mean()), (sigmoid(zc) - yf) / n
    shifted = zc - zc.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + zc.max(axis=1)
    losses = lse - zc[np.arange(n), y]
    grad = softmax(zc)
    grad[np.arange(n), y] -= 1.0
    return float(losses.mean()), grad / n


def loop_midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties given their block's mean rank, one block at a time."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    return ranks


# the tags of the streams a federation initialises its model and trains each
# client's round with: default_rng([seed, tag, ...])
_INIT_TAG = 41
_LOCAL_TRAIN_TAG = 51


def _nam_of(tensors: list[np.ndarray], init) -> SimpleNamespace:
    """What the per-feature oracles read of a NAM: `init`'s architecture
    with these tensors, W0, b0, W1, b1, ..., then the head."""
    n = len(init.activations)
    return SimpleNamespace(weights=tensors[0 : 2 * n : 2], biases=tensors[1 : 2 * n : 2],
                           output_weights=tensors[-2], output_bias=tensors[-1],
                           activations=init.activations, dropout_rate=init.dropout_rate,
                           n_features=init.n_features)


def _probabilities(logits: np.ndarray, task: str) -> np.ndarray:
    return sigmoid(logits) if task == BINARY else softmax(logits)


def _accuracy(probabilities: np.ndarray, y: np.ndarray, task: str, threshold: float) -> float:
    predicted = probabilities[:, 0] >= threshold if task == BINARY else probabilities.argmax(axis=1)
    return float((predicted == y).mean())


def _pairwise_auc_of(probabilities: np.ndarray, y: np.ndarray, task: str) -> float:
    """`pairwise_auc` of P(class 1), or its mean over the classes present one
    versus the rest."""
    if task == BINARY:
        return pairwise_auc(probabilities[:, 0], y)
    aucs = [pairwise_auc(probabilities[:, c], (y == c).astype(int))
            for c in range(probabilities.shape[1]) if 0 < (y == c).sum() < len(y)]
    return float(np.mean(aucs)) if aucs else math.nan


def _reference_local_train(client, init, config, gen) -> ClientRound:
    """One client's round: epochs of shuffled mini-batches, each step a
    per-feature forward and backward, the two-exp loss and a per-tensor
    optimizer step; after each epoch the validation loss feeds the
    reduce-on-plateau rate, then early stopping, which keeps the parameters
    of the best epoch and restores them at the end."""
    control, task = config.control, init.task
    opt = client.optimizer
    x, y, (mx, my) = client.x, client.y, client.monitor
    early_best, early_since, plateau_best, plateau_since = math.inf, 0, math.inf, 0
    train_losses, val_losses = [], []
    for _ in range(config.federation.local_epochs):
        order = client.train_rows[gen.permutation(len(client.train_rows))]
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            model = _nam_of(client.tensors, init)
            logits, _, outputs, traces = per_feature_nam_forward(model, x[rows], "train", gen)
            loss, dlogits = two_exp_batch_loss_and_grad(logits, y[rows], task)
            grads, _ = per_feature_nam_backward(model, outputs, traces, dlogits)
            opt.step += 1
            client.tensors = per_tensor_optimizer_step(config.optimizer.kind, opt.lr, opt.step,
                                                       client.tensors, grads, opt.m, opt.v)
            batch_losses.append(loss)
        train_losses.append(float(np.mean(batch_losses)))

        logits = per_feature_nam_forward(_nam_of(client.tensors, init), mx)[0]
        val_loss = two_exp_batch_loss_and_grad(logits, my, task)[0]
        val_losses.append(val_loss)
        if val_loss < plateau_best:
            plateau_best, plateau_since = val_loss, 0
        else:
            plateau_since += 1
            if plateau_since >= control.lr_patience:
                plateau_since = 0
                if opt.lr > control.min_lr:
                    opt.lr = max(opt.lr * control.lr_factor, control.min_lr)
        if early_best - val_loss > control.min_delta:
            early_best, early_since = val_loss, 0
            kept = [t.copy() for t in client.tensors]
            kept_acc = _accuracy(_probabilities(logits, task), my, task, config.threshold)
        else:
            early_since += 1
        stopped = early_since >= control.early_stop_patience
        if stopped:
            break
    client.tensors = kept
    return ClientRound(client.client_id, train_losses, val_losses, stopped, early_best, kept_acc)


def reference_federation(dataset, config) -> SimpleNamespace:
    """`run_from_config`'s federation, rebuilt from the per-operation oracles
    above: FedAvg by `weighted_mean_tensors`, every model as per-feature nets
    over separate tensors.

    It reuses `partition_clients`, `_carve_validation` and the init factory,
    which have tests of their own. Each round broadcasts the global tensors
    (under `both` aggregation), trains every client on its own stream
    default_rng([seed, 51, round, client]), and scores the global predictor,
    the FedAvg model or the logit mean of the clients, on the clients'
    pooled monitor rows: their validation rows, else their training rows.
    Each client keeps its optimizer state and learning rate across rounds.
    Returns `clients` and `global_params` as flat vectors (None for no global
    model), and one (client rounds, accuracy, AUC) per round.
    """
    seed, fed = config.seed, config.federation
    init = make_nam_factory(dataset, config.model)(np.random.default_rng([seed, _INIT_TAG]))
    x_train, y_train = dataset.X_train, dataset.y_train
    clients = []
    for cid, shard in enumerate(partition_clients(y_train, fed.num_clients, seed,
                                                  config.split.stratified)):
        train_rows, val_rows = _carve_validation(len(shard), config.split.val_fraction, seed, cid)
        x, y = x_train[shard], y_train[shard]
        monitor = val_rows if len(val_rows) else train_rows
        clients.append(SimpleNamespace(
            client_id=cid, x=x, y=y, train_rows=train_rows, monitor=(x[monitor], y[monitor]),
            tensors=[t.copy() for t in init.param_tensors()],
            optimizer=SimpleNamespace(lr=config.optimizer.learning_rate, step=0,
                                      m=[np.zeros_like(t) for t in init.param_tensors()],
                                      v=[np.zeros_like(t) for t in init.param_tensors()])))
    pooled_x = np.concatenate([c.monitor[0] for c in clients])
    pooled_y = np.concatenate([c.monitor[1] for c in clients])
    averaging = fed.aggregation == BOTH
    global_tensors = [t.copy() for t in init.param_tensors()] if averaging else None
    rounds = []
    for round_index in range(1, fed.rounds + 1):
        entries = []
        for c in clients:
            if averaging:
                c.tensors = [t.copy() for t in global_tensors]
            gen = np.random.default_rng([seed, _LOCAL_TRAIN_TAG, round_index, c.client_id])
            entries.append(_reference_local_train(c, init, config, gen))
        if averaging:
            global_tensors = weighted_mean_tensors([c.tensors for c in clients],
                                                   [len(c.y) for c in clients])
            logits = per_feature_nam_forward(_nam_of(global_tensors, init), pooled_x)[0]
        else:
            logits = np.mean(np.stack([per_feature_nam_forward(_nam_of(c.tensors, init), pooled_x)[0]
                                       for c in clients]), axis=0)
        probabilities = _probabilities(logits, init.task)
        rounds.append((entries, _accuracy(probabilities, pooled_y, init.task, config.threshold),
                       _pairwise_auc_of(probabilities, pooled_y, init.task)))
    return SimpleNamespace(
        clients=[np.concatenate(c.tensors, axis=None) for c in clients],
        global_params=None if global_tensors is None else np.concatenate(global_tensors, axis=None),
        rounds=rounds)
