"""Simulated multi-client training: partition, local epochs, weighted averaging.

The global model after each round is the sample-weighted mean of the client
parameters. A single client with weight 1 reproduces centralized training
bit-for-bit, which `train_centralized` exists to demonstrate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .control import STOP, ControlConfig, early_stop_update, schedule_lr
from .data import Dataset
from .errors import ConfigError, DataError, ShapeMismatchError, TrainingError
from .metrics import accuracy, compute_metrics
from .nn import (
    INFER,
    TRAIN,
    OptimizerState,
    batch_loss_and_grad,
    cross_entropy,
    optimizer_step,
)

SHAPE_AVERAGE = "shape_average"
BOTH = "both"
AGGREGATIONS = (SHAPE_AVERAGE, BOTH)

# rng derivation tags; every stream is a pure function of (seed, tags). No two
# tags in the package share a value: data.py's _TAG_SPLIT is 11.
_TAG_PARTITION = 21
_TAG_CLIENT_VAL = 31
_TAG_MODEL_INIT = 41
_TAG_LOCAL_TRAIN = 51


@dataclass
class FederationSection:
    """The federation settings of a run config; the seed comes from the run."""

    num_clients: int = 3
    rounds: int = 50
    local_epochs: int = 5
    aggregation: str = BOTH

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigError(f"federation.num_clients must be >= 1, got {self.num_clients}")
        if self.rounds < 1:
            raise ConfigError(f"federation.rounds must be >= 1, got {self.rounds}")
        if self.local_epochs < 1:
            raise ConfigError(f"federation.local_epochs must be >= 1, got {self.local_epochs}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"federation.aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}"
            )

    def to_config(self, seed: int, stratified: bool = True) -> FederationConfig:
        return FederationConfig(**asdict(self), seed=seed, stratified=stratified)


@dataclass
class FederationConfig(FederationSection):
    """A federation's settings: its run config section, plus the two fields a
    run adds, the seed and whether `partition_clients` deals each label in turn
    (`stratified`, the run's `split.stratified`)."""

    seed: int = 0
    stratified: bool = True


@dataclass
class ClientState:
    """One simulated client: its data shard, local model, and optimizer.

    `monitor_x`/`monitor_y` are the rows the client validates on, gathered
    once: its validation rows, else its training rows.
    """

    client_id: int
    x: np.ndarray
    y: np.ndarray
    model: object
    optimizer: OptimizerState
    train_rows: np.ndarray
    val_rows: np.ndarray
    monitor_x: np.ndarray = field(init=False, repr=False)
    monitor_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.val_rows if self.val_rows.size else self.train_rows
        self.monitor_x, self.monitor_y = self.x[rows], self.y[rows]

    @property
    def n_samples(self) -> int:
        return len(self.x)


@dataclass
class ClientRound:
    """One client's round: what `local_train` measured, one loss per epoch
    run, then the validation loss and accuracy of the parameters it restored."""

    client_id: int
    train_losses: list[float]
    val_losses: list[float]
    stopped_early: bool
    val_loss: float
    val_acc: float


@dataclass
class RoundLog:
    round_index: int
    clients: list[ClientRound]
    global_val_acc: float
    global_val_auc: float


@dataclass
class FederationResult:
    global_model: object | None
    global_predictor: object
    clients: list[ClientState]


class EnsembleModel:
    """Pointwise function average of client predictors (mean of logits)."""

    def __init__(self, members: list[object]):
        if not members:
            raise ShapeMismatchError("an ensemble needs at least one member")
        self.members = members
        self.task = members[0].task

    def forward_batch(self, x, mode=INFER):
        return self.member_mean(lambda m: m.forward_batch(x, mode)[0]), None

    def member_mean(self, per_member) -> np.ndarray:
        """The mean of `per_member(m)` over the members, summed in member order."""
        arrays = (per_member(m) for m in self.members)
        total = next(arrays)
        for a in arrays:
            total = total + a
        return total / len(self.members)


def partition_clients(
    labels: np.ndarray, num_clients: int, seed: int, stratified: bool = True
) -> list[np.ndarray]:
    """Disjoint, exhaustive shards (as index arrays) with sizes differing by <= 1.

    Stratified mode deals each label's shuffled members round-robin with a
    cursor that carries across labels, so per-class counts also differ by <= 1.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    if n < num_clients:
        raise DataError(f"cannot split {n} rows across {num_clients} clients")
    rng = np.random.default_rng([seed, _TAG_PARTITION])
    if stratified:
        classes, inverse = np.unique(labels, return_inverse=True)
        groups = [np.flatnonzero(inverse == c) for c in range(len(classes))]
    else:
        groups = [np.arange(n)]
    # the cursor runs on across groups, so dealing the shuffled groups laid end
    # to end gives shard c every num_clients-th row from position c
    order = np.concatenate([members[rng.permutation(len(members))] for members in groups])
    return [np.sort(order[c::num_clients]) for c in range(num_clients)]


def _carve_validation(n_rows: int, val_fraction: float, seed: int, client_id: int):
    """Split shard-local row positions into (train_rows, val_rows)."""
    rows = np.arange(n_rows)
    if val_fraction <= 0.0 or n_rows < 2:
        return rows, np.empty(0, dtype=np.int64)
    n_val = int(round(n_rows * val_fraction))
    n_val = min(max(n_val, 1), n_rows - 1)
    rng = np.random.default_rng([seed, _TAG_CLIENT_VAL, client_id])
    perm = rng.permutation(n_rows)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def evaluate_model(model, x: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> dict[str, float]:
    """Inference-mode accuracy and AUC of any predictor on (x, y)."""
    logits, _ = model.forward_batch(x, INFER)
    _, probabilities = cross_entropy(logits, y, model.task)
    return compute_metrics(probabilities, y, model.task, threshold)


def _loss_and_accuracy(model, x: np.ndarray, y: np.ndarray, threshold: float) -> tuple[float, float]:
    """Inference-mode loss and accuracy of a predictor on (x, y), without the AUC
    a tiny shard makes meaningless; `tune` scores each client's monitor rows with it."""
    logits, _ = model.forward_batch(x, INFER)
    loss, probabilities = cross_entropy(logits, y, model.task)
    return loss, accuracy(probabilities, y, model.task, threshold)


# an overflow is reported by the finite checks below, not by NumPy warnings
@np.errstate(all="ignore")
def local_train(
    client: ClientState,
    epochs: int,
    batch_size: int,
    control: ControlConfig,
    rng: int | np.random.Generator,
    threshold: float = 0.5,
) -> ClientRound:
    """Mini-batch training on the client's shard with early stopping and lr scheduling.

    Hook state is fresh per call; the learning rate lives on the client's optimizer
    and so persists across rounds. At exit the parameters of the best validation epoch
    are restored, and the round record holds that epoch's validation loss and accuracy.
    """
    if epochs < 1:
        raise TrainingError(f"client {client.client_id}: epochs must be >= 1")
    if batch_size < 1:
        raise TrainingError(f"client {client.client_id}: batch_size must be >= 1")
    gen = np.random.default_rng(rng)
    model = client.model
    x, y = client.x, client.y

    stopper = control.make_early_stop()
    schedule = control.make_schedule()
    train_losses: list[float] = []
    val_losses: list[float] = []
    grads = np.empty_like(model.params)  # rewritten whole by every backward, spent by every step
    grad_views = model.split(grads)

    for _ in range(epochs):
        order = client.train_rows[gen.permutation(len(client.train_rows))]
        # the epoch's rows in their order, so that each batch is a slice
        x_epoch, y_epoch = x[order], y[order]
        batch_losses = []
        for start in range(0, len(order), batch_size):
            end = start + batch_size
            logits, cache = model.forward_batch(x_epoch[start:end], TRAIN, gen)
            loss, dlogits = batch_loss_and_grad(logits, y_epoch[start:end], model.task)
            if not math.isfinite(loss):
                raise TrainingError(f"client {client.client_id}: non-finite training loss")
            model.backward_batch(cache, dlogits, grad_views)
            model.set_params(optimizer_step(client.optimizer, model.params, grads))
            batch_losses.append(loss)
        # np.mean's sum and division, without its Python wrapper
        train_losses.append(float(np.add.reduce(batch_losses) / len(batch_losses)))

        logits, _ = model.forward_batch(client.monitor_x, INFER)
        val_loss, probabilities = cross_entropy(logits, client.monitor_y, model.task)
        if not math.isfinite(val_loss):
            raise TrainingError(f"client {client.client_id}: non-finite validation loss")
        val_losses.append(val_loss)
        client.optimizer.learning_rate = schedule_lr(
            schedule, client.optimizer.learning_rate, val_loss
        )
        stopped = early_stop_update(stopper, val_loss, model.params) == STOP
        if stopper.epochs_since_improvement == 0:  # this epoch's parameters were snapshot
            best_probabilities = probabilities
        if stopped:
            break

    model.set_params(stopper.best_snapshot)  # a finite min_delta: epoch 1 improves on inf
    val_acc = accuracy(best_probabilities, client.monitor_y, model.task, threshold)
    return ClientRound(client.client_id, train_losses, val_losses, stopped, stopper.best_loss, val_acc)


def fed_avg(clients: list[ClientState]):
    """Global model whose parameter vector is sum_i (n_i / n) * params_i, in client order."""
    if not clients:
        raise ShapeMismatchError("fed_avg needs at least one client")
    reference = clients[0].model
    for client in clients[1:]:
        if client.model.layout != reference.layout:
            raise ShapeMismatchError(
                f"client {client.client_id} architecture does not match client {clients[0].client_id}"
            )
    total = float(sum(c.n_samples for c in clients))
    averaged = np.zeros_like(reference.params)
    for client in clients:
        averaged += (client.n_samples / total) * client.model.params
    global_model = reference.copy()
    global_model.set_params(averaged)
    return global_model


def _start_clients(
    dataset: Dataset,
    config: FederationConfig,
    model_factory,
    optimizer_factory,
    val_fraction: float,
) -> list[ClientState]:
    """Clients over `config.num_clients` shards of the training rows, each with
    its validation rows carved out and a copy of one initial model."""
    x_train, y_train = dataset.X_train, dataset.y_train
    shards = partition_clients(y_train, config.num_clients, config.seed, config.stratified)
    if y_train.min() == y_train.max():  # np.unique would import numpy.ma
        raise DataError("the training split holds one class; training needs at least two")
    init = model_factory(np.random.default_rng([config.seed, _TAG_MODEL_INIT]))
    clients = []
    for cid, shard in enumerate(shards):
        train_rows, val_rows = _carve_validation(len(shard), val_fraction, config.seed, cid)
        clients.append(ClientState(cid, x_train[shard], y_train[shard], init.copy(),
                                   optimizer_factory(), train_rows, val_rows))
    return clients


def run_federation(
    dataset: Dataset,
    config: FederationConfig,
    model_factory,
    optimizer_factory,
    control: ControlConfig | None = None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
    threshold: float = 0.5,
    on_round: Callable[[RoundLog], None] | None = None,
) -> FederationResult:
    """Synchronous rounds with full participation.

    Every client starts from a copy of one initial model. Per round: train
    every client locally, then aggregate by weighted averaging into the global
    model, which the next round broadcasts to every client before any of them
    trains, and then drops (unless aggregation is shape-only, in which case
    clients evolve independently and the global predictor is the logit-mean
    ensemble). `on_round` receives each round's `RoundLog` as the round ends,
    so a caller holds the completed rounds even when a later one raises.
    """
    control = control or ControlConfig()
    clients = _start_clients(dataset, config, model_factory, optimizer_factory, val_fraction)
    global_model = None

    val_x = np.concatenate([c.monitor_x for c in clients])
    val_y = np.concatenate([c.monitor_y for c in clients])
    for round_index in range(1, config.rounds + 1):
        if global_model is not None:
            for client in clients:
                client.model.copy_params_from(global_model)
            global_model = predictor = None  # no global vector lives through local training
        entries = []
        for client in clients:
            rng = np.random.default_rng(
                [config.seed, _TAG_LOCAL_TRAIN, round_index, client.client_id]
            )
            try:
                entry = local_train(client, config.local_epochs, batch_size, control, rng, threshold)
            except TrainingError as exc:
                raise TrainingError(f"round {round_index}: {exc}") from exc
            entries.append(entry)
        if config.aggregation == BOTH:
            global_model = predictor = fed_avg(clients)
        else:
            predictor = EnsembleModel([c.model for c in clients])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny pooled val sets may be single-class
            global_stats = evaluate_model(predictor, val_x, val_y, threshold)
        if on_round is not None:
            on_round(RoundLog(round_index, entries, global_stats["accuracy"], global_stats["auc"]))
    return FederationResult(global_model, predictor, clients)


def train_centralized(
    dataset: Dataset,
    config: FederationConfig,
    model_factory,
    optimizer_factory,
    control: ControlConfig | None = None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
):
    """All data on one worker, same round/epoch structure, no aggregation step."""
    control = control or ControlConfig()
    config = replace(config, num_clients=1)
    [client] = _start_clients(dataset, config, model_factory, optimizer_factory, val_fraction)
    for round_index in range(1, config.rounds + 1):
        rng = np.random.default_rng([config.seed, _TAG_LOCAL_TRAIN, round_index, 0])
        local_train(client, config.local_epochs, batch_size, control, rng)
    return client.model
