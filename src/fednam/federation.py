"""Simulated multi-client training: partition, local epochs, weighted averaging.

The global model after each round is the sample-weighted mean of the client
parameters. A single client with weight 1 reproduces centralized training
bit-for-bit, which `train_centralized` exists to demonstrate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .control import STOP, STOP_ERROR, ControlConfig, early_stop_update, schedule_lr
from .data import Dataset
from .errors import ConfigError, DataError, ShapeMismatchError, TrainingError
from .metrics import accuracy, compute_metrics
from .nn import (
    INFER,
    TRAIN,
    OptimizerState,
    batch_loss_and_grad,
    class_probabilities,
    optimizer_step,
)
from .nn.layers import as_rng

SHAPE_AVERAGE = "shape_average"
BOTH = "both"
AGGREGATIONS = (SHAPE_AVERAGE, BOTH)

# rng derivation tags; every stream is a pure function of (seed, tags)
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

    def to_config(self, seed: int) -> FederationConfig:
        return FederationConfig(**asdict(self), seed=seed)


@dataclass
class FederationConfig(FederationSection):
    seed: int = 0


@dataclass
class ClientState:
    """One simulated client: its data shard, local model, and optimizer."""

    client_id: int
    x: np.ndarray
    y: np.ndarray
    model: object
    optimizer: OptimizerState
    train_rows: np.ndarray
    val_rows: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.x)

    @property
    def monitor_rows(self) -> np.ndarray:
        """The rows a client validates on: its validation rows, else its training rows."""
        return self.val_rows if self.val_rows.size else self.train_rows


@dataclass
class ClientRoundEntry:
    client_id: int
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class RoundLog:
    round_index: int
    clients: list[ClientRoundEntry]
    global_val_acc: float
    global_val_auc: float


@dataclass
class FederationResult:
    global_model: object | None
    global_predictor: object
    clients: list[ClientState]
    round_logs: list[RoundLog]


class EnsembleModel:
    """Pointwise function average of client predictors (mean of logits)."""

    kind = "ensemble"

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
        groups = [np.flatnonzero(labels == c) for c in np.unique(labels)]
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
    """Inference-mode loss, accuracy, and AUC of any predictor on (x, y)."""
    logits, _ = model.forward_batch(x, INFER)
    loss, _ = batch_loss_and_grad(logits, y, model.task)
    out = compute_metrics(class_probabilities(logits, model.task), y, model.task, threshold)
    out["loss"] = loss
    return out


def _loss_and_accuracy(model, x: np.ndarray, y: np.ndarray, threshold: float) -> tuple[float, float]:
    """Round-log client stats; tiny shards make AUC meaningless so it is skipped."""
    logits, _ = model.forward_batch(x, INFER)
    loss, _ = batch_loss_and_grad(logits, y, model.task)
    return loss, accuracy(class_probabilities(logits, model.task), y, model.task, threshold)


@dataclass
class LocalTrainLog:
    epochs_run: int
    train_losses: list[float]
    val_losses: list[float]
    stopped_early: bool


# an overflow is reported by the finite checks below, not by NumPy warnings
@np.errstate(all="ignore")
def local_train(
    client: ClientState,
    epochs: int,
    batch_size: int,
    control: ControlConfig,
    rng: int | np.random.Generator,
) -> LocalTrainLog:
    """Mini-batch training on the client's shard with early stopping and lr scheduling.

    Hook state is fresh per call; the learning rate lives on the client's
    optimizer and so persists across rounds. At exit the best-validation-loss
    snapshot observed during the call is restored.
    """
    if epochs < 1:
        raise TrainingError(f"client {client.client_id}: epochs must be >= 1")
    if batch_size < 1:
        raise TrainingError(f"client {client.client_id}: batch_size must be >= 1")
    gen = as_rng(rng)
    model = client.model
    x, y = client.x, client.y
    monitor_rows = client.monitor_rows

    stopper = control.make_early_stop()
    schedule = control.make_schedule()
    train_losses: list[float] = []
    val_losses: list[float] = []
    stopped = False
    grads = np.empty_like(model.params)  # rewritten whole by every backward

    for _ in range(epochs):
        order = client.train_rows[gen.permutation(len(client.train_rows))]
        batch_losses = []
        for start in range(0, len(order), batch_size):
            rows = order[start : start + batch_size]
            logits, cache = model.forward_batch(x[rows], TRAIN, gen)
            loss, dlogits = batch_loss_and_grad(logits, y[rows], model.task)
            if not math.isfinite(loss):
                raise TrainingError(f"client {client.client_id}: non-finite training loss")
            model.backward_batch(cache, dlogits, grads)
            model.set_params(optimizer_step(client.optimizer, model.params, grads))
            batch_losses.append(loss)
        train_losses.append(float(np.mean(batch_losses)))

        logits, _ = model.forward_batch(x[monitor_rows], INFER)
        val_loss, _ = batch_loss_and_grad(logits, y[monitor_rows], model.task)
        val_losses.append(val_loss)
        client.optimizer.learning_rate = schedule_lr(
            schedule, client.optimizer.learning_rate, val_loss
        )
        decision = early_stop_update(stopper, val_loss, model.params)
        if decision == STOP_ERROR:
            raise TrainingError(f"client {client.client_id}: non-finite validation loss")
        if decision == STOP:
            stopped = True
            break

    if stopper.best_snapshot is not None:
        model.set_params(stopper.best_snapshot)
    return LocalTrainLog(len(train_losses), train_losses, val_losses, stopped)


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


def make_clients(
    dataset: Dataset,
    shards: list[np.ndarray],
    init_model,
    optimizer_factory,
    val_fraction: float,
    seed: int,
) -> list[ClientState]:
    """Instantiate client states over train-set shard indices, all sharing one init."""
    x_train, y_train = dataset.X_train, dataset.y_train
    clients = []
    for cid, shard in enumerate(shards):
        model = init_model.copy()
        train_rows, val_rows = _carve_validation(len(shard), val_fraction, seed, cid)
        clients.append(
            ClientState(
                client_id=cid,
                x=x_train[shard],
                y=y_train[shard],
                model=model,
                optimizer=optimizer_factory(),
                train_rows=train_rows,
                val_rows=val_rows,
            )
        )
    return clients


def _pooled_validation(clients: list[ClientState]) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for client in clients:
        xs.append(client.x[client.monitor_rows])
        ys.append(client.y[client.monitor_rows])
    return np.concatenate(xs), np.concatenate(ys)


def run_federation(
    dataset: Dataset,
    config: FederationConfig,
    model_factory,
    optimizer_factory,
    control: ControlConfig | None = None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
    stratified: bool = True,
    threshold: float = 0.5,
) -> FederationResult:
    """Synchronous rounds with full participation.

    Per round: broadcast the global parameters, train every client locally,
    aggregate back by weighted averaging (unless aggregation is shape-only,
    in which case clients evolve independently and the global predictor is
    the logit-mean ensemble).
    """
    control = control or ControlConfig()
    shards = partition_clients(dataset.y_train, config.num_clients, config.seed, stratified)
    init = model_factory(np.random.default_rng([config.seed, _TAG_MODEL_INIT]))
    clients = make_clients(dataset, shards, init, optimizer_factory, val_fraction, config.seed)
    parameter_averaging = config.aggregation == BOTH
    global_model = init.copy() if parameter_averaging else None

    val_x, val_y = _pooled_validation(clients)
    logs: list[RoundLog] = []
    for round_index in range(1, config.rounds + 1):
        entries = []
        for client in clients:
            if parameter_averaging:
                client.model.copy_params_from(global_model)
            rng = np.random.default_rng(
                [config.seed, _TAG_LOCAL_TRAIN, round_index, client.client_id]
            )
            try:
                log = local_train(client, config.local_epochs, batch_size, control, rng)
            except TrainingError as exc:
                failure = TrainingError(f"round {round_index}: {exc}")
                failure.partial_logs = logs  # completed rounds survive the abort
                raise failure from exc
            rows = client.monitor_rows
            val_loss, val_acc = _loss_and_accuracy(
                client.model, client.x[rows], client.y[rows], threshold
            )
            entries.append(
                ClientRoundEntry(
                    client_id=client.client_id,
                    train_loss=log.train_losses[-1],
                    val_loss=val_loss,
                    val_acc=val_acc,
                )
            )
        if parameter_averaging:
            global_model = fed_avg(clients)
            predictor = global_model
        else:
            predictor = EnsembleModel([c.model for c in clients])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny pooled val sets may be single-class
            global_stats = evaluate_model(predictor, val_x, val_y, threshold)
        logs.append(
            RoundLog(round_index, entries, global_stats["accuracy"], global_stats["auc"])
        )
    return FederationResult(global_model, predictor, clients, logs)


def train_centralized(
    dataset: Dataset,
    config: FederationConfig,
    model_factory,
    optimizer_factory,
    control: ControlConfig | None = None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
    stratified: bool = True,
):
    """All data on one worker, same round/epoch structure, no aggregation step."""
    control = control or ControlConfig()
    shards = partition_clients(dataset.y_train, 1, config.seed, stratified)
    init = model_factory(np.random.default_rng([config.seed, _TAG_MODEL_INIT]))
    clients = make_clients(dataset, shards, init, optimizer_factory, val_fraction, config.seed)
    client = clients[0]
    for round_index in range(1, config.rounds + 1):
        rng = np.random.default_rng([config.seed, _TAG_LOCAL_TRAIN, round_index, 0])
        local_train(client, config.local_epochs, batch_size, control, rng)
    return client.model
