"""Grid search over dropout, learning rate, depth, and batch size.

Every grid point runs one full federation on identical partitions; the winner
maximizes mean per-client validation accuracy, with ties broken by global
validation AUC, then lower learning rate, then lower dropout.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from . import federation
from .config import GRID_FIELDS, GridConfig, ModelConfig, OptimizerConfig, RunConfig, with_field
from .data import Dataset
from .errors import ConfigError, TrainingError
from .federation import FederationResult, RoundLog, evaluate_model, run_federation
from .nam import build_nam, nam_parameter_count
from .nn import ADAM, BINARY, EXU, OptimizerState
from .nn.bank import GRAD_BLOCK_ROWS


def make_nam_factory(dataset: Dataset, model_cfg: ModelConfig):
    def factory(rng):
        return build_nam(
            n_features=len(dataset.feature_names),
            task=dataset.task,
            n_classes=dataset.n_classes,
            hidden_layers=model_cfg.hidden_layers,
            hidden_units=model_cfg.hidden_units,
            hidden_activation=model_cfg.unit_kind,
            dropout_rate=model_cfg.dropout,
            rng=rng,
        )

    return factory


def make_optimizer_factory(opt_cfg: OptimizerConfig):
    def factory():
        return OptimizerState(kind=opt_cfg.kind, learning_rate=opt_cfg.learning_rate)

    return factory


# the most bytes one NAM training pass may hold in its activations, and the
# most a run's parameter vectors may hold together
MAX_PASS_BYTES = 2 * 1024**3
MAX_PARAM_BYTES = 4 * 1024**3


def check_pass_memory(dataset: Dataset, config: RunConfig) -> None:
    """Refuse a config whose NAM would hold more than MAX_PASS_BYTES in a
    training pass, or more than MAX_PARAM_BYTES in parameter vectors, before
    any weight is allocated.

    The pass keeps each hidden layer's output and, under dropout, its mask,
    (K, batch, units) floats each, beside four working arrays of that size;
    above GRAD_BLOCK_ROWS rows, one block's (K, units, units) weight-gradient
    product; and in an ExU net of two or more hidden layers, one exp(W) stack
    of that size. The vectors are, per client, the parameters and, under Adam,
    its two moments; and the training client's gradient buffer, its early-stop
    snapshot and the vector the optimizer returns. The global model is made
    after local training and dropped once broadcast, so it is never held beside
    those three.
    """
    model = config.model
    features, units, layers = len(dataset.feature_names), model.hidden_units, model.hidden_layers
    rows = min(config.batch_size, len(dataset.y_train))
    arrays = (2 if model.dropout > 0.0 else 1) * layers + 4
    stacks = (rows > GRAD_BLOCK_ROWS) + (model.unit_kind == EXU and layers >= 2)
    need = 8 * features * units * (rows * arrays + units * stacks)
    if need > MAX_PASS_BYTES:
        raise ConfigError(
            f"batch_size {config.batch_size} and model.hidden_units {units} give a training "
            f"pass of {need} bytes over {features} features, more than {MAX_PASS_BYTES}"
        )
    out_dim = 1 if dataset.task == BINARY else dataset.n_classes
    count = nam_parameter_count(features, out_dim, layers, units)
    per_client = 3 if config.optimizer.kind == ADAM else 1
    vectors = per_client * config.federation.num_clients + 3
    need = 8 * count * vectors
    if need > MAX_PARAM_BYTES:
        raise ConfigError(
            f"model.hidden_layers {layers} and model.hidden_units {units} give {count} "
            f"parameters over {features} features; the {vectors} parameter vectors of a run "
            f"take {need} bytes, more than {MAX_PARAM_BYTES}"
        )


def federation_inputs(config: RunConfig) -> dict:
    """The inputs every federation of a run shares, by keyword: the
    FederationConfig, optimizer factory, control hooks, batch size, validation
    fraction and threshold that `run_federation` and `baseline_attributions` take."""
    return {
        "config": config.federation.to_config(config.seed, config.split.stratified),
        "optimizer_factory": make_optimizer_factory(config.optimizer),
        "control": config.control,
        "batch_size": config.batch_size,
        "val_fraction": config.split.val_fraction,
        "threshold": config.threshold,
    }


def run_from_config(
    dataset: Dataset, config: RunConfig, on_round: Callable[[RoundLog], None] | None = None
) -> FederationResult:
    """Train a NAM federation as described by a RunConfig; `on_round` receives
    each round's log as the round ends."""
    check_pass_memory(dataset, config)
    return run_federation(dataset, model_factory=make_nam_factory(dataset, config.model),
                          on_round=on_round, **federation_inputs(config))


@dataclass
class TrialResult:
    trial_id: int
    config: RunConfig  # the run config at the trial's grid point
    # a failed trial keeps these defaults and sets `error`
    per_client_val_acc: list[float] = field(default_factory=list)
    mean_val_acc: float = math.nan
    global_val_auc: float = math.nan
    global_test_acc: float = math.nan
    global_test_auc: float = math.nan
    error: str | None = None
    # the message of each warning the trial issued
    warnings: list[str] = field(default_factory=list)


def enumerate_grid(grid: GridConfig) -> list[tuple[float, float, int, int]]:
    """Cartesian product in a fixed order: dropout, learning rate, layers, batch."""
    return list(product(*(getattr(grid, name) for name in GRID_FIELDS)))


def config_at(config: RunConfig, point: tuple[float, float, int, int]) -> RunConfig:
    """`config` with one grid point's dropout, learning rate, depth and batch size."""
    for dotted, value in zip(GRID_FIELDS.values(), point):
        config = with_field(config, dotted, value)
    return config


def _run_trial(args) -> TrialResult:
    """One grid point's federation, with the warnings it issued.

    A forked worker inherits the parent's warning recorder, and what it
    records there is lost with the worker; the result carries them instead.
    """
    trial_id, config, dataset = args
    with warnings.catch_warnings(record=True) as caught:
        try:
            rounds: list[RoundLog] = []
            result = run_from_config(dataset, config, on_round=rounds.append)
            per_client = []
            for client in result.clients:
                # accuracy without an AUC: that of a small shard would go unused, and
                # warn when the shard holds one class
                _, acc = federation._loss_and_accuracy(
                    result.global_predictor, client.monitor_x, client.monitor_y, config.threshold
                )
                per_client.append(acc)
            test_stats = evaluate_model(
                result.global_predictor, dataset.X_test, dataset.y_test, config.threshold
            )
            trial = TrialResult(
                trial_id,
                config,
                per_client_val_acc=per_client,
                mean_val_acc=float(np.mean(per_client)),
                global_val_auc=rounds[-1].global_val_auc,
                global_test_acc=test_stats["accuracy"],
                global_test_auc=test_stats["auc"],
            )
        except TrainingError as exc:  # a trial fails by training; any other error ends the search
            trial = TrialResult(trial_id, config, error=str(exc))
    trial.warnings = [str(w.message) for w in caught]
    return trial


def _selection_key(trial: TrialResult):
    auc = trial.global_val_auc
    auc_key = -math.inf if math.isnan(auc) else auc
    return (-trial.mean_val_acc, -auc_key, trial.config.optimizer.learning_rate,
            trial.config.model.dropout, trial.trial_id)


def grid_search(
    dataset: Dataset, config: RunConfig, jobs: int = 1
) -> tuple[TrialResult, list[TrialResult]]:
    """Run every grid point; returns (winner, all results ordered by trial id)."""
    points = enumerate_grid(config.grid)
    work = [(i, config_at(config, p), dataset) for i, p in enumerate(points)]
    for trial_id, trial_config, _ in work:  # refused before any trial runs
        try:
            check_pass_memory(dataset, trial_config)
        except ConfigError as exc:
            raise ConfigError(f"grid trial {trial_id}: {exc}") from exc
    # fork starts every worker at once: one per trial and per CPU at most,
    # counting only the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(work), cpus or 1)
    if workers > 1:
        # imported here: it costs every other command's start-up 15-18 ms
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                results = list(pool.map(_run_trial, work))
            except BrokenProcessPool as exc:  # a worker died, say killed for its memory
                raise TrainingError(f"the tune worker pool broke: {exc}") from exc
    else:
        results = [_run_trial(w) for w in work]
    # issued here, in trial order, whatever process ran the trial
    for trial in results:
        for message in trial.warnings:
            warnings.warn(message)
    valid = [t for t in results if t.error is None]
    if not valid:
        first = results[0]
        raise TrainingError(f"all grid trials failed; trial {first.trial_id}: {first.error}")
    winner = min(valid, key=_selection_key)
    return winner, results
