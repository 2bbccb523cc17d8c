"""Grid search over dropout, learning rate, depth, and batch size.

Every grid point runs one full federation on identical partitions; the winner
maximizes mean per-client validation accuracy, with ties broken by global
validation AUC, then lower learning rate, then lower dropout.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .config import GridConfig, ModelConfig, OptimizerConfig, RunConfig
from .data import Dataset
from .errors import FedNamError, TrainingError
from .federation import FederationResult, evaluate_model, run_federation
from .nam import build_nam
from .nn import OptimizerState


def make_nam_factory(dataset: Dataset, model_cfg: ModelConfig):
    def factory(rng):
        return build_nam(
            n_features=dataset.X.shape[1],
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


def run_from_config(dataset: Dataset, config: RunConfig) -> FederationResult:
    """Train a NAM federation as described by a RunConfig."""
    return run_federation(
        dataset,
        config.federation.to_config(config.seed),
        make_nam_factory(dataset, config.model),
        make_optimizer_factory(config.optimizer),
        config.control,
        batch_size=config.batch_size,
        val_fraction=config.split.val_fraction,
        stratified=config.split.stratified,
        threshold=config.threshold,
    )


@dataclass
class TrialResult:
    trial_id: int
    dropout: float
    learning_rate: float
    hidden_layers: int
    batch_size: int
    # a failed trial keeps these defaults and sets `error`
    per_client_val_acc: list[float] = field(default_factory=list)
    mean_val_acc: float = math.nan
    global_val_auc: float = math.nan
    global_test_acc: float = math.nan
    global_test_auc: float = math.nan
    error: str | None = None


def enumerate_grid(grid: GridConfig) -> list[tuple[float, float, int, int]]:
    """Cartesian product in a fixed order: dropout, learning rate, layers, batch."""
    return list(product(grid.dropout, grid.learning_rate, grid.hidden_layers, grid.batch_size))


def config_at(config: RunConfig, point: tuple[float, float, int, int]) -> RunConfig:
    """`config` with one grid point's dropout, learning rate, depth and batch size."""
    dropout, lr, layers, batch = point
    return replace(
        config,
        model=replace(config.model, dropout=dropout, hidden_layers=layers),
        optimizer=replace(config.optimizer, learning_rate=lr),
        batch_size=batch,
    )


def _run_trial(args) -> TrialResult:
    trial_id, point, dataset, config = args
    try:
        result = run_from_config(dataset, config_at(config, point))
        per_client = []
        for client in result.clients:
            rows = client.monitor_rows
            stats = evaluate_model(
                result.global_predictor, client.x[rows], client.y[rows], config.threshold
            )
            per_client.append(stats["accuracy"])
        test_stats = evaluate_model(
            result.global_predictor, dataset.X_test, dataset.y_test, config.threshold
        )
        return TrialResult(
            trial_id,
            *point,
            per_client_val_acc=per_client,
            mean_val_acc=float(np.mean(per_client)),
            global_val_auc=result.round_logs[-1].global_val_auc,
            global_test_acc=test_stats["accuracy"],
            global_test_auc=test_stats["auc"],
        )
    except FedNamError as exc:
        return TrialResult(trial_id, *point, error=str(exc))


def _selection_key(trial: TrialResult):
    auc = trial.global_val_auc
    auc_key = -math.inf if math.isnan(auc) else auc
    return (-trial.mean_val_acc, -auc_key, trial.learning_rate, trial.dropout, trial.trial_id)


def grid_search(
    dataset: Dataset, config: RunConfig, jobs: int = 1
) -> tuple[TrialResult, list[TrialResult]]:
    """Run every grid point; returns (winner, all results ordered by trial id)."""
    points = enumerate_grid(config.grid)
    work = [(i, p, dataset, config) for i, p in enumerate(points)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial, work))
    else:
        results = [_run_trial(w) for w in work]
    valid = [t for t in results if t.error is None]
    if not valid:
        raise TrainingError("all grid trials failed")
    winner = min(valid, key=_selection_key)
    return winner, results
