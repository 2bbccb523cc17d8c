import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fednam
from conftest import write_csv
from fednam.cli import main
from fednam.config import (
    GridConfig, RunConfig, DatasetConfig, FederationSection, config_from_dict, load_config, save_config,
)
from fednam.data import HEART, SplitSpec, load_dataset
from fednam.errors import ConfigError
from fednam.tune import config_at, enumerate_grid, grid_search, _selection_key, TrialResult


def rigged_dataset(tmp_path, n=60, seed=0):
    """Cleanly separable two-feature data: a sane configuration nails it."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = rng.normal()
        b = rng.normal()
        rows.append([a, b, int(a > 0)])
    path = write_csv(tmp_path / "toy.csv", ["f1", "f2", "target"], rows)
    return load_dataset(path, HEART, SplitSpec(test_fraction=0.2, seed=seed))


def quick_config(grid: GridConfig, rounds=2, epochs=2) -> RunConfig:
    return RunConfig(
        dataset=DatasetConfig(kind="heart", csv="unused"),
        federation=FederationSection(num_clients=2, rounds=rounds, local_epochs=epochs),
        grid=grid,
        batch_size=8,
        seed=0,
    )


class TestGridEnumeration:
    def test_default_grid_has_24_points(self):
        assert len(enumerate_grid(GridConfig())) == 24

    def test_fixed_product_order(self):
        grid = GridConfig(dropout=[0.0, 0.1], learning_rate=[0.01], hidden_layers=[1], batch_size=[8, 16])
        points = enumerate_grid(grid)
        assert points == [(0.0, 0.01, 1, 8), (0.0, 0.01, 1, 16),
                          (0.1, 0.01, 1, 8), (0.1, 0.01, 1, 16)]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(dropout=[])

    def test_more_than_4096_points_rejected(self):
        with pytest.raises(ConfigError, match=r"^grid has 4100 points, more than 4096$"):
            GridConfig(dropout=[0.0], learning_rate=[0.01], hidden_layers=[2], batch_size=list(range(1, 4101)))

    def test_repeated_value_rejected(self):
        with pytest.raises(ConfigError, match=r"^grid.learning_rate repeats the value 0.01$"):
            GridConfig(learning_rate=[0.01, 0.001, 0.01])


class TestGridSearch:
    def test_single_point_grid_wins(self, tmp_path):
        dataset = rigged_dataset(tmp_path)
        grid = GridConfig(dropout=[0.1], learning_rate=[0.005], hidden_layers=[1], batch_size=[8])
        winner, trials = grid_search(dataset, quick_config(grid))
        assert len(trials) == 1
        best = winner.config
        assert (best.model.dropout, best.optimizer.learning_rate) == (0.1, 0.005)
        assert best.model.hidden_layers == 1 and best.batch_size == 8

    def test_rigged_configuration_selected(self, tmp_path):
        # lr=1e-300 cannot move the model; lr=1e-2 separates the toy data
        dataset = rigged_dataset(tmp_path, n=240, seed=1)
        grid = GridConfig(dropout=[0.0], learning_rate=[1e-2, 1e-300],
                          hidden_layers=[1], batch_size=[8])
        winner, trials = grid_search(dataset, quick_config(grid, rounds=6, epochs=3))
        assert len(trials) == 2
        assert winner.config.optimizer.learning_rate == 1e-2
        by_lr = {t.config.optimizer.learning_rate: t for t in trials}
        assert by_lr[1e-2].mean_val_acc >= by_lr[1e-300].mean_val_acc
        assert by_lr[1e-2].global_test_acc > by_lr[1e-300].global_test_acc

    def test_deterministic_results(self, tmp_path):
        dataset = rigged_dataset(tmp_path, seed=2)
        grid = GridConfig(dropout=[0.0, 0.2], learning_rate=[0.01], hidden_layers=[1], batch_size=[8])
        first = grid_search(dataset, quick_config(grid))
        second = grid_search(dataset, quick_config(grid))
        assert first[0].trial_id == second[0].trial_id
        for a, b in zip(first[1], second[1]):
            assert a.mean_val_acc == b.mean_val_acc
            assert a.global_test_auc == b.global_test_auc

    @pytest.mark.filterwarnings("ignore")
    def test_failed_trial_recorded_and_excluded(self, tmp_path):
        # lr=1e280 blows the parameters up until gradients go non-finite
        dataset = rigged_dataset(tmp_path, seed=4)
        grid = GridConfig(dropout=[0.0], learning_rate=[1e-2, 1e280],
                          hidden_layers=[1], batch_size=[8])
        winner, trials = grid_search(dataset, quick_config(grid))
        assert winner.config.optimizer.learning_rate == 1e-2
        failed = [t for t in trials if t.error is not None]
        assert len(failed) == 1 and failed[0].config.optimizer.learning_rate == 1e280
        assert "non-finite" in failed[0].error

    @pytest.mark.filterwarnings("ignore")
    def test_all_trials_failed_raises_training_error(self, tmp_path):
        from fednam.errors import TrainingError

        dataset = rigged_dataset(tmp_path, seed=5)
        grid = GridConfig(dropout=[0.0], learning_rate=[1e280],
                          hidden_layers=[1], batch_size=[8])
        with pytest.raises(TrainingError,
                           match="all grid trials failed; trial 0: round 1: client 0: non-finite"):
            grid_search(dataset, quick_config(grid))

    def test_each_trial_carries_the_config_at_its_point(self, tmp_path):
        dataset = rigged_dataset(tmp_path, seed=6)
        grid = GridConfig(dropout=[0.0, 0.2], learning_rate=[0.01, 0.02], hidden_layers=[1],
                          batch_size=[8])
        config = quick_config(grid, rounds=1, epochs=1)
        _, trials = grid_search(dataset, config)
        points = enumerate_grid(grid)
        assert len(points) == 4
        assert [t.trial_id for t in trials] == list(range(4))
        assert [t.config for t in trials] == [config_at(config, p) for p in points]

    def test_parallel_jobs_match_serial(self, tmp_path):
        dataset = rigged_dataset(tmp_path, seed=3)
        grid = GridConfig(dropout=[0.0, 0.1], learning_rate=[0.01], hidden_layers=[1], batch_size=[8])
        serial = grid_search(dataset, quick_config(grid), jobs=1)
        parallel = grid_search(dataset, quick_config(grid), jobs=2)
        assert serial[0].trial_id == parallel[0].trial_id
        for a, b in zip(serial[1], parallel[1]):
            assert a.mean_val_acc == b.mean_val_acc


    def test_no_more_workers_than_trials(self, tmp_path, monkeypatch, pool_sizes):
        """The pool forks all its workers at once, so `jobs` beyond the grid would fork idle ones."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        dataset = rigged_dataset(tmp_path, seed=3)
        grid = GridConfig(dropout=[0.0, 0.1], learning_rate=[0.01], hidden_layers=[1], batch_size=[8])
        _, trials = grid_search(dataset, quick_config(grid, rounds=1, epochs=1), jobs=64)
        assert pool_sizes == [2] and len(trials) == 2

    @pytest.mark.parametrize("cpus,pools", [(2, [2]), (1, []), (None, [])])
    def test_no_more_workers_than_cpus(self, tmp_path, monkeypatch, pool_sizes, cpus, pools):
        """Where `os` has no affinity call, one CPU, or a count the OS does not know, runs
        the trials in this process."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        grid = GridConfig(dropout=[0.0, 0.1, 0.2], learning_rate=[0.01], hidden_layers=[1], batch_size=[8])
        _, trials = grid_search(rigged_dataset(tmp_path), quick_config(grid, rounds=1, epochs=1), jobs=64)
        assert pool_sizes == pools and len(trials) == 3

    def test_no_more_workers_than_cpus_the_process_may_use(self, tmp_path, monkeypatch, pool_sizes):
        """A process pinned to one CPU of a larger host runs the trials in this process."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        grid = GridConfig(dropout=[0.0, 0.1], learning_rate=[0.01], hidden_layers=[1], batch_size=[8])
        _, trials = grid_search(rigged_dataset(tmp_path), quick_config(grid, rounds=1, epochs=1), jobs=2)
        assert pool_sizes == [] and len(trials) == 2


@pytest.fixture
def pool_sizes(monkeypatch):
    """The `max_workers` of each process pool `grid_search` asks for; its
    trials run in this process instead, so no test starts a worker."""
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


class TestSelection:
    def trial(self, tid, mean, auc=0.5, lr=0.01, dropout=0.0):
        config = config_at(RunConfig(), (dropout, lr, 2, 16))
        return TrialResult(tid, config, [mean], mean, auc, 0.0, 0.0)

    def test_ties_broken_by_auc_then_lr_then_dropout(self):
        a = self.trial(0, 0.9, auc=0.7, lr=0.01, dropout=0.3)
        b = self.trial(1, 0.9, auc=0.9, lr=0.01, dropout=0.3)
        assert min([a, b], key=_selection_key) is b
        c = self.trial(2, 0.9, auc=0.9, lr=0.001, dropout=0.3)
        assert min([b, c], key=_selection_key) is c
        d = self.trial(3, 0.9, auc=0.9, lr=0.001, dropout=0.0)
        assert min([c, d], key=_selection_key) is d

    def test_nan_auc_sorts_last_among_ties(self):
        a = self.trial(0, 0.9, auc=float("nan"))
        b = self.trial(1, 0.9, auc=0.5)
        assert min([a, b], key=_selection_key) is b


def test_config_round_trip_and_unknown_keys():
    doc = {"seed": 3, "federation": {"rounds": 7}}
    config = config_from_dict(doc)
    assert config.seed == 3 and config.federation.rounds == 7
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"sneaky": 1})
    with pytest.raises(ConfigError, match="unknown keys in federation"):
        config_from_dict({"federation": {"round": 7}})


@pytest.mark.parametrize(
    "doc,key",
    [({"model": {"dropout": True}}, "model.dropout"),
     ({"jobs": 2.0}, "jobs"),
     ({"svg": 1}, "svg"),
     ({"dataset": {"target_col": 3}}, "dataset.target_col"),
     ({"grid": {"batch_size": [16, "32"]}}, "grid.batch_size"),
     ({"control": {"early_stop_patience": False}}, "control.early_stop_patience")],
)
def test_config_value_types_checked(doc, key):
    with pytest.raises(ConfigError, match=f"^{key} must be of type"):
        config_from_dict(doc)


def test_jobs_capped_at_64():
    with pytest.raises(ConfigError, match=r"^jobs must be <= 64, got 65$"):
        config_from_dict({"jobs": 65})


def test_config_accepts_int_for_float_and_null_for_optional():
    config = config_from_dict({"optimizer": {"learning_rate": 1}, "grid": {"dropout": [0, 0.5]},
                               "dataset": {"target_col": None}})
    assert config.optimizer.learning_rate == 1
    assert config.grid.dropout == [0, 0.5]
    assert config.dataset.target_col is None


def test_config_file_round_trip(tmp_path):
    from fednam.config import load_config, save_config

    config = quick_config(GridConfig(dropout=[0.2], learning_rate=[3e-4],
                                     hidden_layers=[4], batch_size=[64]))
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config


def test_cli_import_leaves_the_process_pool_unloaded():
    code = "import sys, fednam.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fednam.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_best_json_is_the_winners_config_and_its_trials_row(tmp_path):
    dataset = rigged_dataset(tmp_path, seed=7)
    grid = GridConfig(dropout=[0.0, 0.3], learning_rate=[0.01, 1e-300], hidden_layers=[1],
                      batch_size=[8])
    config = dataclasses.replace(quick_config(grid, rounds=2, epochs=1),
                                 dataset=DatasetConfig(kind="heart", csv=str(tmp_path / "toy.csv")),
                                 out_dir=str(tmp_path / "tune"))
    save_config(config, tmp_path / "config.json")
    assert main(["tune", "--config", str(tmp_path / "config.json")]) == 0
    winner, _ = grid_search(dataset, config)
    assert load_config(tmp_path / "tune" / "best.json") == winner.config
    with open(tmp_path / "tune" / "trials.csv", newline="") as f:
        row = next(r for r in csv.DictReader(f) if r["trial_id"] == str(winner.trial_id))
    best = winner.config
    assert (float(row["dropout"]), float(row["lr"]), int(row["layers"]), int(row["batch"])) == (
        best.model.dropout, best.optimizer.learning_rate, best.model.hidden_layers, best.batch_size)
