"""Command-line entry point: train, explain, tune, benchmark.

Exit codes: 0 success, 1 configuration or usage error, 2 data error, 3 training failure.
Everything a command writes lands under its --out directory, and this module
writes all of it; timestamps are confined to run_info.json so repeated runs
stay byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import time
import warnings
from pathlib import Path

from .config import RunConfig, load_config, save_config, with_field
from .data import DATASET_KINDS, Dataset, Scaler, load_dataset
from .errors import ConfigError, DataError, FedNamError, TrainingError
from .federation import RoundLog, evaluate_model
from .interpret import InterpretBundle, baseline_attributions, global_interpret, render_shapes_svg
# unused here, but perfbench/tracing.py wraps them on this module by name
from .interpret import contribution_scores, model_curves
from .nam import load_model, save_model
from .tune import federation_inputs, grid_search, run_from_config

__all__ = ["main"]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form: re-parsing a file restores the exact double."""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_round_logs(logs: list[RoundLog], path: Path) -> None:
    """rounds.csv: one row per round and client."""
    _write_csv(
        path,
        ["round", "client_id", "train_loss", "val_loss", "val_acc", "global_val_acc", "global_val_auc"],
        (
            [log.round_index, entry.client_id, _fmt(entry.train_losses[-1]), _fmt(entry.val_loss),
             _fmt(entry.val_acc), _fmt(log.global_val_acc), _fmt(log.global_val_auc)]
            for log in logs
            for entry in log.clients
        ),
    )


def export_reports(
    bundle: InterpretBundle,
    out: Path,
    scaler: Scaler,
    svg: bool = False,
) -> None:
    """Write contributions.csv, shapes.csv and shapes_raw_units.csv, plus
    shapes.svg when asked."""
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "contributions.csv",
        ["owner", "feature", "score", "rank"],
        (
            [report.owner, name, _fmt(report.scores[k]), report.rank_of(name)]
            for report in bundle.contributions
            for k, name in enumerate(report.feature_names)
        ),
    )

    def shape_rows(units: Scaler | None):
        for curve in bundle.curves:
            k = curve.feature_index
            xs = curve.grid if units is None else curve.grid * units.std[k] + units.mean[k]
            # _fmt's strings, one array at a time
            xs, vs = map(float.__repr__, xs.tolist()), map(float.__repr__, curve.values.tolist())
            for x, v in zip(xs, vs):
                yield [curve.owner, bundle.feature_names[k], curve.class_index, x, v]

    _write_csv(out / "shapes.csv", ["owner", "feature", "class", "x", "value"], shape_rows(None))
    _write_csv(
        out / "shapes_raw_units.csv",
        ["owner", "feature", "class", "x_raw", "value"],
        shape_rows(scaler),
    )
    if svg:
        (out / "shapes.svg").write_text(render_shapes_svg(bundle), encoding="utf-8")


def _load_run_dataset(config: RunConfig) -> Dataset:
    if not config.dataset.csv:
        raise DataError("no CSV path given; set dataset.csv or pass --csv")
    return load_dataset(
        config.dataset.csv,
        config.dataset.kind,
        config.split.to_spec(config.seed),
        config.dataset.target_col,
        config.dataset.iris_binary,
    )


def cmd_train(config: RunConfig, out: Path) -> None:
    dataset = _load_run_dataset(config)
    rounds: list[RoundLog] = []
    try:
        result = run_from_config(dataset, config, on_round=rounds.append)
    finally:  # a failed run keeps the rounds that completed
        if rounds:
            out.mkdir(parents=True, exist_ok=True)
            write_round_logs(rounds, out / "rounds.csv")

    if result.global_model is not None:
        save_model(result.global_model, dataset.feature_names, out / "model.json")
    clients_dir = out / "clients"
    clients_dir.mkdir(exist_ok=True)
    for client in result.clients:
        save_model(
            client.model, dataset.feature_names, clients_dir / f"client_{client.client_id}.json"
        )

    stats = evaluate_model(result.global_predictor, dataset.X_test, dataset.y_test, config.threshold)
    bundle = global_interpret(
        result.clients, result.global_predictor, dataset.X_train, dataset.feature_names
    )
    export_reports(bundle, out, scaler=dataset.scaler, svg=config.svg)
    _write_csv(out / "metrics.csv", ["metric", "value"],
               [[key, _fmt(stats[key])] for key in ("accuracy", "auc")])
    save_config(config, out / "config.json")
    print(f"test accuracy {stats['accuracy']:.4f}  auc {stats['auc']:.4f}  -> {out}")


def cmd_explain(config: RunConfig, out: Path, model: str) -> None:
    nam, feature_names = load_model(model)
    dataset = _load_run_dataset(config)
    if feature_names != dataset.feature_names:
        raise DataError(f"model features {feature_names} of {model} do not match "
                        f"dataset {dataset.feature_names} of {config.dataset.csv}")
    bundle = global_interpret([], nam, dataset.X_train, dataset.feature_names)
    export_reports(bundle, out, scaler=dataset.scaler, svg=config.svg)
    print(f"wrote contribution and shape reports -> {out}")


def cmd_tune(config: RunConfig, out: Path) -> None:
    dataset = _load_run_dataset(config)
    winner, trials = grid_search(dataset, config, jobs=config.jobs)
    out.mkdir(parents=True, exist_ok=True)

    n_clients = config.federation.num_clients
    _write_csv(
        out / "trials.csv",
        ["trial_id", "dropout", "lr", "layers", "batch"]
        + [f"client{i + 1}_val_acc" for i in range(n_clients)]
        + ["mean_val_acc", "global_test_acc", "global_test_auc"],
        (
            [t.trial_id, _fmt(t.config.model.dropout), _fmt(t.config.optimizer.learning_rate),
             t.config.model.hidden_layers, t.config.batch_size]
            + [_fmt(a) for a in t.per_client_val_acc]
            + [""] * (n_clients - len(t.per_client_val_acc))
            + [_fmt(t.mean_val_acc), _fmt(t.global_test_acc), _fmt(t.global_test_auc)]
            for t in trials
        ),
    )
    failed = [[t.trial_id, t.error] for t in trials if t.error is not None]
    if failed:
        _write_csv(out / "trial_errors.csv", ["trial_id", "error"], failed)

    best = winner.config
    save_config(best, out / "best.json")
    print(
        f"best trial {winner.trial_id}: dropout={best.model.dropout} "
        f"lr={best.optimizer.learning_rate} layers={best.model.hidden_layers} "
        f"batch={best.batch_size} mean_val_acc={winner.mean_val_acc:.4f} -> {out}"
    )


def cmd_benchmark(config: RunConfig, out: Path) -> None:
    dataset = _load_run_dataset(config)
    nam_result = run_from_config(dataset, config)
    nam_stats = evaluate_model(
        nam_result.global_predictor, dataset.X_test, dataset.y_test, config.threshold
    )
    _, attributions, dnn_stats = baseline_attributions(dataset, **federation_inputs(config))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "benchmark.csv",
        ["row_type", "name", "test_accuracy", "test_auc", "avg_attribution"],
        [
            ["model", "fednam", _fmt(nam_stats["accuracy"]), _fmt(nam_stats["auc"]), ""],
            ["model", "dnn", _fmt(dnn_stats["accuracy"]), _fmt(dnn_stats["auc"]), ""],
        ]
        + [["attribution", name, "", "", _fmt(value)]
           for name, value in zip(dataset.feature_names, attributions)],
    )
    gap = abs(nam_stats["accuracy"] - dnn_stats["accuracy"])
    print(
        f"fednam acc {nam_stats['accuracy']:.4f} vs dnn acc {dnn_stats['accuracy']:.4f} "
        f"(gap {gap:.4f}) -> {out}"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error exits 1 with one line, as a config error
        raise ConfigError(f"{self.prog}: {message}")


# Every flag once: the RunConfig field it overrides (dotted inside a section),
# or None for a flag that `main` or the command's handler reads itself.
# A flag left out parses as None and keeps the config's value.
FLAGS = {
    "--config": (None, {"help": "JSON run configuration"}),
    "--seed": ("seed", {"type": int, "help": "override random seed"}),
    "--out": ("out_dir", {"help": "override output directory"}),
    "--dataset": ("dataset.kind", {"choices": DATASET_KINDS, "help": "dataset kind"}),
    "--csv": ("dataset.csv", {"help": "path to the dataset CSV"}),
    "--target-col": ("dataset.target_col", {"help": "override the target column name"}),
    "--threshold": ("threshold", {"type": float, "help": "binary decision threshold"}),
    "--svg": ("svg", {"action": "store_true", "default": None, "help": "also render shapes.svg"}),
    "--jobs": ("jobs", {"type": int, "help": "parallel workers for grid trials"}),
    "--model": (None, {"required": True, "help": "model JSON written by train"}),
}
FIELDS = {flag[2:].replace("-", "_"): field for flag, (field, _) in FLAGS.items()}
COMMON = ("--config", "--seed", "--out", "--dataset", "--csv", "--target-col")
# Each command's handler and the flags it reads. The handler gets the resolved
# config, its out directory and, by name, each of its flags but --config that
# sets no field.
COMMANDS = {
    "train": (cmd_train, COMMON + ("--threshold", "--svg")),
    "explain": (cmd_explain, COMMON + ("--svg", "--model")),
    "tune": (cmd_tune, COMMON + ("--jobs", "--threshold")),
    "benchmark": (cmd_benchmark, COMMON + ("--threshold",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fednam", description="Federated neural additive models: "
                     "train, tune, explain, benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag][1])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Resolve the config, run the command's handler, then write run_info.json."""
    try:
        args = vars(_build_parser().parse_args(argv))
        command, config_path = args.pop("command"), args.pop("config")
        config = load_config(config_path) if config_path else RunConfig()
        handler_args = {}
        for name, value in args.items():
            if FIELDS[name] is None:
                handler_args[name] = value
            elif value not in (None, ""):  # an empty string overrides nothing
                config = with_field(config, FIELDS[name], value)
        out = Path(config.out_dir)
        # checked before any data is read; the nearest existing path must be a directory
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"out_dir {out}: {existing} is not a directory")
        # so must the longest path the command writes under it: train's last
        # client model, else shapes_raw_units.csv
        last = f"clients/client_{config.federation.num_clients - 1}.json"
        longest = out / (last if command == "train" else "shapes_raw_units.csv")
        if len(os.fsencode(longest)) >= os.pathconf(existing, "PC_PATH_MAX"):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(out))
        # a failed command prints its one error line and no warning before it
        with warnings.catch_warnings(record=True) as caught:
            COMMANDS[command][0](config, out, **handler_args)
        for message in dict.fromkeys(str(w.message) for w in caught):  # each once, as first seen
            print(f"warning: {message}", file=sys.stderr)
        info = {"command": command, "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        (out / "run_info.json").write_text(json.dumps(info, indent=1, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except FedNamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a forked tune worker's reaches here through the pool too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the out_dir probe or a write under it; each read maps its own
        where = exc.filename or out  # a failed write() names no file
        print(f"config error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
