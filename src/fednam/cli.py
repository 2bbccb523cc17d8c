"""Command-line entry point: train, explain, tune, benchmark.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 training failure.
Everything a command writes lands under its --out directory, and this module
writes all of it; timestamps are confined to run_info.json so repeated runs
stay byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config, save_config
from .data import Dataset, Scaler, load_dataset
from .errors import ConfigError, DataError, FedNamError, TrainingError
from .federation import RoundLog, evaluate_model
from .interpret import (
    GLOBAL_OWNER,
    baseline_attributions,
    contribution_scores,
    global_interpret,
    model_curves,
    render_shapes_svg,
    training_feature_ranges,
    InterpretBundle,
)
from .nam import NamModel, load_model, save_model
from .tune import config_at, grid_search, make_optimizer_factory, run_from_config

__all__ = ["main"]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form: re-parsing a file restores the exact double."""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_round_logs(logs: list[RoundLog], path: Path) -> None:
    """rounds.csv: one row per round and client."""
    _write_csv(
        path,
        ["round", "client_id", "train_loss", "val_loss", "val_acc", "global_val_acc", "global_val_auc"],
        (
            [log.round_index, entry.client_id, _fmt(entry.train_loss), _fmt(entry.val_loss),
             _fmt(entry.val_acc), _fmt(log.global_val_acc), _fmt(log.global_val_auc)]
            for log in logs
            for entry in log.clients
        ),
    )


def export_reports(
    bundle: InterpretBundle,
    out: Path,
    scaler: Scaler,
    metrics: dict[str, float] | None = None,
    svg: bool = False,
) -> None:
    """Write contributions.csv, shapes.csv and shapes_raw_units.csv, plus
    metrics.csv when metrics are given and shapes.svg when asked."""
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "contributions.csv",
        ["owner", "feature", "score", "rank"],
        (
            [report.owner, name, _fmt(report.scores[k]), report.rank_of(name)]
            for report in [*bundle.client_contributions, bundle.global_contribution]
            for k, name in enumerate(report.feature_names)
        ),
    )
    curves = [*bundle.client_curves, *bundle.global_curves]

    def shape_rows(units: Scaler | None):
        for curve in curves:
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
    if metrics is not None:
        rows = [[key, _fmt(metrics[key])] for key in sorted(metrics)]
        _write_csv(out / "metrics.csv", ["metric", "value"], rows)
    if svg:
        (out / "shapes.svg").write_text(render_shapes_svg(bundle))


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


def _write_run_info(out: Path, command: str) -> None:
    info = {"command": command, "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    (out / "run_info.json").write_text(json.dumps(info, indent=1, sort_keys=True))


def cmd_train(config: RunConfig) -> int:
    dataset = _load_run_dataset(config)
    out = Path(config.out_dir)
    try:
        result = run_from_config(dataset, config)
    except TrainingError as exc:
        logs = getattr(exc, "partial_logs", None)
        if logs:
            out.mkdir(parents=True, exist_ok=True)
            write_round_logs(logs, out / "rounds.csv")
        raise
    out.mkdir(parents=True, exist_ok=True)

    if result.global_model is not None:
        save_model(result.global_model, dataset.feature_names, out / "model.json")
    clients_dir = out / "clients"
    clients_dir.mkdir(exist_ok=True)
    for client in result.clients:
        save_model(
            client.model, dataset.feature_names, clients_dir / f"client_{client.client_id}.json"
        )
    write_round_logs(result.round_logs, out / "rounds.csv")

    stats = evaluate_model(result.global_predictor, dataset.X_test, dataset.y_test, config.threshold)
    bundle = global_interpret(
        result.clients, result.global_predictor, dataset.X_train, dataset.feature_names
    )
    export_reports(
        bundle,
        out,
        scaler=dataset.scaler,
        metrics={"accuracy": stats["accuracy"], "auc": stats["auc"]},
        svg=config.svg,
    )
    save_config(config, out / "config.json")
    _write_run_info(out, "train")
    print(f"test accuracy {stats['accuracy']:.4f}  auc {stats['auc']:.4f}  -> {out}")
    return 0


def cmd_explain(config: RunConfig, model_path: str | Path) -> int:
    model, feature_names = load_model(model_path)
    if not isinstance(model, NamModel):
        raise ConfigError("explain requires an additive model file")
    dataset = _load_run_dataset(config)
    if feature_names != dataset.feature_names:
        raise DataError(
            f"model features {feature_names} do not match dataset {dataset.feature_names}"
        )
    ranges = training_feature_ranges(dataset.X_train)
    curves = model_curves(model, ranges, GLOBAL_OWNER)
    report = contribution_scores(model, dataset.X_train, GLOBAL_OWNER, dataset.feature_names)
    bundle = InterpretBundle(
        client_contributions=[],
        global_contribution=report,
        client_curves=[],
        global_curves=curves,
        feature_names=dataset.feature_names,
        n_classes=model.out_dim,
    )
    out = Path(config.out_dir)
    export_reports(bundle, out, scaler=dataset.scaler, svg=config.svg)
    _write_run_info(out, "explain")
    print(f"wrote contribution and shape reports -> {out}")
    return 0


def cmd_tune(config: RunConfig) -> int:
    dataset = _load_run_dataset(config)
    winner, trials = grid_search(dataset, config, jobs=config.jobs)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_clients = config.federation.num_clients
    _write_csv(
        out / "trials.csv",
        ["trial_id", "dropout", "lr", "layers", "batch"]
        + [f"client{i + 1}_val_acc" for i in range(n_clients)]
        + ["mean_val_acc", "global_test_acc", "global_test_auc"],
        (
            [t.trial_id, _fmt(t.dropout), _fmt(t.learning_rate), t.hidden_layers, t.batch_size]
            + [_fmt(a) for a in t.per_client_val_acc]
            + [""] * (n_clients - len(t.per_client_val_acc))
            + [_fmt(t.mean_val_acc), _fmt(t.global_test_acc), _fmt(t.global_test_auc)]
            for t in trials
        ),
    )
    failed = [[t.trial_id, t.error] for t in trials if t.error is not None]
    if failed:
        _write_csv(out / "trial_errors.csv", ["trial_id", "error"], failed)

    point = (winner.dropout, winner.learning_rate, winner.hidden_layers, winner.batch_size)
    save_config(config_at(config, point), out / "best.json")
    _write_run_info(out, "tune")
    print(
        f"best trial {winner.trial_id}: dropout={winner.dropout} lr={winner.learning_rate} "
        f"layers={winner.hidden_layers} batch={winner.batch_size} "
        f"mean_val_acc={winner.mean_val_acc:.4f} -> {out}"
    )
    return 0


def cmd_benchmark(config: RunConfig) -> int:
    dataset = _load_run_dataset(config)
    nam_result = run_from_config(dataset, config)
    nam_stats = evaluate_model(
        nam_result.global_predictor, dataset.X_test, dataset.y_test, config.threshold
    )
    _, attribution, dnn_stats = baseline_attributions(
        dataset,
        config.federation.to_config(config.seed),
        make_optimizer_factory(config.optimizer),
        config.control,
        batch_size=config.batch_size,
        val_fraction=config.split.val_fraction,
        stratified=config.split.stratified,
        threshold=config.threshold,
    )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "benchmark.csv",
        ["row_type", "name", "test_accuracy", "test_auc", "avg_attribution"],
        [
            ["model", "fednam", _fmt(nam_stats["accuracy"]), _fmt(nam_stats["auc"]), ""],
            ["model", "dnn", _fmt(dnn_stats["accuracy"]), _fmt(dnn_stats["auc"]), ""],
        ]
        + [["attribution", name, "", "", _fmt(value)]
           for name, value in zip(attribution.feature_names, attribution.values)],
    )
    _write_run_info(out, "benchmark")
    gap = abs(nam_stats["accuracy"] - dnn_stats["accuracy"])
    print(
        f"fednam acc {nam_stats['accuracy']:.4f} vs dnn acc {dnn_stats['accuracy']:.4f} "
        f"(gap {gap:.4f}) -> {out}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednam",
        description="Federated neural additive models: train, tune, explain, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "explain", "tune", "benchmark"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override random seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--jobs", type=int, help="parallel workers for grid trials")
        p.add_argument("--dataset", choices=("heart", "wine", "iris"), help="dataset kind")
        p.add_argument("--csv", help="path to the dataset CSV")
        p.add_argument("--target-col", help="override the target column name")
        p.add_argument("--threshold", type=float, help="binary decision threshold")
        p.add_argument("--svg", action="store_true", help="also render shapes.svg")
        if name == "explain":
            p.add_argument("--model", required=True, help="model JSON written by train")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    dataset = config.dataset
    if args.dataset:
        dataset = replace(dataset, kind=args.dataset)
    if args.csv:
        dataset = replace(dataset, csv=args.csv)
    if args.target_col:
        dataset = replace(dataset, target_col=args.target_col)
    config = replace(config, dataset=dataset)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out:
        config = replace(config, out_dir=args.out)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    if args.threshold is not None:
        config = replace(config, threshold=args.threshold)
    if args.svg:
        config = replace(config, svg=True)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = _apply_overrides(config, args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "explain":
            return cmd_explain(config, args.model)
        if args.command == "tune":
            return cmd_tune(config)
        if args.command == "benchmark":
            return cmd_benchmark(config)
        raise ConfigError(f"unknown command {args.command!r}")
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


if __name__ == "__main__":
    sys.exit(main())
