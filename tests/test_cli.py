import csv
import json
from pathlib import Path

import pytest

from fednam.cli import main
from fednam.errors import TrainingError
from fednam.nam import build_nam, save_model
from fednam.nn import MULTICLASS

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def fast_iris_config(tmp_path: Path, iris_csv: Path, out: str, **overrides) -> Path:
    doc = {
        "dataset": {"kind": "iris", "csv": str(iris_csv)},
        "federation": {"num_clients": 3, "rounds": 4, "local_epochs": 2},
        "out_dir": str(tmp_path / out),
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(doc))
    return path


def files_under(out: Path) -> set[str]:
    """Every file a command wrote, as paths relative to its --out directory."""
    return {path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}


def csv_headers(out: Path) -> dict[str, list[str]]:
    """The header row of every CSV a command wrote, by path under --out."""
    headers = {}
    for name in files_under(out):
        if name.endswith(".csv"):
            with open(out / name, newline="") as f:
                headers[name] = next(csv.reader(f))
    return headers


# every file but run_info.json must be byte-identical across runs, so a
# command writes exactly these and nothing else
REPORT_FILES = {"contributions.csv", "shapes.csv", "shapes_raw_units.csv", "run_info.json"}
TRAIN_FILES = REPORT_FILES | {"model.json", "rounds.csv", "metrics.csv", "config.json"}

ROUNDS_HEADER = ["round", "client_id", "train_loss", "val_loss", "val_acc", "global_val_acc",
                 "global_val_auc"]
REPORT_HEADERS = {
    "contributions.csv": ["owner", "feature", "score", "rank"],
    "shapes.csv": ["owner", "feature", "class", "x", "value"],
    "shapes_raw_units.csv": ["owner", "feature", "class", "x_raw", "value"],
}
TRAIN_HEADERS = REPORT_HEADERS | {"rounds.csv": ROUNDS_HEADER, "metrics.csv": ["metric", "value"]}


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize(
    "overrides,message",
    [({"control": {"early_stop_patience": 0}},
      "control.early_stop_patience: patience must be >= 1, got 0"),
     ({"control": {"lr_patience": 0}}, "control.lr_patience: patience must be >= 1, got 0"),
     ({"control": {"lr_factor": 2.0}}, "control.lr_factor: factor must be in (0,1), got 2.0"),
     ({"federation": {"rounds": 0}}, "federation.rounds must be >= 1, got 0"),
     ({"split": {"test_fraction": 1.5}}, "split.test_fraction must be in (0,1), got 1.5")],
    ids=["early_stop_patience", "lr_patience", "lr_factor", "federation.rounds",
         "split.test_fraction"],
)
def test_invalid_control_value_exits_1_before_running(tmp_path, iris_csv, capsys,
                                                      command, overrides, message):
    """A range error names its section.key, and no --out directory is made."""
    config = fast_iris_config(tmp_path, iris_csv, "ctl", **overrides)
    assert main([command, "--config", str(config)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ctl").exists()


class TestTrain:
    def test_writes_expected_artifacts(self, tmp_path, iris_csv):
        config = fast_iris_config(tmp_path, iris_csv, "run")
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "run"
        clients = {f"clients/client_{i}.json" for i in range(3)}
        assert files_under(out) == TRAIN_FILES | clients
        assert csv_headers(out) == TRAIN_HEADERS
        with open(out / "metrics.csv") as f:
            rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
        assert set(rows) == {"accuracy", "auc"}

    @pytest.mark.filterwarnings("ignore")
    def test_training_failure_keeps_completed_rounds(self, tmp_path, iris_csv, monkeypatch):
        import fednam.federation as federation_module

        real_local_train = federation_module.local_train
        calls = {"n": 0}

        def flaky_local_train(client, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 7:  # first client of round 3
                raise TrainingError(f"client {client.client_id}: injected failure")
            return real_local_train(client, *args, **kwargs)

        monkeypatch.setattr(federation_module, "local_train", flaky_local_train)
        config = fast_iris_config(tmp_path, iris_csv, "failed")
        assert main(["train", "--config", str(config)]) == 3
        out = tmp_path / "failed"
        assert files_under(out) == {"rounds.csv"}
        assert csv_headers(out) == {"rounds.csv": ROUNDS_HEADER}
        with open(out / "rounds.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["round"], r["client_id"]) for r in rows] == [
            (str(r), str(c)) for r in (1, 2) for c in range(3)
        ]

    def test_missing_csv_exits_2_with_filename(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dataset": {"kind": "iris", "csv": "/no/such/file.csv"},
                                      "out_dir": str(tmp_path / "o")}))
        assert main(["train", "--config", str(config)]) == 2
        assert "/no/such/file.csv" in capsys.readouterr().err

    def test_seed_determinism_byte_identical(self, tmp_path, iris_csv):
        a = fast_iris_config(tmp_path, iris_csv, "a")
        b = fast_iris_config(tmp_path, iris_csv, "b")
        assert main(["train", "--config", str(a), "--seed", "7"]) == 0
        assert main(["train", "--config", str(b), "--seed", "7"]) == 0
        for name in ("model.json", "metrics.csv", "rounds.csv", "contributions.csv", "shapes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["train", "--config", str(config)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,key",
        [({"batch_size": "32"}, "batch_size"),
         ({"federation": {"rounds": True}}, "federation.rounds")],
    )
    def test_mistyped_config_value_exits_1_naming_key(self, tmp_path, iris_csv, capsys,
                                                      overrides, key):
        config = fast_iris_config(tmp_path, iris_csv, "typed", **overrides)
        assert main(["train", "--config", str(config)]) == 1
        assert f"config error: {key} must be of type int" in capsys.readouterr().err
        assert not (tmp_path / "typed").exists()

    def test_invalid_federation_value_exits_1(self, tmp_path, iris_csv):
        config = fast_iris_config(tmp_path, iris_csv, "bad",
                                  federation={"rounds": 0, "num_clients": 3, "local_epochs": 1})
        assert main(["train", "--config", str(config)]) == 1

    def test_invalid_aggregation_reported_before_reading_data(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dataset": {"kind": "iris", "csv": "/no/such/file.csv"},
                                      "federation": {"aggregation": "median"},
                                      "out_dir": str(tmp_path / "o")}))
        assert main(["train", "--config", str(config)]) == 1
        assert "config error: federation.aggregation must be one of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exits_2_with_row_and_column(self, tmp_path, iris_csv, capsys, cell):
        lines = iris_csv.read_text().splitlines()
        fields = lines[4].split(",")
        fields[1] = cell
        lines[4] = ",".join(fields)
        bad_csv = tmp_path / "iris_bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        config = fast_iris_config(tmp_path, bad_csv, "bad")
        assert main(["train", "--config", str(config)]) == 2
        column = lines[0].split(",")[1]
        err = capsys.readouterr().err
        assert f"non-finite cell '{cell}' in row 5, column '{column}'" in err
        assert f"{bad_csv}: non-finite cell" in err
        assert not (tmp_path / "bad").exists()

    def test_cli_overrides(self, tmp_path, iris_csv):
        config = fast_iris_config(tmp_path, iris_csv, "x")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "y"),
                     "--svg"])
        assert code == 0
        assert (tmp_path / "y" / "shapes.svg").exists()


class TestExplain:
    def trained(self, tmp_path, iris_csv):
        config = fast_iris_config(tmp_path, iris_csv, "train_out")
        assert main(["train", "--config", str(config)]) == 0
        return config, tmp_path / "train_out"

    def test_shape_row_counts(self, tmp_path, iris_csv):
        config, out = self.trained(tmp_path, iris_csv)
        explain_out = tmp_path / "explain_out"
        assert main(["explain", "--config", str(config), "--model", str(out / "model.json"),
                     "--out", str(explain_out)]) == 0
        with open(explain_out / "shapes.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4 * 3 * 101  # features x classes x grid, owner=global
        assert {r["owner"] for r in rows} == {"global"}
        assert files_under(explain_out) == REPORT_FILES
        assert csv_headers(explain_out) == REPORT_HEADERS

    def test_ranking_matches_train_time(self, tmp_path, iris_csv):
        config, out = self.trained(tmp_path, iris_csv)
        explain_out = tmp_path / "explain_out"
        assert main(["explain", "--config", str(config), "--model", str(out / "model.json"),
                     "--out", str(explain_out)]) == 0

        def global_ranking(path):
            with open(path) as f:
                return {r["feature"]: r["rank"] for r in csv.DictReader(f) if r["owner"] == "global"}

        assert global_ranking(out / "contributions.csv") == global_ranking(
            explain_out / "contributions.csv"
        )

    def test_corrupted_model_clean_error_no_outputs(self, tmp_path, iris_csv, capsys):
        config = fast_iris_config(tmp_path, iris_csv, "c")
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        explain_out = tmp_path / "explain_out"
        assert main(["explain", "--config", str(config), "--model", str(bad),
                     "--out", str(explain_out)]) == 2
        assert "cannot parse model file" in capsys.readouterr().err
        assert not explain_out.exists()

    @pytest.mark.parametrize(
        "tamper",
        ["truncated_nam", "truncated_dnn", "weight_row_removed", "nan_weight", "unknown_activation",
         "mixed_feature_nets", "feature_count_mismatch"],
    )
    def test_malformed_model_exits_2_naming_file(self, tmp_path, iris_csv, capsys, tamper):
        config = fast_iris_config(tmp_path, iris_csv, "c")
        model = tmp_path / "model.json"
        nam = build_nam(4, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=5, rng=0)
        save_model(nam, ["a", "b", "c", "d"], model)
        doc = json.loads(model.read_text())
        if tamper == "truncated_nam":
            doc = {"schema_version": 1, "kind": "nam"}
        elif tamper == "truncated_dnn":
            doc = {"schema_version": 1, "kind": "dnn"}
        elif tamper == "weight_row_removed":
            del doc["feature_nets"][1]["layers"][1]["weights"][0]
        elif tamper == "nan_weight":
            doc["feature_nets"][2]["layers"][0]["weights"][0][0] = float("nan")
        elif tamper == "mixed_feature_nets":  # feature net 1 loses a hidden layer
            del doc["feature_nets"][1]["layers"][1]
            del doc["feature_nets"][1]["activations"][1]
        elif tamper == "feature_count_mismatch":  # three nets and head columns, four names
            del doc["feature_nets"][3]
            for row in doc["output_weights"]:
                del row[3]
        else:
            doc["feature_nets"][0]["activations"][0] = "sigmoid"
        model.write_text(json.dumps(doc))
        explain_out = tmp_path / "explain_out"
        assert main(["explain", "--config", str(config), "--model", str(model),
                     "--out", str(explain_out)]) == 2
        assert f"model file {model}" in capsys.readouterr().err
        assert not explain_out.exists()

    def test_schema_version_mismatch_exits_1_with_versions(self, tmp_path, iris_csv, capsys):
        config, out = self.trained(tmp_path, iris_csv)
        doc = json.loads((out / "model.json").read_text())
        doc["schema_version"] = 42
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["explain", "--config", str(config), "--model", str(tampered),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "expected 1" in err and "found 42" in err


class TestTune:
    def test_single_point_grid_best_equals_input(self, tmp_path, iris_csv):
        grid = {"dropout": [0.2], "learning_rate": [0.005],
                "hidden_layers": [2], "batch_size": [16]}
        config = fast_iris_config(tmp_path, iris_csv, "tune_out", grid=grid,
                                  federation={"num_clients": 2, "rounds": 2, "local_epochs": 1})
        assert main(["tune", "--config", str(config)]) == 0
        best = json.loads((tmp_path / "tune_out" / "best.json").read_text())
        assert best["model"]["dropout"] == 0.2
        assert best["optimizer"]["learning_rate"] == 0.005
        assert best["model"]["hidden_layers"] == 2
        assert best["batch_size"] == 16
        with open(tmp_path / "tune_out" / "trials.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert files_under(tmp_path / "tune_out") == {"trials.csv", "best.json", "run_info.json"}
        assert csv_headers(tmp_path / "tune_out") == {"trials.csv": [
            "trial_id", "dropout", "lr", "layers", "batch",
            "client1_val_acc", "client2_val_acc", "mean_val_acc",
            "global_test_acc", "global_test_auc",
        ]}

    @pytest.mark.filterwarnings("ignore")
    def test_rerun_identical_trials_csv(self, tmp_path, iris_csv):
        # lr=1e280 fails its trials, which then go to trial_errors.csv too
        grid = {"dropout": [0.0, 0.1], "learning_rate": [0.01, 1e280],
                "hidden_layers": [1], "batch_size": [16]}
        a = fast_iris_config(tmp_path, iris_csv, "t1", grid=grid,
                             federation={"num_clients": 2, "rounds": 2, "local_epochs": 1})
        b = fast_iris_config(tmp_path, iris_csv, "t2", grid=grid,
                             federation={"num_clients": 2, "rounds": 2, "local_epochs": 1})
        assert main(["tune", "--config", str(a)]) == 0
        assert main(["tune", "--config", str(b)]) == 0
        for name in ("trials.csv", "trial_errors.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        assert csv_headers(tmp_path / "t1")["trial_errors.csv"] == ["trial_id", "error"]
        with open(tmp_path / "t1" / "trial_errors.csv") as f:
            assert [r["trial_id"] for r in csv.DictReader(f)] == ["1", "3"]

    def test_default_grid_yields_24_trials(self, tmp_path, iris_csv):
        config = fast_iris_config(tmp_path, iris_csv, "t24",
                                  federation={"num_clients": 3, "rounds": 1, "local_epochs": 1})
        assert main(["tune", "--config", str(config)]) == 0
        with open(tmp_path / "t24" / "trials.csv") as f:
            assert len(list(csv.DictReader(f))) == 24

    @pytest.mark.filterwarnings("ignore")
    def test_all_trials_failed_exits_3(self, tmp_path, iris_csv, capsys):
        grid = {"dropout": [0.0], "learning_rate": [1e280],
                "hidden_layers": [1], "batch_size": [16]}
        config = fast_iris_config(tmp_path, iris_csv, "tfail", grid=grid,
                                  federation={"num_clients": 2, "rounds": 1, "local_epochs": 1})
        assert main(["tune", "--config", str(config)]) == 3
        assert "all grid trials failed" in capsys.readouterr().err

    def test_invalid_federation_value_exits_1_before_any_trial(self, tmp_path, iris_csv, capsys):
        config = fast_iris_config(tmp_path, iris_csv, "tbad", federation={"rounds": 0})
        assert main(["tune", "--config", str(config)]) == 1
        assert "config error: federation.rounds must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "tbad").exists()


class TestBenchmark:
    def test_schema_and_determinism(self, tmp_path, iris_csv):
        a = fast_iris_config(tmp_path, iris_csv, "b1")
        b = fast_iris_config(tmp_path, iris_csv, "b2")
        assert main(["benchmark", "--config", str(a)]) == 0
        assert main(["benchmark", "--config", str(b)]) == 0
        with open(tmp_path / "b1" / "benchmark.csv") as f:
            rows = list(csv.DictReader(f))
        model_rows = [r for r in rows if r["row_type"] == "model"]
        attribution_rows = [r for r in rows if r["row_type"] == "attribution"]
        assert len(model_rows) == 2
        assert {r["name"] for r in model_rows} == {"fednam", "dnn"}
        assert len(attribution_rows) == 4  # one per iris feature
        assert files_under(tmp_path / "b1") == {"benchmark.csv", "run_info.json"}
        assert csv_headers(tmp_path / "b1") == {"benchmark.csv": [
            "row_type", "name", "test_accuracy", "test_auc", "avg_attribution",
        ]}
        assert (tmp_path / "b1" / "benchmark.csv").read_bytes() == (
            tmp_path / "b2" / "benchmark.csv"
        ).read_bytes()


def test_side_effects_confined_to_out_dir(tmp_path, iris_csv, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    config = fast_iris_config(tmp_path, iris_csv, "contained")
    assert main(["train", "--config", str(config)]) == 0
    assert list(workdir.iterdir()) == []
