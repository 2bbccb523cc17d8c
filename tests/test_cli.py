import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest

import fednam
from conftest import (HEART_COLUMNS, WINE_COLUMNS, synthetic_heart_rows, synthetic_wine_rows,
                      write_csv)
from fednam.cli import main
from fednam.config import config_from_dict
from fednam.errors import TrainingError
from fednam.nam import build_nam, save_model
from fednam.nn import BINARY, MULTICLASS

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


def shape_average_config(tmp_path: Path, iris_csv: Path, out: str) -> Path:
    """`fast_iris_config` with clients that train apart, under a logit-mean ensemble."""
    return fast_iris_config(tmp_path, iris_csv, out, federation={
        "num_clients": 3, "rounds": 4, "local_epochs": 2, "aggregation": "shape_average"})


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
     # a floor of 0 let the plateau schedule take the rate to 0.0, which it then rejected
     ({"control": {"min_lr": 0}}, "control.min_lr: min_lr must be > 0, got 0"),
     ({"federation": {"rounds": 0}}, "federation.rounds must be >= 1, got 0"),
     ({"split": {"test_fraction": 1.5}}, "split.test_fraction must be in (0,1), got 1.5")],
    ids=["early_stop_patience", "lr_patience", "lr_factor", "min_lr", "federation.rounds",
         "split.test_fraction"],
)
def test_invalid_control_value_exits_1_before_running(tmp_path, iris_csv, capsys,
                                                      command, overrides, message):
    """A range error names its section.key, and no --out directory is made."""
    config = fast_iris_config(tmp_path, iris_csv, "ctl", **overrides)
    assert main([command, "--config", str(config)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ctl").exists()


FLOAT_FIELDS = [("optimizer", "learning_rate"), ("control", "min_delta"),
                ("control", "lr_factor"), ("control", "min_lr"), ("split", "test_fraction"),
                ("split", "val_fraction"), ("model", "dropout"), (None, "threshold")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,key", FLOAT_FIELDS,
                         ids=[f"{s}.{k}" if s else k for s, k in FLOAT_FIELDS])
def test_non_finite_float_field_exits_1_naming_key(tmp_path, iris_csv, capsys,
                                                   section, key, value):
    """JSON's NaN and Infinity load as floats; every float field rejects them."""
    overrides = {section: {key: value}} if section else {key: value}
    config = fast_iris_config(tmp_path, iris_csv, "nf", **overrides)
    assert main(["train", "--config", str(config)]) == 1
    name = f"{section}.{key}" if section else key
    assert f"config error: {name} must be finite, got {json.dumps(value)}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "nf").exists()


@pytest.mark.parametrize(
    "grid,message",
    [({"dropout": [0.1, 1.5]}, "grid.dropout: model.dropout must be in [0,1), got 1.5"),
     ({"learning_rate": [0.0]}, "grid.learning_rate: optimizer.learning_rate must be > 0"),
     ({"learning_rate": [float("nan")]}, "grid.learning_rate must be finite, got [NaN]"),
     ({"hidden_layers": [0]}, "grid.hidden_layers: model.hidden_layers must be >= 1, got 0"),
     ({"batch_size": [16, -1]}, "grid.batch_size: batch_size must be >= 1, got -1"),
     ({"learning_rate": [0.01, 10**400]},
      "grid.learning_rate must be of type list[float], got [0.01, 1000"),
     ({"hidden_layers": [2, 10**30]},
      f"grid.hidden_layers: model.hidden_layers must be <= 64, got {10**30}"),
     ({"dropout": [0.1, 0.0, 0.1]}, "grid.dropout repeats the value 0.1"),
     ({"batch_size": list(range(1, 1001))}, "grid has 12000 points, more than 4096")],
    ids=["dropout", "learning_rate", "learning_rate_nan", "hidden_layers", "batch_size",
         "learning_rate_beyond_double", "hidden_layers_beyond_cap", "repeated_value",
         "too_many_points"],
)
def test_invalid_grid_value_exits_1_before_any_trial(tmp_path, iris_csv, capsys, grid, message):
    config = fast_iris_config(tmp_path, iris_csv, "gbad", grid=grid)
    assert main(["tune", "--config", str(config)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "gbad").exists()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_jobs_beyond_64_exit_1_before_any_trial(tmp_path, iris_csv, capsys, source):
    config = fast_iris_config(tmp_path, iris_csv, "jobs", **({"jobs": 65} if source == "config" else {}))
    flag = ["--jobs", "65"] if source == "flag" else []
    assert main(["tune", "--config", str(config), *flag]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: jobs must be <= 64, got 65"]
    assert not (tmp_path / "jobs").exists()


@pytest.mark.parametrize("value", [10**6, 10**30])
@pytest.mark.parametrize("key,most", [("hidden_layers", 64), ("hidden_units", 1024)])
def test_network_size_beyond_its_cap_exits_1_naming_key(tmp_path, iris_csv, capsys, monkeypatch,
                                                       key, most, value):
    """Checked at config load: no model of that size is ever allocated."""
    monkeypatch.setattr("fednam.tune.build_nam", lambda **kwargs: pytest.fail("built a model"))
    config = fast_iris_config(tmp_path, iris_csv, "wide", model={key: value})
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: model.{key} must be <= {most}, got {value}"]
    assert not (tmp_path / "wide").exists()
    assert getattr(config_from_dict({"model": {key: most}}).model, key) == most


@pytest.mark.parametrize(
    "command,overrides",
    [("train", {"model": {"hidden_layers": 64, "hidden_units": 1024}}),
     ("tune", {"model": {"hidden_units": 1024}, "grid": {"hidden_layers": [3, 64]}})],
    ids=["model", "grid"],
)
def test_hidden_weights_beyond_their_cap_exit_1_naming_both_keys(tmp_path, iris_csv, capsys,
                                                                 monkeypatch, command, overrides):
    """Each size within its cap, their product not: rejected at config load."""
    monkeypatch.setattr("fednam.tune.build_nam", lambda **kwargs: pytest.fail("built a model"))
    config = fast_iris_config(tmp_path, iris_csv, "deep", **overrides)
    assert main([command, "--config", str(config)]) == 1
    prefix = "grid.hidden_layers: " if command == "tune" else ""
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {prefix}model.hidden_layers and model.hidden_units give 66060288 "
        "hidden-to-hidden weights per feature net, more than 2097152"]
    assert not (tmp_path / "deep").exists()
    # the bound admits up to 3 hidden layers at the width cap
    assert config_from_dict({"model": {"hidden_layers": 3, "hidden_units": 1024},
                             "grid": {"hidden_layers": [1, 3]}}).model.hidden_units == 1024


@pytest.mark.parametrize("command", ["train", "tune", "benchmark"])
def test_training_pass_beyond_its_memory_bound_exits_1_naming_both_keys(tmp_path, capsys,
                                                                        monkeypatch, command):
    """50 features, 800 training rows and 1024 units per layer: 2.6 GB per pass."""
    monkeypatch.setattr("fednam.tune.build_nam", lambda **kwargs: pytest.fail("built a model"))
    rows = [[(i * 7 + k) % 13 for k in range(50)] + [i % 2] for i in range(1000)]
    table = write_csv(tmp_path / "wide.csv", [f"f{k}" for k in range(50)] + ["target"], rows)
    config = fast_iris_config(tmp_path, table, "wide", dataset={"kind": "heart", "csv": str(table)},
                              model={"hidden_units": 1024}, batch_size=1000,
                              grid={"dropout": [0.0], "learning_rate": [0.01], "hidden_layers": [3],
                                    "batch_size": [8, 1000]})
    assert main([command, "--config", str(config)]) == 1
    prefix = "grid trial 1: " if command == "tune" else ""
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {prefix}batch_size 1000 and model.hidden_units 1024 give a training pass "
        "of 2621440000 bytes over 50 features, more than 2147483648"]


def test_out_of_memory_exits_1_with_one_line(tmp_path, iris_csv, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 400. MiB for an array")

    monkeypatch.setattr("fednam.cli.run_from_config", exhausted)
    config = fast_iris_config(tmp_path, iris_csv, "oom")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 400. MiB for an array"]


@pytest.mark.skipif(sys.platform != "linux", reason="caps the address space with RLIMIT_AS")
@pytest.mark.parametrize("command", [["train"], ["tune", "--jobs", "2"]], ids=["train", "tune"])
def test_weights_past_the_address_space_exit_1_with_one_line(tmp_path, command):
    """50 features at 3 hidden layers of 1024 units pass the training-pass bound,
    but each hidden-to-hidden weight stack is 400 MiB: under a 512 MiB address
    space the weights fail to allocate in `train` and in a forked `tune` worker
    alike. The cap also keeps what each process can take small."""
    import resource

    rows = [[(i * 7 + k) % 13 for k in range(50)] + [i % 2] for i in range(200)]
    table = write_csv(tmp_path / "wide.csv", [f"f{k}" for k in range(50)] + ["target"], rows)
    config = fast_iris_config(tmp_path, table, "wide", dataset={"kind": "heart", "csv": str(table)},
                              model={"hidden_layers": 3, "hidden_units": 1024}, batch_size=16,
                              grid={"dropout": [0.0, 0.1], "learning_rate": [0.01],
                                    "hidden_layers": [3], "batch_size": [16]})

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 512 * 1024**2 if hard == resource.RLIM_INFINITY else min(512 * 1024**2, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    env = {**os.environ, "PYTHONPATH": str(Path(fednam.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    code = "import sys; from fednam.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", code, *command, "--config", str(config)],
                         capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=cap_address_space)
    lines = run.stderr.splitlines()
    assert run.returncode == 1 and len(lines) == 1, run.stderr[-2000:]
    assert lines[0].startswith("error: out of memory: "), lines


def test_no_command_imports_numpy_ma(tmp_path, iris_csv):
    """NumPy's masked-array package costs a process over 1 MB; `np.unique(x)`
    without a return_* flag imports it. NumPy 1.24 loads it with `numpy`."""
    config = fast_iris_config(tmp_path, iris_csv, "ma", federation={"rounds": 1, "local_epochs": 1},
                              grid={"dropout": [0.0], "learning_rate": [0.01], "hidden_layers": [1],
                                    "batch_size": [16]})
    out = tmp_path / "ma"
    code = f"""
import contextlib, io, sys
import numpy
bare = "numpy.ma" in sys.modules
from fednam.cli import main
commands = [["train", "--out", {str(out / "train")!r}],
            ["explain", "--model", {str(out / "train" / "model.json")!r}, "--out", {str(out / "explain")!r}],
            ["tune", "--jobs", "1", "--out", {str(out / "tune")!r}],
            ["benchmark", "--out", {str(out / "benchmark")!r}]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([c[0], "--config", {str(config)!r}, *c[1:]]) for c in commands]
print(codes, bare or "numpy.ma" not in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(fednam.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout) == (0, "[0, 0, 0, 0] True\n"), run.stderr


def heart_lines(n: int = 40) -> list[str]:
    """An all-numeric heart-shaped table, header first, one string per line."""
    rows = synthetic_heart_rows(n)
    return [",".join(HEART_COLUMNS)] + [",".join(str(v) for v in row) for row in rows]


def _set_cell(lines, line, column, cell):
    fields = lines[line].split(",")
    fields[column] = cell
    lines[line] = ",".join(fields)
    return lines


BAD_TABLES = {
    "missing_cell": (lambda ls: _set_cell(ls, 4, 2, ""), "missing value in row 5, column 'cp'"),
    "non_numeric_cell": (lambda ls: _set_cell(ls, 4, 2, "two"),
                         "non-numeric cell 'two' in row 5, column 'cp'"),
    "nan_cell": (lambda ls: _set_cell(ls, 4, 2, "nan"), "non-finite cell 'nan' in row 5, column 'cp'"),
    "inf_cell": (lambda ls: _set_cell(ls, 4, 2, "-inf"),
                 "non-finite cell '-inf' in row 5, column 'cp'"),
    "short_row": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:],
                  "line 5 has 13 cells, expected 14"),
    "long_row": (lambda ls: ls[:4] + [ls[4] + ",1"] + ls[5:], "line 5 has 15 cells, expected 14"),
    "every_row_wider": (lambda ls: ls[:1] + [line + ",0" for line in ls[1:]],
                        "line 2 has 15 cells, expected 14"),
    "no_data_rows": (lambda ls: ls[:1], "no data rows"),
    "missing_target": (lambda ls: _set_cell(ls, 4, 13, ""),
                       "missing value in row 5, column 'target'"),
    "nan_target": (lambda ls: _set_cell(ls, 4, 13, "nan"),
                   "non-finite cell 'nan' in row 5, column 'target'"),
    "inf_target": (lambda ls: _set_cell(ls, 4, 13, "inf"),
                   "non-finite cell 'inf' in row 5, column 'target'"),
    "minus_inf_target": (lambda ls: _set_cell(ls, 4, 13, "-inf"),
                         "non-finite cell '-inf' in row 5, column 'target'"),
    # with two 'age' columns every lookup of 'age' read the first one
    "duplicate_column": (lambda ls: [ls[0].replace("trestbps", "age")] + ls[1:],
                         "duplicate column name 'age'"),
    # Python's csv module reads no cell over 131,072 characters
    "long_number_cell": (lambda ls: _set_cell(ls, 4, 2, "1" * 200_000),
                         "line 5: field larger than field limit (131072)"),
    "long_text_cell": (lambda ls: _set_cell(ls, 4, 2, "x" * 200_000),
                       "line 5: field larger than field limit (131072)"),
    "long_header_cell": (lambda ls: _set_cell(ls, 0, 2, "c" * 200_000),
                         "line 1: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("command", ["train", "explain"])
@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bad_csv_exits_2_naming_file_and_place(tmp_path, iris_csv, capsys, case, command):
    """Data errors from an all-numeric table: exit 2, the file and the place, no --out."""
    tamper, message = BAD_TABLES[case]
    bad_csv = tmp_path / "heart_bad.csv"
    bad_csv.write_text("\n".join(tamper(heart_lines())) + "\n")
    config = fast_iris_config(tmp_path, iris_csv, "bad",
                              dataset={"kind": "heart", "csv": str(bad_csv)})
    args = [command, "--config", str(config)]
    if command == "explain":
        model = tmp_path / "model.json"
        save_model(build_nam(13, BINARY, hidden_layers=1, hidden_units=4, rng=0),
                   HEART_COLUMNS[:-1], model)
        args += ["--model", str(model)]
    assert main(args) == 2
    assert f"data error: {bad_csv}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_long_cell_in_a_numeric_table_exits_2_when_class_names_are_read(tmp_path, iris_csv,
                                                                       capsys):
    """NumPy's parser takes the long cell; the re-read for the iris class names does not."""
    lines = iris_csv.read_text().splitlines()
    codes = {name: str(i) for i, name in enumerate(sorted({ln.rsplit(",", 1)[1]
                                                           for ln in lines[1:]}))}
    lines[1:] = [ln.rsplit(",", 1)[0] + "," + codes[ln.rsplit(",", 1)[1]] for ln in lines[1:]]
    lines = _set_cell(lines, 3, 0, "0." + "0" * 200_000 + "1")
    long_csv = tmp_path / "iris_long.csv"
    long_csv.write_text("\n".join(lines) + "\n")
    config = fast_iris_config(tmp_path, long_csv, "long")
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {long_csv}: line 4: field larger than field limit (131072)"]
    assert not (tmp_path / "long").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_wine_target_exits_2_naming_file_and_place(tmp_path, iris_csv, capsys, cell):
    """A wine quality of nan, inf or -inf is a bad cell, not label 0 or 1."""
    lines = [",".join(WINE_COLUMNS)] + [",".join(str(v) for v in row)
                                        for row in synthetic_wine_rows(40)]
    bad_csv = tmp_path / "wine_bad.csv"
    bad_csv.write_text("\n".join(_set_cell(lines, 6, 11, cell)) + "\n")
    config = fast_iris_config(tmp_path, iris_csv, "bad",
                              dataset={"kind": "wine", "csv": str(bad_csv)})
    assert main(["train", "--config", str(config)]) == 2
    message = f"non-finite cell '{cell}' in row 7, column 'quality'"
    assert f"data error: {bad_csv}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


class TestTrain:
    def test_writes_expected_artifacts(self, tmp_path, iris_csv):
        clients = {f"clients/client_{i}.json" for i in range(3)}
        # a shape_average run has no global model to save: its global predictor is an ensemble
        for config, files in ((fast_iris_config(tmp_path, iris_csv, "run"), TRAIN_FILES),
                              (shape_average_config(tmp_path, iris_csv, "sa"),
                               TRAIN_FILES - {"model.json"})):
            assert main(["train", "--config", str(config)]) == 0
            out = tmp_path / config.stem
            assert files_under(out) == files | clients
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
        for aggregation in ("median", "weight_average"):
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"dataset": {"kind": "iris", "csv": "/no/such/file.csv"},
                                          "federation": {"aggregation": aggregation},
                                          "out_dir": str(tmp_path / "o")}))
            assert main(["train", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert "config error: federation.aggregation must be one of" in err, aggregation
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_exits_1_before_running(self, tmp_path, iris_csv, capsys, source):
        if source == "flag":
            args = ["--config", str(fast_iris_config(tmp_path, iris_csv, "neg")), "--seed", "-1"]
        else:
            args = ["--config", str(fast_iris_config(tmp_path, iris_csv, "neg", seed=-1))]
        assert main(["train", *args]) == 1
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()

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

    def test_shape_average_global_rows_are_the_client_rows_mean(self, tmp_path, iris_csv):
        """Each written global value is its three client values summed in client
        order from 0.0, then divided by 3: the file's shortest round-trip
        decimals make the comparison exact."""
        config = shape_average_config(tmp_path, iris_csv, "sa")
        assert main(["train", "--config", str(config)]) == 0
        owners = ["client1", "client2", "client3", "global"]
        with open(tmp_path / "sa" / "contributions.csv", newline="") as f:
            written = [row["owner"] for row in csv.DictReader(f)]
        assert written == [owner for owner in owners for _ in range(4)]  # 4 iris features
        values = {}
        with open(tmp_path / "sa" / "shapes.csv", newline="") as f:
            for row in csv.DictReader(f):
                key = (row["feature"], row["class"], row["x"])
                values.setdefault(key, {})[row["owner"]] = float(row["value"])
        assert values and all(list(by_owner) == owners for by_owner in values.values())
        for by_owner in values.values():
            total = 0.0
            for owner in owners[:3]:
                total += by_owner[owner]
            assert by_owner["global"] == total / 3

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
        sa_config = shape_average_config(tmp_path, iris_csv, "sa")
        assert main(["train", "--config", str(sa_config)]) == 0
        # a shape_average run saves only client models, each of which explain reads
        for config, model in ((config, out / "model.json"),
                              (sa_config, tmp_path / "sa" / "clients" / "client_0.json")):
            explain_out = tmp_path / f"explain_{config.stem}"
            assert main(["explain", "--config", str(config), "--model", str(model),
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

    def test_global_rows_redraw_train_bit_for_bit(self, tmp_path, iris_csv):
        """explain of a `both`-mode model with the run's config writes the
        global rows train wrote: both describe the one averaged model."""
        config = fast_iris_config(tmp_path, iris_csv, "train_out", seed=3, federation={
            "num_clients": 3, "rounds": 2, "local_epochs": 2, "aggregation": "both"})
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "train_out"
        explain_out = tmp_path / "explain_out"
        assert main(["explain", "--config", str(config), "--model", str(out / "model.json"),
                     "--out", str(explain_out)]) == 0
        for name in ("contributions.csv", "shapes.csv", "shapes_raw_units.csv"):
            train_rows = [line for line in (out / name).read_bytes().splitlines()
                          if line.startswith(b"global,")]
            explain_rows = (explain_out / name).read_bytes().splitlines()[1:]
            assert train_rows and train_rows == explain_rows, name

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
        assert "all grid trials failed; trial 0: round 1: client 0: non-finite" in capsys.readouterr().err

    def test_invalid_federation_value_exits_1_before_any_trial(self, tmp_path, iris_csv, capsys):
        config = fast_iris_config(tmp_path, iris_csv, "tbad", federation={"rounds": 0})
        assert main(["tune", "--config", str(config)]) == 1
        assert "config error: federation.rounds must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "tbad").exists()

    def test_worker_that_dies_exits_3_with_one_line(self, tmp_path, iris_csv, capsys, monkeypatch):
        """A dead worker breaks the pool: one training error line, no traceback.
        The pool is a fake whose map raises, so no worker process starts."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                raise BrokenProcessPool("a process in the process pool was terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path on a 1-CPU runner too
        config = fast_iris_config(tmp_path, iris_csv, "tbroken")
        assert main(["tune", "--config", str(config), "--jobs", "2"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("training error: the tune worker pool broke: ")


class TestBenchmark:
    def test_schema_and_determinism(self, tmp_path, iris_csv):
        a = fast_iris_config(tmp_path, iris_csv, "b1")
        b = fast_iris_config(tmp_path, iris_csv, "b2")
        # under shape_average both models are client ensembles, the DNN's attributed as one
        sa = shape_average_config(tmp_path, iris_csv, "sa")
        for config in (a, b, sa):
            assert main(["benchmark", "--config", str(config)]) == 0
        for out in (tmp_path / "b1", tmp_path / "sa"):
            with open(out / "benchmark.csv") as f:
                rows = list(csv.DictReader(f))
            model_rows = [r for r in rows if r["row_type"] == "model"]
            attribution_rows = [r for r in rows if r["row_type"] == "attribution"]
            assert len(model_rows) == 2
            assert {r["name"] for r in model_rows} == {"fednam", "dnn"}
            assert len(attribution_rows) == 4  # one per iris feature
            assert files_under(out) == {"benchmark.csv", "run_info.json"}
            assert csv_headers(out) == {"benchmark.csv": [
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


# a value for every flag of the CLI (--svg takes none), the field each override
# sets, and the flags each command reads besides the common ones
FLAG_VALUES = {"--config": "c.json", "--seed": "5", "--out": "o", "--dataset": "wine",
               "--csv": "t.csv", "--target-col": "y", "--threshold": "0.25", "--svg": None,
               "--jobs": "2", "--model": "m.json"}
FLAG_FIELDS = {"--seed": ("seed", 5), "--out": ("out_dir", "o"),
               "--dataset": ("dataset.kind", "wine"), "--csv": ("dataset.csv", "t.csv"),
               "--target-col": ("dataset.target_col", "y"), "--threshold": ("threshold", 0.25),
               "--svg": ("svg", True), "--jobs": ("jobs", 2)}
READS = {"train": {"--threshold", "--svg"}, "explain": {"--svg", "--model"},
         "tune": {"--jobs", "--threshold"}, "benchmark": {"--threshold"}}
COMMON_FLAGS = {"--config", "--seed", "--out", "--dataset", "--csv", "--target-col"}


def flag_args(flag: str) -> list[str]:
    value = FLAG_VALUES[flag]
    return [flag] if value is None else [flag, value]


def field_of(config, dotted: str):
    for name in dotted.split("."):
        config = getattr(config, name)
    return config


@pytest.mark.parametrize("command,flag", [(c, f) for c in sorted(READS) for f in FLAG_VALUES
                                          if f not in COMMON_FLAGS | READS[c]])
def test_flag_a_command_does_not_read_exits_1(capsys, command, flag):
    required = flag_args("--model") if command == "explain" else []
    assert main([command, *required, *flag_args(flag)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: fednam")
    assert f"unrecognized arguments: {flag}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(READS))
def test_every_flag_a_command_reads_sets_its_field(tmp_path, monkeypatch, command):
    """One run with all of a command's flags: each override lands in its field."""
    import fednam.cli as cli

    seen = {}

    def record(config, out, **handler_args):
        seen.update(config=config, out=out, handler_args=handler_args)
        out.mkdir()

    monkeypatch.setitem(cli.COMMANDS, command, (record, cli.COMMANDS[command][1]))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"dataset": {"kind": "iris"}, "seed": 1}))
    flags = sorted(COMMON_FLAGS | READS[command])
    argv = [command] + [arg for flag in flags for arg in flag_args(flag)]
    assert main(argv) == 0
    assert seen["out"] == Path("o") and (tmp_path / "o" / "run_info.json").is_file()
    for flag in set(flags) & set(FLAG_FIELDS):
        name, value = FLAG_FIELDS[flag]
        assert field_of(seen["config"], name) == value, flag
    assert seen["handler_args"] == ({"model": "m.json"} if command == "explain" else {})


@pytest.mark.parametrize(
    "argv,message",
    [(["train", "--seed", "abc"], "fednam train: argument --seed: invalid int value: 'abc'"),
     (["explain"], "fednam explain: the following arguments are required: --model"),
     (["tune", "--dataset", "mnist"], "fednam tune: argument --dataset: invalid choice: 'mnist'"),
     (["serve"], "fednam: argument command: invalid choice: 'serve'"),
     ([], "fednam: the following arguments are required: command")],
    ids=["bad_int", "missing_model", "bad_choice", "unknown_command", "no_command"],
)
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["explain", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: fednam" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_out_naming_a_file_exits_1_before_reading_data(tmp_path, capsys, where):
    """The CSV does not exist, so reading it first would exit 2."""
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "run"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": {"kind": "iris", "csv": "/no/such/file.csv"}}))
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert (f"config error: out_dir {out}: {blocker} is not a directory"
            in capsys.readouterr().err)
    assert blocker.read_text() == "not a directory\n"


def test_out_dir_holding_a_nul_byte_exits_1(tmp_path, iris_csv, capsys):
    """Checked at config load, not where the run's first file is written."""
    config = fast_iris_config(tmp_path, iris_csv, "nul", out_dir=str(tmp_path / "a\0b"))
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: out_dir must not hold a NUL byte")


def test_csv_naming_a_directory_exits_2(tmp_path, capsys):
    folder = tmp_path / "table.csv"
    folder.mkdir()
    config = fast_iris_config(tmp_path, folder, "dir")
    assert main(["train", "--config", str(config)]) == 2
    assert f"data error: cannot read CSV file {folder}: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "dir").exists()


@pytest.mark.parametrize("line", [0, 3], ids=["header", "data_row"])
def test_csv_with_a_non_utf8_byte_exits_2(tmp_path, iris_csv, capsys, line):
    lines = iris_csv.read_bytes().splitlines()
    lines[line] = lines[line].replace(b",", b"\xff,", 1)
    bad_csv = tmp_path / "iris_latin1.csv"
    bad_csv.write_bytes(b"\n".join(lines) + b"\n")
    config = fast_iris_config(tmp_path, bad_csv, "enc")
    assert main(["train", "--config", str(config)]) == 2
    assert f"data error: {bad_csv}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "enc").exists()


def test_config_naming_a_directory_exits_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 1
    assert f"config error: cannot read config {tmp_path}: Is a directory" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag,code,start", [
    ("--config", 1, "config error: cannot read config {path}: "),
    ("--csv", 2, "data error: cannot read CSV file {path}: "),
    ("--out", 1, "config error: cannot write {path}: "),
], ids=["config", "csv", "out"])
def test_path_the_os_refuses_exits_with_one_line(tmp_path, iris_csv, capsys, flag, code, start):
    """A 300-byte name is past the file system's limit; before Python 3.12
    `Path.exists` raises on it rather than returning False."""
    config = fast_iris_config(tmp_path, iris_csv, "c", federation={"rounds": 1, "local_epochs": 1})
    path = tmp_path / ("a" * 300) / "x"
    assert main(["train", "--config", str(config), flag, str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start.format(path=path)), err
    assert not (tmp_path / "c").exists()


def test_out_too_long_to_write_under_exits_1_after_training(tmp_path, iris_csv, capsys):
    """A 4,085-character out_dir passes the probe, but the paths of the files
    under it are past Linux's PATH_MAX of 4,096 bytes."""
    out = tmp_path
    while len(str(out)) < 3900:
        out /= "b" * 100
    out /= "c" * (4084 - len(str(out)))
    config = fast_iris_config(tmp_path, iris_csv, "c", federation={"rounds": 1, "local_epochs": 1})
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write {out}"), err


def test_out_too_long_to_write_under_exits_1_before_reading_data(tmp_path, capsys):
    """The same out_dir fails before the CSV is opened: a missing one would exit 2."""
    out = tmp_path
    while len(str(out)) < 3900:
        out /= "b" * 100
    out /= "c" * (4084 - len(str(out)))
    argv = ["train", "--csv", str(tmp_path / "missing.csv"), "--dataset", "iris", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {out}: File name too long"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_write_the_os_refuses_exits_1_naming_out_dir(tmp_path, iris_csv, capsys):
    """metrics.csv links to /dev/full, where every write fails with ENOSPC and no file name."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.csv").symlink_to("/dev/full")
    config = fast_iris_config(tmp_path, iris_csv, "c", federation={"rounds": 1, "local_epochs": 1})
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {out}: No space left on device"]


def test_config_with_a_non_utf8_byte_exits_1(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"seed": 1, "out_dir": "caf\xe9"}')
    assert main(["train", "--config", str(config)]) == 1
    assert f"config error: cannot parse config {config}" in capsys.readouterr().err


def test_model_with_a_non_utf8_byte_exits_2(tmp_path, iris_csv, capsys):
    config = fast_iris_config(tmp_path, iris_csv, "c")
    model = tmp_path / "model.json"
    save_model(build_nam(4, MULTICLASS, n_classes=3, hidden_layers=1, hidden_units=3, rng=0),
               ["a", "b", "c", "d"], model)
    model.write_bytes(model.read_bytes().replace(b'"a"', b'"\xe9"', 1))
    explain_out = tmp_path / "explain_out"
    assert main(["explain", "--config", str(config), "--model", str(model),
                 "--out", str(explain_out)]) == 2
    assert f"data error: cannot parse model file {model}" in capsys.readouterr().err
    assert not explain_out.exists()


def test_tune_on_a_tiny_table_warns_of_nothing(tmp_path, iris_csv, capsys):
    """A per-client validation shard of one class has no AUC; tune never asks for one."""
    table = tmp_path / "heart60.csv"
    table.write_text("\n".join(heart_lines(60)) + "\n")
    grid = {"dropout": [0.0], "learning_rate": [0.01], "hidden_layers": [1], "batch_size": [16]}
    config = fast_iris_config(tmp_path, iris_csv, "tiny", grid=grid,
                              dataset={"kind": "heart", "csv": str(table)},
                              federation={"num_clients": 3, "rounds": 2, "local_epochs": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["tune", "--config", str(config)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


AUC_WARNING = "warning: ROC-AUC undefined with a single-class label set; returning NaN"


def one_class_test_config(tmp_path: Path, iris_csv: Path, out: str) -> Path:
    """A two-trial tune whose every test split holds one class, so each
    trial's test AUC warns: two positives of 60 rows all land in training."""
    lines = heart_lines(60)
    target = HEART_COLUMNS.index("target")
    for i in range(1, len(lines)):
        _set_cell(lines, i, target, "1" if i <= 2 else "0")
    table = tmp_path / "one_class_test.csv"
    table.write_text("\n".join(lines) + "\n")
    grid = {"dropout": [0.0, 0.1], "learning_rate": [0.01], "hidden_layers": [1], "batch_size": [16]}
    return fast_iris_config(tmp_path, iris_csv, out, grid=grid,
                            dataset={"kind": "heart", "csv": str(table)},
                            federation={"num_clients": 2, "rounds": 1, "local_epochs": 1})


def test_tune_shows_trial_warnings_once_whatever_the_jobs(tmp_path, iris_csv, capsys):
    """Worker processes return the warning to the parent."""
    config = one_class_test_config(tmp_path, iris_csv, "unused")
    shown = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # an interpreter's default for UserWarning
            assert main(["tune", "--config", str(config), "--jobs", str(jobs), "--out", str(out)]) == 0
        shown[jobs] = capsys.readouterr().err.splitlines()
    assert shown[1] == shown[2]
    assert shown[2].count(AUC_WARNING) == 1
    assert (tmp_path / "jobs1" / "trials.csv").read_bytes() == (tmp_path / "jobs2" / "trials.csv").read_bytes()


def test_tune_shows_each_warning_once_whatever_the_filters(tmp_path, iris_csv, capsys):
    """Under "always" both trials' warnings reach `main`, which shows the message once."""
    config = one_class_test_config(tmp_path, iris_csv, "always")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["tune", "--config", str(config)]) == 0
    assert capsys.readouterr().err.splitlines() == [AUC_WARNING]


def test_constant_feature_warns_once_and_gets_flat_single_point_curves(tmp_path, iris_csv, capsys):
    """fit_scaler names the constant column; its curves are one point at the
    column's value, 0 in standardized units, with a centred value of 0."""
    lines = iris_csv.read_text().splitlines()
    for i in range(1, len(lines)):
        _set_cell(lines, i, 1, "3.0")
    table = tmp_path / "const.csv"
    table.write_text("\n".join(lines) + "\n")
    config = fast_iris_config(tmp_path, table, "const",
                              federation={"num_clients": 3, "rounds": 1, "local_epochs": 1})
    warning = "warning: constant feature ['sepal_width']: using std=1 for standardization"
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # an interpreter's default for UserWarning
        assert main(["train", "--config", str(config), "--svg"]) == 0
    assert capsys.readouterr().err.splitlines() == [warning]
    out = tmp_path / "const"

    def rows(path: Path) -> list[dict]:
        with open(path, newline="") as f:
            return [row for row in csv.DictReader(f) if row["feature"] == "sepal_width"]

    shapes = rows(out / "shapes.csv")
    assert len(shapes) == 12  # 3 clients and the global curve, 3 classes each
    assert all((row["x"], row["value"]) == ("0.0", "0.0") for row in shapes)
    assert {row["x_raw"] for row in rows(out / "shapes_raw_units.csv")} == {"3.0"}

    explain_out = tmp_path / "explain"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["explain", "--config", str(config), "--model", str(out / "model.json"),
                     "--out", str(explain_out)]) == 0
    assert capsys.readouterr().err.splitlines() == [warning]
    explained = rows(explain_out / "shapes.csv")
    assert [(row["owner"], row["class"], row["x"], row["value"]) for row in explained] == [
        ("global", str(c), "0.0", "0.0") for c in range(3)]


def test_column_whose_std_underflows_trains_with_the_constant_feature_warning(tmp_path, iris_csv,
                                                                               capsys):
    """Cells 0 and 5e-324 differ, but the column's std underflows to 0."""
    lines = iris_csv.read_text().splitlines()
    for i in range(1, len(lines)):
        _set_cell(lines, i, 0, "5e-324" if i % 2 else "0")
    table = tmp_path / "tiny_spread.csv"
    table.write_text("\n".join(lines) + "\n")
    config = fast_iris_config(tmp_path, table, "tiny_spread",
                              federation={"num_clients": 3, "rounds": 1, "local_epochs": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # an interpreter's default for UserWarning
        assert main(["train", "--config", str(config)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: constant feature ['sepal_length']: using std=1 for standardization"]


def test_non_ascii_names_are_written_as_utf8_whatever_the_locale(tmp_path, iris_csv):
    """Under the C locale open() defaults to ASCII; every CSV and shapes.svg is UTF-8."""
    lines = iris_csv.read_text().splitlines()
    lines[0] = lines[0].replace("sepal_length,sepal_width,", "café,b€,", 1)
    table = tmp_path / "utf.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = fast_iris_config(tmp_path, table, "utf",
                              federation={"num_clients": 3, "rounds": 1, "local_epochs": 1})
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(fednam.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "fednam.cli", "train", "--config", str(config), "--svg"],
                         capture_output=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    out = tmp_path / "utf"
    assert "café" in (out / "contributions.csv").read_text(encoding="utf-8")
    ElementTree.parse(out / "shapes.svg")


def test_failed_command_prints_its_error_and_no_warning(tmp_path, iris_csv, capsys):
    """Three rows warn of a constant feature, then fail to split across three clients."""
    table = tmp_path / "iris3.csv"
    table.write_text("\n".join(iris_csv.read_text().splitlines()[:4]) + "\n")
    config = fast_iris_config(tmp_path, table, "tiny3")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(config)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "data error: cannot split 2 rows across 3 clients"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_tune_data_error_exits_2_with_trains_line(tmp_path, iris_csv, capsys, jobs):
    """The partition fails alike at every grid point: a data error, not a failed trial."""
    table = tmp_path / "iris3.csv"
    table.write_text("\n".join(iris_csv.read_text().splitlines()[:4]) + "\n")
    config = fast_iris_config(tmp_path, table, "tiny3")
    assert main(["train", "--config", str(config)]) == 2
    trained = capsys.readouterr().err.splitlines()
    assert main(["tune", "--config", str(config), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err.splitlines() == trained == [
        "data error: cannot split 2 rows across 3 clients"]
    assert not (tmp_path / "tiny3").exists()


@pytest.mark.parametrize("command", ["train", "explain"])
def test_column_too_large_to_standardize_exits_2_naming_file_and_column(tmp_path, iris_csv, capsys,
                                                                         command):
    """Every cell is finite, but the column's std overflows: a data error, not a training one."""
    lines = iris_csv.read_text().splitlines()
    for i in range(1, len(lines)):
        _set_cell(lines, i, 0, "1e308" if i % 2 else "-1e308")
    table = tmp_path / "huge.csv"
    table.write_text("\n".join(lines) + "\n")
    args = [command, "--config", str(fast_iris_config(tmp_path, table, "huge"))]
    if command == "explain":
        model = tmp_path / "model.json"
        save_model(build_nam(4, MULTICLASS, n_classes=3, hidden_layers=1, hidden_units=3, rng=0),
                   lines[0].split(",")[:4], model)
        args += ["--model", str(model)]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {table}: column 'sepal_length' is too large to standardize"]
    assert not (tmp_path / "huge").exists()


def test_config_nested_too_deep_exits_1(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot parse config {config}: ")
    assert not (tmp_path / "out").exists()


def test_model_nested_too_deep_exits_2(tmp_path, iris_csv, capsys):
    config = fast_iris_config(tmp_path, iris_csv, "c")
    model = tmp_path / "deep.json"
    model.write_text("[" * 100_000)
    explain_out = tmp_path / "explain_out"
    assert main(["explain", "--config", str(config), "--model", str(model),
                 "--out", str(explain_out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: cannot parse model file {model}: ")
    assert not explain_out.exists()


def test_int_beyond_a_double_in_a_float_field_exits_1(tmp_path, iris_csv, capsys):
    """JSON reads 10**400 as an exact int, which no double holds."""
    config = fast_iris_config(tmp_path, iris_csv, "big", optimizer={"learning_rate": 10**400})
    assert main(["train", "--config", str(config)]) == 1
    assert "config error: optimizer.learning_rate must be of type float, got 1000" in (
        capsys.readouterr().err)
    assert not (tmp_path / "big").exists()


def test_diverging_run_exits_3_with_one_line(tmp_path, iris_csv, capsys):
    config = fast_iris_config(tmp_path, iris_csv, "lr", optimizer={"learning_rate": 1e300},
                              federation={"rounds": 1, "local_epochs": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(config)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("training error: ")
