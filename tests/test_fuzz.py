"""Fuzzing the CLI's three file inputs: a run config and a CSV table through
`train`, a model file through `explain`, and a run config through `tune` and
`benchmark`.

Whatever the document, `main` returns 0, 1, 2 or 3, and a non-zero code comes
with exactly one stderr line naming the kind of error. Most config
mutations draw a value that config load accepts, so most examples run; the
rest break the document. Runs stay short: the config keeps 1 round of 1 local
epoch, and network and batch sizes come from a small range or are invalid
extremes, which config load rejects. A `tune` runs at most 3 grid points on at
most 2 workers.
"""

import copy
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import HEART_COLUMNS, synthetic_heart_rows
from fednam.cli import main
from fednam.config import RunConfig, config_from_dict
from fednam.errors import FedNamError
from fednam.federation import AGGREGATIONS
from fednam.nn import ADAM, EXU, RELU, SGD
from fednam.tune import enumerate_grid

PREFIXES = ("config error:", "data error:", "training error:")
# ints stay small (valid as any size or count) or are extremes no size may take
INTS = st.integers(-2, 4) | st.sampled_from([10**30, -(10**30), 10**400])
FLOATS = st.floats() | st.sampled_from([1e308, -1e308, 1e-320, -0.0, math.nan, math.inf, -math.inf])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | st.text(max_size=6)
VALUES = (SCALARS | st.lists(SCALARS, max_size=3)
          | st.dictionaries(st.text(max_size=6), SCALARS, max_size=2))
# a replaced config value is most often a number: those reach training
REPLACEMENTS = INTS | FLOATS | VALUES
# the run length; never mutated, so no example trains for long
FIXED = {("federation", "rounds"), ("federation", "local_epochs")}
# each size field's small range, which an example draws from before it mutates
SIZES = {("model", "hidden_layers"): (1, 3), ("model", "hidden_units"): (1, 8),
         ("federation", "num_clients"): (1, 5), ("batch_size",): (1, 64)}
# values that config load accepts, for every field but the run length and the
# grid: a mutation that draws from them leads to a run
ACCEPTED = {
    **{path: st.integers(low, high) for path, (low, high) in SIZES.items()},
    ("seed",): st.integers(0, 2**32),
    ("threshold",): st.floats(0.05, 0.95),
    ("svg",): st.booleans(),
    ("jobs",): st.integers(1, 2),
    ("split", "test_fraction"): st.floats(0.1, 0.5),
    ("split", "val_fraction"): st.floats(0.0, 0.5),
    ("split", "stratified"): st.booleans(),
    ("federation", "aggregation"): st.sampled_from(AGGREGATIONS),
    ("model", "unit_kind"): st.sampled_from([RELU, EXU]),
    ("model", "dropout"): st.floats(0.0, 0.9),
    ("optimizer", "kind"): st.sampled_from([SGD, ADAM]),
    ("optimizer", "learning_rate"): st.floats(1e-4, 0.5),
    ("control", "early_stop_patience"): st.integers(1, 30),
    ("control", "min_delta"): st.floats(0.0, 0.1),
    ("control", "lr_factor"): st.floats(0.1, 0.9),
    ("control", "lr_patience"): st.integers(1, 20),
    ("control", "min_lr"): st.floats(1e-6, 1e-3),
}


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code, and every line a user would see on stderr: warnings too."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def check_outcome(code: int, lines: list[str]) -> None:
    assert code in (0, 1, 2, 3)
    if code:
        assert len(lines) == 1 and lines[0].startswith(PREFIXES), lines


def paths(node, prefix=()) -> list[tuple]:
    """The path of every node below `node`: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [prefix + (key,), *paths(child, prefix + (key,))]]


def node_at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def parent_of(doc, path: tuple):
    return node_at(doc, path[:-1])


def mutate_config(doc: dict, data) -> None:
    # three mutations in four set a field to an accepted value, so that most
    # examples run; the rest break the document
    if data.draw(st.integers(0, 3)):
        path = data.draw(st.sampled_from(sorted(ACCEPTED)))
        if path in paths(doc):
            parent_of(doc, path)[path[-1]] = data.draw(ACCEPTED[path])
        return
    op = data.draw(st.sampled_from(["drop", "add", "replace", "replace", "nest", "size"]))
    # the federation section may not go, nor turn into another dict: either would
    # bring back the default run length
    mutable = [p for p in paths(doc) if p not in FIXED and p != ("federation",)]
    if op == "size":  # an invalid extreme
        path = data.draw(st.sampled_from(sorted(SIZES)))
        if path in paths(doc):
            parent_of(doc, path)[path[-1]] = data.draw(st.sampled_from([0, -1, 10**30]))
    elif op == "drop":
        path = data.draw(st.sampled_from(mutable))
        del parent_of(doc, path)[path[-1]]
    elif op == "add":
        where = data.draw(st.sampled_from(
            [()] + [p for p in paths(doc) if isinstance(node_at(doc, p), dict)]))
        target = node_at(doc, where)
        target[data.draw(st.text(max_size=8).filter(lambda k: k not in target))] = data.draw(VALUES)
    elif op == "replace":
        path = data.draw(st.sampled_from(mutable))
        parent_of(doc, path)[path[-1]] = data.draw(REPLACEMENTS)
    else:  # wrong nesting: a section in a list, a key one level too deep or too high
        sections = [k for k, v in doc.items() if isinstance(v, dict)]
        if not sections:
            return
        section = data.draw(st.sampled_from(sections))
        keys = [k for k in doc[section] if (section, k) not in FIXED]
        how = data.draw(st.sampled_from(["list", "deeper", "higher"] if keys else ["list"]))
        if how == "list":
            doc[section] = [doc[section]]
        else:
            key = data.draw(st.sampled_from(keys))
            if how == "deeper":
                doc[section][key] = {key: doc[section][key]}
            else:
                doc[key] = doc[section].pop(key)


def iris_config_doc(iris_csv: Path) -> dict:
    doc = asdict(RunConfig())
    doc["dataset"].update(kind="iris", csv=str(iris_csv))
    doc["federation"].update(rounds=1, local_epochs=1)
    return doc


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_config_fails_cleanly(iris_csv, data):
    doc = iris_config_doc(iris_csv)
    for path, (low, high) in SIZES.items():
        parent_of(doc, path)[path[-1]] = data.draw(st.integers(low, high))
    for _ in range(data.draw(st.integers(1, 2))):
        mutate_config(doc, data)
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "config.json"
        config.write_text(json.dumps(doc))
        check_outcome(*run_main(["train", "--config", str(config), "--out", f"{folder}/out"]))


# a few values of each searched field, none repeated
GRID_VALUES = {"dropout": [0.0, 0.1, 0.5], "learning_rate": [0.1, 0.01, 0.001],
               "hidden_layers": [1, 2, 3], "batch_size": [8, 16, 32]}


def small_enough(doc: dict) -> bool:
    """Whether a config runs at most 3 grid points on at most 2 workers, or
    fails to load before any trial."""
    try:
        config = config_from_dict(copy.deepcopy(doc))
    except FedNamError:
        return True
    return len(enumerate_grid(config.grid)) <= 3 and config.jobs <= 2


@pytest.mark.parametrize("command", ["tune", "benchmark"])
@given(data=st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_config_fails_cleanly_in_tune_and_benchmark(iris_csv, command, data):
    doc = iris_config_doc(iris_csv)
    for path, (low, high) in SIZES.items():
        parent_of(doc, path)[path[-1]] = data.draw(st.integers(low, high))
    # one field searches up to 3 values, the others 1
    wide = data.draw(st.sampled_from(sorted(GRID_VALUES)))
    doc["grid"] = {name: data.draw(st.lists(st.sampled_from(values), min_size=1,
                                            max_size=3 if name == wide else 1, unique=True))
                   for name, values in GRID_VALUES.items()}
    doc["jobs"] = data.draw(st.integers(1, 2))
    for _ in range(data.draw(st.integers(1, 2))):
        mutate_config(doc, data)
    assume(command == "benchmark" or small_enough(doc))
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "config.json"
        config.write_text(json.dumps(doc))
        check_outcome(*run_main([command, "--config", str(config), "--out", f"{folder}/out"]))


@pytest.fixture(scope="module")
def iris_model(iris_csv, tmp_path_factory):
    """A small trained iris model's file text, and the config to explain it with."""
    folder = tmp_path_factory.mktemp("fuzz_model")
    doc = iris_config_doc(iris_csv)
    doc["model"].update(hidden_layers=1, hidden_units=3)
    config = folder / "config.json"
    config.write_text(json.dumps(doc))
    assert run_main(["train", "--config", str(config), "--out", str(folder / "train")]) == (0, [])
    return config, (folder / "train" / "model.json").read_text()


def mutate_model(doc, data):
    """One mutation of the model document; returns the (new) document."""
    op = data.draw(st.sampled_from(["drop", "replace", "weight", "reshape"]))
    nodes = paths(doc)
    if not nodes:
        return data.draw(VALUES)
    if op == "weight":  # a float leaf turns extreme or non-finite
        floats = [p for p in nodes if isinstance(node_at(doc, p), float)] or nodes
        path = data.draw(st.sampled_from(floats))
        parent_of(doc, path)[path[-1]] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400]))
        return doc
    path = data.draw(st.sampled_from(nodes))
    parent, key = parent_of(doc, path), path[-1]
    if op == "drop":  # a missing key, or a list one entry short
        del parent[key]
    elif op == "replace":  # a wrong type
        parent[key] = data.draw(VALUES)
    elif isinstance(parent, list):  # a list one entry long
        parent.insert(key, copy.deepcopy(parent[key]))
    else:  # a value wrapped one level deeper
        parent[key] = [parent[key]]
    return doc


@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_model_fails_cleanly(iris_model, data):
    config, text = iris_model
    if data.draw(st.booleans()):
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate_model(doc, data)
        text = json.dumps(doc)
    else:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as folder:
        model = Path(folder) / "model.json"
        model.write_text(text)
        check_outcome(*run_main(["explain", "--config", str(config), "--model", str(model),
                                 "--out", f"{folder}/out"]))


# cells that each reach a different rule of CSV ingestion; the last is over the
# csv module's field size limit
CELLS = st.binary(max_size=6) | st.sampled_from(
    [b"", b" ", b"nan", b"-inf", b"1e999", b"0x1p3", b"1_0", b'"', b'"1,2"', b"1" * 200_000])
# bytes that a file reader or a CSV parser treats apart from text
INJECTED = st.binary(min_size=1, max_size=4) | st.sampled_from(
    [b"\x00", b"\r", b"\n", b'"', b"\xff", b"\xef\xbb\xbf", b"\n\n", b",,"])


def small_table(kind: str, iris_csv: Path) -> list[bytes]:
    """A valid table of either target kind, 30 data rows: its lines, header first."""
    if kind == "iris":
        lines = iris_csv.read_bytes().splitlines()
        return lines[:1] + [line for start in (1, 51, 101) for line in lines[start:start + 10]]
    rows = synthetic_heart_rows(30)
    return [",".join(HEART_COLUMNS).encode()] + [",".join(map(str, r)).encode() for r in rows]


def mutate_table(lines: list[bytes], data) -> list[bytes]:
    """One mutation of a table's lines; returns the (new) lines."""
    op = data.draw(st.sampled_from(["drop", "add", "replace", "inject", "delimiter",
                                    "header", "line", "truncate"]))
    if not lines:
        return [data.draw(INJECTED)]
    at = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[at].split(b",")
    if op in ("drop", "add", "replace"):  # one cell of one line
        i = data.draw(st.integers(0, len(cells) - 1))
        if op == "drop":
            del cells[i]
        elif op == "add":
            cells.insert(i, data.draw(CELLS))
        else:
            cells[i] = data.draw(CELLS)
        lines[at] = b",".join(cells)
    elif op == "inject":
        i = data.draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:i] + data.draw(INJECTED) + lines[at][i:]
    elif op == "delimiter":  # in every line, or in one
        new = data.draw(st.sampled_from([b";", b"\t", b" ", b"|"]))
        chosen = range(len(lines)) if data.draw(st.booleans()) else [at]
        for j in chosen:
            lines[j] = lines[j].replace(b",", new)
    elif op == "header":
        lines[0] = data.draw(st.sampled_from([b"", b" ", b",,,,", b"\t"]))
    elif op == "line":  # a line dropped or doubled
        if data.draw(st.booleans()):
            del lines[at]
        else:
            lines.insert(at, lines[at])
    else:  # the file cut before a line
        lines = lines[:at]
    return lines


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_csv_fails_cleanly(iris_csv, data):
    kind = data.draw(st.sampled_from(["iris", "heart"]))
    lines = small_table(kind, iris_csv)
    for _ in range(data.draw(st.integers(1, 3))):
        lines = mutate_table(lines, data)
    with tempfile.TemporaryDirectory() as folder:
        table = Path(folder) / "table.csv"
        table.write_bytes(b"\n".join(lines) + b"\n")
        doc = iris_config_doc(table)
        doc["dataset"]["kind"] = kind
        doc["model"].update(hidden_layers=1, hidden_units=3)
        config = Path(folder) / "config.json"
        config.write_text(json.dumps(doc))
        check_outcome(*run_main(["train", "--config", str(config), "--out", f"{folder}/out"]))
