"""`run_from_config` against `reference_federation`, a loop of its own built
from the per-operation oracles: every parameter, every round record and the
global validation scores, bit for bit, on six fixed configs and on drawn ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_federation
from conftest import (HEART_COLUMNS, IRIS_CSV, WINE_COLUMNS, synthetic_heart_rows,
                      synthetic_wine_rows, write_csv)
from fednam.config import config_from_dict
from fednam.data import load_dataset
from fednam.federation import AGGREGATIONS, BOTH
from fednam.nn import ADAM, EXU, RELU, SGD
from fednam.tune import run_from_config

IRIS = {"dataset": {"kind": "iris"}, "federation": {"rounds": 2, "local_epochs": 2}, "batch_size": 16}
# heart- and wine-shaped tables, 3 clients of about 50 training rows each
HEART = {"dataset": {"kind": "heart"}, "federation": {"rounds": 2, "local_epochs": 2},
         "model": {"hidden_layers": 2, "hidden_units": 8}}
WINE = {"dataset": {"kind": "wine"}, "federation": {"rounds": 2, "local_epochs": 2},
        "model": {"hidden_layers": 2, "hidden_units": 8}}

CASES = {
    "iris-both-dropout": (IRIS, {"model": {"dropout": 0.1}}),
    "iris-shape-average": (IRIS, {"federation": {"aggregation": "shape_average"}}),
    "heart-dropout": (HEART, {"model": {"dropout": 0.2}, "seed": 3}),
    "wine-exu": (WINE, {"model": {"unit_kind": "exu"}, "optimizer": {"learning_rate": 0.01}}),
    # more local epochs than either patience: early stopping and the rate schedule act
    "iris-hooks": (IRIS, {"federation": {"local_epochs": 8},
                          "control": {"early_stop_patience": 2, "lr_patience": 1}}),
    "heart-sgd": (HEART, {"optimizer": {"kind": "sgd", "learning_rate": 0.05},
                          "federation": {"local_epochs": 6},
                          "control": {"early_stop_patience": 1, "lr_patience": 1}}),
}
HOOKS_ACT = {"iris-hooks", "heart-sgd"}


def merged(base: dict, extra: dict) -> dict:
    out = {key: dict(value) if isinstance(value, dict) else value for key, value in base.items()}
    for key, value in extra.items():
        out[key] = {**out.get(key, {}), **value} if isinstance(value, dict) else value
    return out


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    work = tmp_path_factory.mktemp("tables")
    return {"iris": IRIS_CSV,
            "heart": write_csv(work / "heart.csv", HEART_COLUMNS, synthetic_heart_rows(200, 5)),
            "wine": write_csv(work / "wine.csv", WINE_COLUMNS, synthetic_wine_rows(200, 7)),
            "heart700": write_csv(work / "heart700.csv", HEART_COLUMNS, synthetic_heart_rows(700, 9))}


@pytest.mark.parametrize("case", CASES)
def test_federation_matches_the_reference_bit_for_bit(case, tables):
    doc = merged(*CASES[case])
    doc["dataset"]["csv"] = str(tables[doc["dataset"]["kind"]])
    config, logs, result = check_against_reference(doc)
    if case in HOOKS_ACT:
        assert any(e.stopped_early for log in logs for e in log.clients)
        assert any(c.optimizer.learning_rate < config.optimizer.learning_rate for c in result.clients)


@st.composite
def loop_configs(draw):
    """A table and a run config over every knob the loop reads. The 700-row
    heart-shaped table trains one client on batches of 300 or 520 rows, so the
    blocked gradient sums run inside the loop."""
    table = draw(st.sampled_from(["iris", "heart", "wine", "heart700"]))
    if table == "heart700":
        clients, batch = 1, draw(st.sampled_from([300, 520]))
    else:
        clients, batch = draw(st.integers(1, 4)), draw(st.sampled_from([1, 5, 16, 32, 1000]))
    doc = {
        "dataset": {"kind": "heart" if table == "heart700" else table},
        "federation": {"num_clients": clients, "rounds": draw(st.integers(1, 2)),
                       "local_epochs": draw(st.integers(1, 4)),
                       "aggregation": draw(st.sampled_from(AGGREGATIONS))},
        "model": {"hidden_layers": draw(st.integers(1, 3)), "hidden_units": draw(st.integers(1, 10)),
                  "dropout": draw(st.sampled_from([0.0, 0.1, 0.5])),
                  "unit_kind": draw(st.sampled_from([RELU, EXU]))},
        "optimizer": {"kind": draw(st.sampled_from([ADAM, SGD])),
                      "learning_rate": draw(st.sampled_from([1e-3, 1e-2, 0.1]))},
        "control": {"early_stop_patience": draw(st.integers(1, 3)), "lr_patience": draw(st.integers(1, 3))},
        "split": {"val_fraction": draw(st.sampled_from([0.0, 0.1, 0.3])), "stratified": draw(st.booleans())},
        "batch_size": batch,
        "threshold": draw(st.sampled_from([0.3, 0.5])),
        "seed": draw(st.integers(0, 99)),
    }
    return table, doc


# Tier-1 runs 60 derandomized examples. A loaded hypothesis profile sets the
# count instead, as CI's longer fuzz does with `--hypothesis-profile=loop-fuzz`
# (conftest.py).
LOOP_FUZZ = (settings(max_examples=60, derandomize=True) if settings.get_current_profile_name() == "default"
             else settings.default)


@given(drawn=loop_configs())
@settings(LOOP_FUZZ, deadline=None)
def test_drawn_federations_match_the_reference_bit_for_bit(drawn, tables):
    table, doc = drawn
    doc["dataset"]["csv"] = str(tables[table])
    check_against_reference(doc)


def check_against_reference(doc: dict):
    """Run `doc` by `run_from_config` and by `reference_federation`, assert
    that they agree bit for bit, and return the config, the round logs and
    the result."""
    config = config_from_dict(doc)
    dataset = load_dataset(config.dataset.csv, config.dataset.kind, config.split.to_spec(config.seed))
    logs = []
    result = run_from_config(dataset, config, on_round=logs.append)
    want = reference_federation(dataset, config)

    for client, params in zip(result.clients, want.clients, strict=True):
        assert client.model.params.tobytes() == params.tobytes(), f"client {client.client_id}"
    if config.federation.aggregation == BOTH:
        assert result.global_model.params.tobytes() == want.global_params.tobytes()
    else:
        assert result.global_model is None and want.global_params is None
    assert len(logs) == len(want.rounds) == config.federation.rounds
    for log, (entries, acc, auc) in zip(logs, want.rounds):
        # repr gives each double's shortest round-trip form, so equal reprs are
        # equal bits, NaN included
        assert repr(log.clients) == repr(entries), f"round {log.round_index}"
        assert repr((log.global_val_acc, log.global_val_auc)) == repr((acc, auc))
    return config, logs, result
