"""Every function the benchmark's tracer wraps, and every `fednam.cli` name its
child process calls, still exists under that name, and takes the arguments
the tracer reads where it reads them.

A refactor that renames one would leave that per-layer metric silently
untraced. The tracer is imported by path and only its read-only lookup is
used; nothing is wrapped.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_probe", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


POINTS = [(module, attr) for module, attr, _ in tracing.WRAPS] + [("fednam.tune", "_run_trial")]
# what perfbench/child.py calls on fednam.cli; a name also traced is listed once
CHILD_CALLS = ("main", "load_config", "_load_run_dataset", "load_model")
POINTS += [("fednam.cli", name) for name in CHILD_CALLS if ("fednam.cli", name) not in POINTS]


@pytest.mark.parametrize("module,attr", POINTS)
def test_trace_point_resolves(module, attr):
    owner, leaf = tracing._resolve(module, attr)
    assert callable(getattr(owner, leaf))


# What `_annotate` and `TracedTrial` read of a wrapped call, by position or
# by attribute. A renamed or moved parameter would leave the call working
# and its per-layer metric wrong: without `jobs` third, the traced iris-tune
# divides the pool's capacity by 1 and reads a negative idle share.
def parameters(module: str, attr: str) -> list[str]:
    owner, leaf = tracing._resolve(module, attr)
    return list(inspect.signature(getattr(owner, leaf)).parameters)


def test_grid_search_takes_jobs_third():
    assert parameters("fednam.tune", "grid_search")[2] == "jobs"


@pytest.mark.parametrize("module,attr", [("fednam.nam", "NamModel.forward_batch"),
                                         ("fednam.dnn", "DnnModel.forward_batch"),
                                         ("fednam.interpret", "nam_forward")])
def test_forward_takes_x_and_mode_second_and_third(module, attr):
    assert parameters(module, attr)[1:3] == ["x", "mode"]


def test_fed_avg_takes_the_clients_first():
    assert parameters("fednam.federation", "fed_avg")[0] == "clients"


def test_a_trial_is_called_with_one_work_tuple_and_reports_its_error():
    from fednam.data import RawTable
    from fednam.tune import TrialResult

    assert len(parameters("fednam.tune", "_run_trial")) == 1
    assert "error" in {f.name for f in dataclasses.fields(TrialResult)}
    assert RawTable(["a"], "a.csv", values=np.zeros((2, 1))).n_rows == 2
