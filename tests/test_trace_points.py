"""Every function the benchmark's tracer wraps, and every `fednam.cli` name its
child process calls, still exists under that name.

A refactor that renames one would leave that per-layer metric silently
untraced. The tracer is imported by path and only its read-only lookup is
used; nothing is wrapped.
"""

import importlib.util
from pathlib import Path

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
