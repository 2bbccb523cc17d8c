"""Every function the benchmark's tracer wraps still exists under its traced name.

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


@pytest.mark.parametrize(
    "module,attr",
    [(module, attr) for module, attr, _ in tracing.WRAPS] + [("fednam.tune", "_run_trial")],
)
def test_trace_point_resolves(module, attr):
    owner, leaf = tracing._resolve(module, attr)
    assert callable(getattr(owner, leaf))
