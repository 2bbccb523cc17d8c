"""Span tracing of fednam's layers, installed from outside the package.

Each traced function is replaced where its callers look it up: a module that
did `from .x import f` holds its own reference to `f`, so the wrapper goes on
that module's attribute, not only on the defining module. Spans stay in
memory and are written once, when the traced command ends.

`tune` trials run in pool workers; `TracedTrial` records each trial's spans
in the worker and returns them on the trial result, and the `grid_search`
wrapper moves them into the parent's list.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import statistics
import time

# (module whose attribute is replaced, attribute, span name).
WRAPS = [
    ("fednam.cli", "load_dataset", "data.load_dataset"),
    ("fednam.data", "load_csv", "data.load_csv"),
    ("fednam.data", "preprocess", "data.preprocess"),
    ("fednam.nam", "NamModel.forward_batch", "nam.forward"),
    ("fednam.interpret", "nam_forward", "nam.forward"),
    ("fednam.nam", "NamModel.backward_batch", "nam.backward"),
    ("fednam.cli", "save_model", "nam.save_model"),
    ("fednam.cli", "load_model", "nam.load_model"),
    ("fednam.federation", "optimizer_step", "nn.optimizer_step"),
    ("fednam.federation", "batch_loss_and_grad", "nn.loss"),
    ("fednam.dnn", "DnnModel.forward_batch", "dnn.forward"),
    ("fednam.dnn", "DnnModel.backward_batch", "dnn.backward"),
    ("fednam.interpret", "input_gradient_attributions", "dnn.attribution"),
    ("fednam.federation", "local_train", "federation.local_train"),
    ("fednam.federation", "fed_avg", "federation.fed_avg"),
    ("fednam.nam", "NamModel.copy_params_from", "federation.broadcast"),
    ("fednam.dnn", "DnnModel.copy_params_from", "federation.broadcast"),
    ("fednam.federation", "evaluate_model", "federation.evaluate"),
    ("fednam.federation", "_loss_and_accuracy", "federation.evaluate"),
    ("fednam.tune", "evaluate_model", "federation.evaluate"),
    ("fednam.cli", "evaluate_model", "federation.evaluate"),
    ("fednam.federation", "early_stop_update", "control.update"),
    ("fednam.federation", "schedule_lr", "control.update"),
    ("fednam.federation", "compute_metrics", "metrics.compute"),
    ("fednam.federation", "accuracy", "metrics.compute"),
    ("fednam.cli", "global_interpret", "interpret.global_interpret"),
    ("fednam.interpret", "model_curves", "interpret.curves"),
    ("fednam.cli", "model_curves", "interpret.curves"),
    ("fednam.interpret", "contribution_scores", "interpret.contributions"),
    ("fednam.cli", "contribution_scores", "interpret.contributions"),
    ("fednam.interpret", "average_shape_functions", "interpret.average"),
    ("fednam.cli", "export_reports", "interpret.export"),
    ("fednam.cli", "baseline_attributions", "interpret.baseline_attributions"),
    ("fednam.cli", "run_from_config", "tune.run_from_config"),
    ("fednam.cli", "grid_search", "tune.grid_search"),
]


class Tracer:
    """Spans of one process: [id, parent id, name, start, end, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.counter = 0

    def begin(self, name: str) -> list:
        self.counter += 1
        span = [f"{os.getpid()}-{self.counter}", self.stack[-1] if self.stack else None,
                name, time.perf_counter(), None, {}]
        self.stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)


TRACER: Tracer | None = None
ORIGINALS: dict[str, object] = {}


def _annotate(name: str, span: list, args: tuple, kwargs: dict, result) -> None:
    """Counts recorded at the span's boundary, after its clock has stopped."""
    attrs = span[5]
    if name in ("nam.forward", "dnn.forward"):
        attrs["rows"] = len(args[1])
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "infer")
        if mode == "train":
            attrs["train_rows"] = len(args[1])
    elif name == "data.load_csv":
        attrs["rows"] = result.n_rows
    elif name == "federation.fed_avg":
        tensors = args[0][0].model.param_tensors()
        attrs["clients"] = len(args[0])
        attrs["tensors"] = len(tensors)
        attrs["params"] = int(sum(t.size for t in tensors))
    elif name == "tune.grid_search":
        attrs["jobs"] = kwargs.get("jobs", args[2] if len(args) > 2 else 1)


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = TRACER.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end(span)
        _annotate(name, span, args, kwargs, result)
        if name == "tune.grid_search":
            _collect_worker_spans(result[1])
        return result

    return traced


class TracedTrial:
    """Stands in for `fednam.tune._run_trial`; pickled by class, so it works
    whether pool workers are forked (and inherit the wrappers) or spawned."""

    def __call__(self, work):
        if TRACER is None:
            install()
        mark = len(TRACER.spans)
        span = TRACER.begin("tune.trial")
        try:
            result = ORIGINALS["fednam.tune._run_trial"](work)
        finally:
            TRACER.end(span)
        span[5]["failed"] = result.error is not None
        if multiprocessing.parent_process() is not None:
            result.perfbench_spans = TRACER.spans[mark:]
            del TRACER.spans[mark:]
        return result


def _collect_worker_spans(trials) -> None:
    for trial in trials:
        TRACER.spans.extend(trial.__dict__.pop("perfbench_spans", []))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install() -> list[str]:
    """Wrap every function in WRAPS; returns the entries that no longer exist."""
    global TRACER
    TRACER = Tracer()
    missing = []
    for module, attr, name in WRAPS + [("fednam.tune", "_run_trial", "tune.trial")]:
        try:
            owner, leaf = _resolve(module, attr)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
            continue
        ORIGINALS[f"{module}.{attr}"] = fn
        setattr(owner, leaf, TracedTrial() if name == "tune.trial" else _wrap(fn, name))
    return missing


def write(path: str, import_s: float, missing: list[str]) -> None:
    doc = {"import_s": import_s, "main_pid": os.getpid(), "missing_wraps": missing,
           "spans": TRACER.spans}
    with open(path, "w") as f:
        json.dump(doc, f)


def _total(spans: list[list], name: str) -> float:
    return sum(s[4] - s[3] for s in spans if s[2] == name)


def _count(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[2] == name)


def layer_metrics(doc: dict, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; `run_s` is its wall time, measured outside."""
    spans = doc["spans"]
    main = doc["main_pid"]
    pid = {s[0]: s[0].split("-")[0] for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        if s[1] is not None and s[1].split("-")[0] == pid[s[0]]:
            child_time[s[1]] = child_time.get(s[1], 0.0) + s[4] - s[3]
    ids = set(pid)
    roots = [s for s in spans if pid[s[0]] == str(main) and s[1] not in ids]

    avg = [s[5] for s in spans if s[2] == "federation.fed_avg"]
    forwards = [s[5] for s in spans if s[2] in ("nam.forward", "dnn.forward")]
    trials = [s for s in spans if s[2] == "tune.trial"]
    trial_s = [s[4] - s[3] for s in trials]
    searches = [s for s in spans if s[2] == "tune.grid_search"]
    idle = 0.0
    if searches:
        capacity = sum((s[4] - s[3]) * s[5]["jobs"] for s in searches)
        idle = 1.0 - sum(trial_s) / capacity
    return {
        "import_s": doc["import_s"],
        "data.load_csv_s": _total(spans, "data.load_csv"),
        "data.preprocess_s": _total(spans, "data.preprocess"),
        "data.rows_parsed": sum(s[5]["rows"] for s in spans if s[2] == "data.load_csv"),
        "nam.forward_s": _total(spans, "nam.forward"),
        "nam.forward_calls": _count(spans, "nam.forward"),
        "nam.forward_rows": sum(s[5]["rows"] for s in spans if s[2] == "nam.forward"),
        "nam.backward_s": _total(spans, "nam.backward"),
        "nam.backward_calls": _count(spans, "nam.backward"),
        "nam.save_model_s": _total(spans, "nam.save_model"),
        "nam.load_model_s": _total(spans, "nam.load_model"),
        "nn.optimizer_step_s": _total(spans, "nn.optimizer_step"),
        "nn.optimizer_step_calls": _count(spans, "nn.optimizer_step"),
        "nn.loss_s": _total(spans, "nn.loss"),
        "dnn.forward_s": _total(spans, "dnn.forward"),
        "dnn.backward_s": _total(spans, "dnn.backward"),
        "dnn.attribution_s": _total(spans, "dnn.attribution"),
        "federation.local_train_s": _total(spans, "federation.local_train"),
        "federation.local_train_self_s": sum(
            s[4] - s[3] - child_time.get(s[0], 0.0)
            for s in spans if s[2] == "federation.local_train"
        ),
        "federation.fed_avg_s": _total(spans, "federation.fed_avg"),
        "federation.fed_avg_calls": len(avg),
        "federation.broadcast_s": _total(spans, "federation.broadcast"),
        "federation.evaluate_s": _total(spans, "federation.evaluate"),
        "federation.bytes_per_round": (
            statistics.fmean(2 * a["clients"] * a["params"] * 8 for a in avg) if avg else 0
        ),
        "federation.param_tensors_per_model": max((a["tensors"] for a in avg), default=0),
        "federation.samples_trained": sum(a.get("train_rows", 0) for a in forwards),
        "control.update_s": _total(spans, "control.update"),
        "metrics.compute_s": _total(spans, "metrics.compute"),
        "metrics.calls": _count(spans, "metrics.compute"),
        "interpret.curves_s": _total(spans, "interpret.curves"),
        "interpret.contributions_s": _total(spans, "interpret.contributions"),
        "interpret.average_s": _total(spans, "interpret.average"),
        "interpret.export_s": _total(spans, "interpret.export"),
        "tune.trials": len(trials),
        "tune.trials_failed": sum(1 for s in trials if s[5]["failed"]),
        "tune.trial_s_p50": statistics.median(trial_s) if trial_s else 0.0,
        "tune.trial_s_max": max(trial_s, default=0.0),
        "tune.pool_idle_share": idle,
        "trace.spans": len(spans),
        "trace.coverage_share": (doc["import_s"] + sum(s[4] - s[3] for s in roots)) / run_s,
    }
