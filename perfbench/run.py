"""Benchmark of fednam through its command-line entry, `fednam.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fednam checkout. It generates the workload's
inputs from the seed, then, for S seconds, alternates a set-up probe and one
run of the CLI command, each a fresh process, and checks every run's outputs.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it measures
untraced runs the same way, then makes one run with fednam's layers wrapped
(see tracing.py) and reports the per-layer metrics and the tracing overhead.
Metric names and units are those of BENCHMARK.json; layer_map.json says which
end-to-end metric, on which workload, each per-layer metric should move.

`run_s` and `setup_s` are medians of measured wall times. On a shared host
that runs the same work faster in some phases than in others, they spread
with the host's load; the range of each run's times is printed beside them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is a command run, or a `tune`
trial; a run whose output check fails counts as failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_RUNS = 3
RUN_TIMEOUT_S = 120
# One BLAS thread per process: the two `tune` workers then use nproc threads in all.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Run lengths, fixed once; everything else is fednam's default config.
TRAIN_ROUNDS = 5
TUNE_ROUNDS = 5
TUNE_JOBS = 2
GRID_POINTS = 24  # the default grid: 3 dropouts x 2 rates x 2 depths x 2 batch sizes
HEART_AUC_FLOOR = 0.85  # the tests' floor for heart-shaped data
# The tests' iris floor (0.90) is for one 50-round default-config run. After the grid's
# 5 rounds, the default-config trial reads 0.63-0.90 on seeds 1-10 and no trial reaches
# 0.90 on seed 26, so the grid is held to twice chance (3 classes) on at least half of
# its trials; seeds 0-30 and 100 gave 18 to 24 such trials.
IRIS_TRIAL_ACCURACY = 2 / 3
WINE_FEATURES = 11
GRID = 101  # shape-curve grid points


@dataclass
class Prepared:
    config: Path
    model: Path | None = None
    model_auc: float | None = None  # test AUC of the explained model, from its training run


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    trials: int = 0
    trials_failed: int = 0
    test_auc: float = math.nan
    dnn_test_auc: float = 0.0


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _metrics_csv(path: Path) -> dict[str, float]:
    return {r["metric"]: float(r["value"]) for r in _rows(path)}


def _require(outcome: Outcome, out: Path, names: list[str]) -> bool:
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        outcome.problems.append(f"missing artifacts {missing}")
    return not missing


def _finite(outcome: Outcome, what: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        outcome.problems.append(f"non-finite values in {what}")


# --- workloads ---------------------------------------------------------------


def prepare_heart(work: Path, seed: int) -> Prepared:
    table = inputs.heart_table(ROOT, work, seed)
    return Prepared(inputs.write_config(work / "config.json", "heart", table, seed, TRAIN_ROUNDS))


def check_heart(out: Path, prepared: Prepared) -> Outcome:
    outcome = Outcome()
    clients = [f"clients/client_{i}.json" for i in range(3)]
    files = ["model.json", *clients, "rounds.csv", "contributions.csv", "shapes.csv",
             "shapes_raw_units.csv", "metrics.csv", "config.json", "run_info.json"]
    if not _require(outcome, out, files):
        return outcome
    from fednam.nam import NamModel, load_model

    model, names = load_model(out / "model.json")
    if not isinstance(model, NamModel) or len(names) != 13:
        outcome.problems.append("model.json does not reload as a 13-feature NAM")
    stats = _metrics_csv(out / "metrics.csv")
    _finite(outcome, "metrics.csv", stats["accuracy"], stats["auc"])
    if not stats["auc"] >= HEART_AUC_FLOOR:
        outcome.problems.append(f"test AUC {stats['auc']} under {HEART_AUC_FLOOR}")
    if len(_rows(out / "rounds.csv")) != 3 * TRAIN_ROUNDS:
        outcome.problems.append("rounds.csv does not hold one row per client and round")
    outcome.test_auc = stats["auc"]
    return outcome


def prepare_iris(work: Path, seed: int) -> Prepared:
    table = ROOT / "data" / "iris.csv"
    return Prepared(
        inputs.write_config(work / "config.json", "iris", table, seed, TUNE_ROUNDS, TUNE_JOBS)
    )


def check_iris(out: Path, prepared: Prepared) -> Outcome:
    outcome = Outcome()
    if not _require(outcome, out, ["trials.csv", "best.json", "run_info.json"]):
        return outcome
    from fednam.config import load_config

    trials = _rows(out / "trials.csv")
    errors = out / "trial_errors.csv"
    failed = {r["trial_id"] for r in _rows(errors)} if errors.exists() else set()
    outcome.trials, outcome.trials_failed = len(trials), len(failed)
    if len(trials) != GRID_POINTS:
        outcome.problems.append(f"trials.csv has {len(trials)} trials, expected {GRID_POINTS}")
    done = [t for t in trials if t["trial_id"] not in failed]
    for t in done:
        _finite(outcome, f"trial {t['trial_id']}", float(t["mean_val_acc"]),
                float(t["global_test_acc"]), float(t["global_test_auc"]))
    trained = sum(1 for t in done if float(t["global_test_acc"]) >= IRIS_TRIAL_ACCURACY - 1e-9)
    if not 2 * trained >= GRID_POINTS:
        outcome.problems.append(f"only {trained} of {GRID_POINTS} trials reach test accuracy "
                                f"{IRIS_TRIAL_ACCURACY:.3f}")
    best = load_config(out / "best.json")
    point = (best.model.dropout, best.optimizer.learning_rate, best.model.hidden_layers,
             best.batch_size)
    winners = [t for t in done if (float(t["dropout"]), float(t["lr"]), int(t["layers"]),
                                   int(t["batch"])) == point]
    if len(winners) != 1:
        outcome.problems.append(f"best.json matches {len(winners)} trials")
    else:
        outcome.test_auc = float(winners[0]["global_test_auc"])
    return outcome


def prepare_wine(work: Path, seed: int) -> Prepared:
    table = inputs.wine_table(ROOT, work, seed)
    return Prepared(inputs.write_config(work / "config.json", "wine", table, seed, TRAIN_ROUNDS))


def check_wine(out: Path, prepared: Prepared) -> Outcome:
    outcome = Outcome()
    if not _require(outcome, out, ["benchmark.csv", "run_info.json"]):
        return outcome
    rows = _rows(out / "benchmark.csv")
    models = {r["name"]: r for r in rows if r["row_type"] == "model"}
    attributions = [float(r["avg_attribution"]) for r in rows if r["row_type"] == "attribution"]
    if set(models) != {"fednam", "dnn"} or len(attributions) != WINE_FEATURES:
        outcome.problems.append("benchmark.csv lacks a model row or an attribution row")
        return outcome
    for name, row in models.items():
        _finite(outcome, f"{name} metrics", float(row["test_accuracy"]), float(row["test_auc"]))
    _finite(outcome, "attributions", *attributions)
    outcome.test_auc = float(models["fednam"]["test_auc"])
    outcome.dnn_test_auc = float(models["dnn"]["test_auc"])
    return outcome


def prepare_explain(work: Path, seed: int) -> Prepared:
    big, small = inputs.wine100k_tables(ROOT, work, seed)
    train_config = inputs.write_config(work / "train.json", "wine", small, seed, TRAIN_ROUNDS)
    model_dir = work / "model"
    rc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "run", "--", "train", "--config", str(train_config), "--out", str(model_dir)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S,
    ).returncode
    if rc != 0:
        raise RuntimeError(f"training the model to explain exited {rc}")
    return Prepared(
        inputs.write_config(work / "config.json", "wine", big, seed, TRAIN_ROUNDS),
        model=model_dir / "model.json",
        model_auc=_metrics_csv(model_dir / "metrics.csv")["auc"],
    )


def check_explain(out: Path, prepared: Prepared) -> Outcome:
    outcome = Outcome()
    files = ["contributions.csv", "shapes.csv", "shapes_raw_units.csv", "run_info.json"]
    if not _require(outcome, out, files):
        return outcome
    contributions = _rows(out / "contributions.csv")
    if sorted(int(r["rank"]) for r in contributions) != list(range(1, WINE_FEATURES + 1)):
        outcome.problems.append("contributions.csv does not rank all features once")
    _finite(outcome, "contribution scores", *(float(r["score"]) for r in contributions))
    for name in ("shapes.csv", "shapes_raw_units.csv"):
        shapes = _rows(out / name)
        if len(shapes) != WINE_FEATURES * GRID or any(r["owner"] != "global" for r in shapes):
            outcome.problems.append(f"{name} does not hold {WINE_FEATURES}x{GRID} global rows")
        _finite(outcome, name, *(float(r["value"]) for r in shapes))
    outcome.test_auc = prepared.model_auc
    return outcome


@dataclass(frozen=True)
class Workload:
    command: str  # the fednam CLI subcommand
    prepare: Callable[[Path, int], Prepared]  # writes the inputs for a seed, untimed
    check: Callable[[Path, Prepared], Outcome]  # checks one run's output directory


WORKLOADS = {
    "heart-train": Workload("train", prepare_heart, check_heart),
    "iris-tune": Workload("tune", prepare_iris, check_iris),
    "wine-benchmark": Workload("benchmark", prepare_wine, check_wine),
    "wine100k-explain": Workload("explain", prepare_explain, check_explain),
}


# --- processes ---------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)  # child.py puts the checkout's src first
    return env


@dataclass
class Timing:
    wall: float  # seconds
    rss_mb: float  # peak RSS of the process or any descendant it reaped
    returncode: int


def timed_child(args: list[str], work: Path) -> Timing:
    """Run `child.py args` in a new session; its output goes to work/child.log."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    with open(work / "child.log", "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        # `tune` workers share the session, so a timeout stops them too.
        watchdog = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return Timing(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact except run_info.json, which holds a timestamp."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_info.json"
    }


@dataclass
class Runs:
    commands: list[Timing] = field(default_factory=list)
    setups: list[Timing] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] | None = None
    first: Outcome | None = None


def command_run(name: str, prepared: Prepared, work: Path, runs: Runs,
                trace: Path | None = None) -> Timing:
    """One checked run of the workload's command."""
    workload = WORKLOADS[name]
    out = work / "out"  # the same path every run: config.json records it
    args = ["run"]
    if trace is not None:
        args += ["--trace", str(trace)]
    args += ["--", workload.command, "--config", str(prepared.config), "--out", str(out)]
    if prepared.model is not None:
        args += ["--model", str(prepared.model)]
    timing = timed_child(args, work)
    rc = timing.returncode
    if rc != 0:
        tail = (work / "child.log").read_text(errors="replace").splitlines()[-20:]
        outcome = Outcome([f"exit code {rc}; its output ends:\n" + "\n".join(tail)])
    else:
        try:
            outcome = workload.check(out, prepared)
        except Exception as exc:  # a malformed artifact fails the run, not the benchmark
            outcome = Outcome([f"output check raised {exc!r}"])
        digests = artifact_digests(out)
        if runs.digests is None:
            runs.digests, runs.first = digests, outcome
        elif digests != runs.digests:
            changed = sorted(k for k in digests.keys() | runs.digests.keys()
                             if digests.get(k) != runs.digests.get(k))
            outcome.problems.append(f"artifacts differ from the first run: {changed}")
    runs.attempted += 1 + outcome.trials
    runs.failed += (1 if outcome.problems else 0) + outcome.trials_failed
    for problem in outcome.problems:
        print(f"check failed [{name} run {runs.attempted}]: {problem}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    if trace is None:
        runs.commands.append(timing)
    return timing


def setup_probe(prepared: Prepared, work: Path) -> Timing:
    args = ["setup", "--config", str(prepared.config)]
    if prepared.model is not None:
        args += ["--model", str(prepared.model)]
    timing = timed_child(args, work)
    if timing.returncode != 0:
        raise RuntimeError(f"set-up probe exited {timing.returncode}:\n"
                           f"{(work / 'child.log').read_text()}")
    return timing


def measure(name: str, prepared: Prepared, work: Path, seconds: float, probes: bool) -> Runs:
    """Alternate set-up probes and command runs for about `seconds`, at least MIN_RUNS each.

    A pair starts only if the pairs so far say it ends before the deadline."""
    runs = Runs()
    start = time.perf_counter()
    while True:
        if probes:
            runs.setups.append(setup_probe(prepared, work))
        command_run(name, prepared, work, runs)
        elapsed = time.perf_counter() - start
        if len(runs.commands) >= MIN_RUNS and elapsed * (1 + 1 / len(runs.commands)) > seconds:
            return runs


# --- reporting ---------------------------------------------------------------


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
    }


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy wheels bundle; None for another BLAS."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def spec() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    names = [m["name"] for m in doc["per_layer"]]
    if sorted(layer_map) != sorted(names):
        raise RuntimeError("layer_map.json and BENCHMARK.json name different per-layer metrics")
    return doc


def traced(name: str, prepared: Prepared, work: Path, runs: Runs) -> dict[str, float]:
    """Per-layer metrics from one traced run, plus its overhead over the untraced median."""
    import tracing

    spans_path = work / "spans.json"
    timing = command_run(name, prepared, work, runs, trace=spans_path)
    if not spans_path.exists():
        raise RuntimeError("the traced run wrote no spans")
    doc = json.loads(spans_path.read_text())
    if doc["missing_wraps"]:
        print(f"not traced, no longer in fednam: {doc['missing_wraps']}", file=sys.stderr)
    values = tracing.layer_metrics(doc, timing.wall)
    untraced = statistics.median(t.wall for t in runs.commands)
    values["trace.run_s"] = timing.wall
    values["trace.overhead_s"] = timing.wall - untraced
    values["trace.overhead_share"] = (timing.wall - untraced) / untraced
    values["dnn.test_auc"] = runs.first.dnn_test_auc if runs.first else math.nan
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/fednam/cli.py", "tests/conftest.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"{needed} not found: run from the root of a fednam checkout", file=sys.stderr)
            return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    doc = spec()
    print("environment", json.dumps(environment(), sort_keys=True))

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload].prepare(work, args.seed)
        runs = measure(args.workload, prepared, work, args.seconds, probes=not args.trace)
        if args.trace:
            values = traced(args.workload, prepared, work, runs)
            metrics = doc["per_layer"]
        else:
            values = {
                "run_s": statistics.median(t.wall for t in runs.commands),
                "setup_s": statistics.median(t.wall for t in runs.setups),
                "peak_rss_mb": statistics.median(t.rss_mb for t in runs.commands),
                "test_auc": runs.first.test_auc if runs.first else math.nan,
            }
            metrics = doc["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = {"run_s": runs.commands, "setup_s": runs.setups}
    for m in metrics:
        line = f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}"
        if walls.get(m["name"]):
            got = [t.wall for t in walls[m["name"]]]
            line += f"  (median of {len(got)}, range {min(got):.6g} to {max(got):.6g})"
        print(line)
    print(f"{'error_rate':<36} {runs.failed / runs.attempted:>14.6g} "
          f"failed/attempted  ({runs.failed} of {runs.attempted} operations)")
    finite = all(math.isfinite(values[m["name"]]) for m in metrics)
    result = {
        "correct": runs.failed == 0 and finite,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else None,
                        "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
