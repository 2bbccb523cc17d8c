"""Paired A/B benchmark: a base revision against the working tree.

    python3 tools/bench_ab.py --base REV --label L --workload W [--workload W ...]
        [--pairs 10] [--seed 1] [--seconds 6] [--probes 20] [--trace 0|1]

Run it from the root of a fednam checkout. It exports the committed files of
REV into a temporary directory with `git archive`, so the repository's own
metadata is left as it was. For each workload it then makes `--pairs` pairs
of `perfbench/run.py` calls, one on each side; the side that runs first
switches from pair to pair, so a drift in the host's load does not favour
either. Each side runs its own `perfbench/child.py`, which puts that side's
`src` first. Every child started for a side, and every process it starts,
caches bytecode under that side's own PYTHONPYCACHEPREFIX, a directory made
empty in the temporary one: neither side reads the `__pycache__` of its tree,
such as a test run leaves in the working tree, so both sides import alike.
The children may write there even under PYTHONDONTWRITEBYTECODE=1: under a
prefix, Python reads no `__pycache__` at all, NumPy's and the standard
library's included, so a child that could not write would compile them all.
The first child of a side, the artifact run, fills its prefix.

`perfbench` times its set-up probes right after command runs. The script
also alternates `--probes` direct `perfbench/child.py setup` calls per side,
on inputs prepared once, so the two set-up readings can be compared. Each
probe runs under a small launcher process, which reads the probe's wall time
and its own peak RSS (Linux `ru_maxrss`) from `wait4`: a child's peak RSS
starts at its parent's RSS at fork, so a probe run straight from this script
would read at least this script's RSS.

Before the pairs, it runs each workload's CLI command once per side through
that side's `perfbench/child.py run`, on the same prepared inputs and into
the same `--out` path, and compares the two output trees byte for byte.
Every file counts but `run_info.json`, which holds a timestamp.

With `--trace 1`, after a workload's pairs it makes one `perfbench/run.py
--trace 1` call per side, with the same seed and seconds, and keeps each
side's per-layer metrics.

It writes BENCH_<label>.json: per workload and side, the median and
quartiles of each end-to-end metric of BENCHMARK.json, how many pairs the
working tree won on each, and `correct` of every call; the same for the
direct set-up probes' seconds and peak RSS; `artifacts_identical` and the
sorted paths of the artifacts that differ; the host, both commit ids, the
seed and the seconds; with `--trace 1`, each workload's `per_layer` metrics
as {metric: {"base": value, "head": value}}.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
# perfbench runs its children with one BLAS thread; the probes do the same
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALL_TIMEOUT_S = 1800
# `python -c LAUNCHER CMD...` runs CMD and prints one JSON line: its wall
# seconds, its own peak RSS and its exit code. The launcher's RSS, the floor
# of CMD's reading, is that of a bare interpreter.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"seconds": time.perf_counter() - start, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "returncode": os.waitstatus_to_exitcode(status)}))
"""


def last_json_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench/run.py output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and the values themselves; None entries are left out."""
    got = [v for v in values if v is not None]
    if not got:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": values}
    q1, median, q3 = statistics.quantiles(got, n=4, method="inclusive") if len(got) > 1 else got * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(got), "values": values}


def head_wins(base: list, head: list, better: str) -> int:
    """Pairs in which the working tree's value is strictly better than the base's."""
    sign = -1.0 if better == "lower" else 1.0
    return sum(1 for b, h in zip(base, head) if b is not None and h is not None and sign * (h - b) > 0)


def compare(base: list, head: list, better: str) -> dict:
    """Both sides' spreads, the wins, the change of the median, and whether the
    gain exceeds the base's interquartile distance."""
    out = {"base": spread(base), "head": spread(head), "head_wins": head_wins(base, head, better)}
    b, h = out["base"], out["head"]
    if b["median"] is None or h["median"] is None:
        out["median_change"] = out["gain_exceeds_base_iqr"] = None
        return out
    out["median_change"] = (h["median"] - b["median"]) / b["median"] if b["median"] else None
    gain = b["median"] - h["median"] if better == "lower" else h["median"] - b["median"]
    out["gain_exceeds_base_iqr"] = gain > b["q3"] - b["q1"]
    return out


def differing_artifacts(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """Sorted paths whose digests differ between two runs' artifacts, or that
    only one run wrote."""
    return sorted(path for path in base.keys() | head.keys() if base.get(path) != head.get(path))


def per_layer(traced: dict[str, dict]) -> dict:
    """{metric: {"base": value, "head": value}} from each side's last JSON line
    of a `perfbench/run.py --trace 1` call; a metric one side lacks reads None."""
    names = dict.fromkeys(name for side in SIDES for name in traced[side]["metrics"])
    return {name: {side: traced[side]["metrics"].get(name, {}).get("value") for side in SIDES}
            for name in names}


def summarize(calls: list[dict], probes: list[dict], end_to_end: list[dict],
              extras: dict[str, dict]) -> dict:
    """Per workload: every end-to-end metric compared pair by pair, `correct`
    and `failed` of every call, the direct set-up probes compared, and the
    workload's entries of `extras` (the artifact comparison and `per_layer`).

    `calls` hold {"workload", "pair", "side", "result"}, where `result` is the
    last JSON line of a perfbench/run.py call; `probes` hold {"workload",
    "side", "seconds", "peak_rss_mb"} in the order they ran.
    """
    report = {}
    for workload in dict.fromkeys(c["workload"] for c in calls):
        mine = sorted((c for c in calls if c["workload"] == workload), key=lambda c: c["pair"])
        results = {side: [c["result"] for c in mine if c["side"] == side] for side in SIDES}
        entry = {"pairs": len(results["head"])}
        for side in SIDES:
            entry[f"{side}_correct"] = [r["correct"] for r in results[side]]
            entry[f"{side}_failed"] = [r["failed"] for r in results[side]]
        entry["metrics"] = {
            m["name"]: compare(
                *([r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES),
                m["better"],
            )
            for m in end_to_end
        }
        for key, name in (("seconds", "setup_probe_s"), ("peak_rss_mb", "setup_probe_peak_rss_mb")):
            read = [[p[key] for p in probes if p["workload"] == workload and p["side"] == side]
                    for side in SIDES]
            entry[name] = compare(*read, "lower")
        report[workload] = entry
    for workload, extra in extras.items():
        report.setdefault(workload, {}).update(extra)
    return report


# --- running -----------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export_base(rev: str, into: Path) -> Path:
    """REV's committed files under `into`/base."""
    root = into / "base"
    root.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(root)], input=archive.stdout, check=True)
    return root


def side_envs(tmp: Path) -> dict[str, dict[str, str]]:
    """Each side's environment for the children it starts: one BLAS thread, no
    PYTHONPATH (each side's child.py puts its own src first) and its own fresh,
    empty PYTHONPYCACHEPREFIX under `tmp`, which the children may write, so
    that neither side reads bytecode cached in its tree and both compile alike."""
    envs = {}
    for side in SIDES:
        prefix = tmp / f"pycache-{side}"
        prefix.mkdir()
        envs[side] = dict(os.environ, **BLAS_ENV, PYTHONPYCACHEPREFIX=str(prefix))
        for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            envs[side].pop(name, None)
    return envs


def run_in(root: Path, cmd: list[str], env: dict[str, str]) -> str:
    """The standard output of `cmd` run in `root`; a non-zero exit raises."""
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def perfbench_call(root: Path, env: dict[str, str], workload: str, seed: int, seconds: float,
                   trace: int = 0) -> dict:
    return last_json_line(run_in(root, [sys.executable, "perfbench/run.py", "--workload", workload,
                                        "--seed", str(seed), "--seconds", str(seconds),
                                        "--trace", str(trace)], env))


def _perfbench_module(root: Path):
    """The working tree's perfbench/run.py as a module, for its input preparation."""
    sys.path.insert(0, str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location("fednam_perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def launch(cmd: list[str], cwd: Path, env: dict[str, str]) -> dict:
    """Run `cmd` under LAUNCHER: {"seconds", "peak_rss_mb"} of `cmd` alone."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if proc.returncode == 0:
        result = last_json_line(proc.stdout)
        if result.pop("returncode") == 0:
            return result
    raise RuntimeError(f"{' '.join(cmd)} in {cwd} failed:\n{proc.stderr[-2000:]}")


def setup_probe(root: Path, env: dict[str, str], args: list[str]) -> dict:
    """One `perfbench/child.py setup` call: its seconds and its own peak RSS."""
    cmd = [sys.executable, str(root / "perfbench" / "child.py"), "setup", *args]
    return launch(cmd, root, env)


def compare_artifacts(roots: dict[str, Path], envs: dict[str, dict[str, str]], args: list[str],
                      work: Path, perfbench) -> dict:
    """Run the command once per side into the one path work/out, and compare
    the digests of what the two sides wrote (perfbench's, which leave out
    run_info.json)."""
    out, digests = work / "out", {}
    for side in SIDES:
        root = roots[side]
        run_in(root, [sys.executable, str(root / "perfbench" / "child.py"), "run", "--", *args,
                      "--out", str(out)], envs[side])
        digests[side] = perfbench.artifact_digests(out)
        shutil.rmtree(out)
    differing = differing_artifacts(digests["base"], digests["head"])
    return {"artifacts_identical": not differing, "differing_artifacts": differing}


def host() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # NumPy before 1.26 has no mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--probes", type=int, default=20, help="direct set-up probes per side")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced perfbench call per side after the pairs")
    args = parser.parse_args()
    head_root = Path.cwd()
    if not (head_root / "perfbench" / "run.py").is_file():
        print("perfbench/run.py not found: run from the root of a fednam checkout", file=sys.stderr)
        return 2
    spec = json.loads((head_root / "BENCHMARK.json").read_text())
    doc = {
        "label": args.label,
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "head": {"commit": _git("rev-parse", "HEAD"), "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
    }
    started = time.perf_counter()
    calls, probes, extras = [], [], {}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        roots = {"base": export_base(args.base, Path(tmp)), "head": head_root}
        envs = side_envs(Path(tmp))
        perfbench = _perfbench_module(head_root)
        for workload in args.workload:
            work = Path(tmp) / f"probe-{workload}"
            work.mkdir()
            prepared = perfbench.WORKLOADS[workload].prepare(work, args.seed)
            probe_args = ["--config", str(prepared.config)]
            if prepared.model is not None:
                probe_args += ["--model", str(prepared.model)]
            extras[workload] = compare_artifacts(
                roots, envs, [perfbench.WORKLOADS[workload].command, *probe_args], work, perfbench)
            print(f"{workload} artifacts differ: {extras[workload]['differing_artifacts']}",
                  file=sys.stderr)
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = perfbench_call(roots[side], envs[side], workload, args.seed, args.seconds)
                    calls.append({"workload": workload, "pair": pair, "side": side, "result": result})
                    run_s = result["metrics"]["run_s"]["value"]
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: run_s {run_s} "
                          f"correct {result['correct']}", file=sys.stderr)
            if args.trace:
                extras[workload]["per_layer"] = per_layer(
                    {side: perfbench_call(roots[side], envs[side], workload, args.seed, args.seconds,
                                          trace=1)
                     for side in SIDES})
            for i in range(args.probes):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    probes.append({"workload": workload, "side": side,
                                   **setup_probe(roots[side], envs[side], probe_args)})
    doc["workloads"] = summarize(calls, probes, spec["end_to_end"], extras)
    doc["wall_s"] = time.perf_counter() - started
    out = head_root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
