"""Paired A/B benchmark: a base revision against the working tree.

    python3 tools/bench_ab.py --base REV --label L --workload W [--workload W ...]
        [--pairs 10] [--seed 1] [--seconds 6] [--probes 20] [--trace 0|1]

Run it from the root of a fednam checkout. It exports two trees into a
temporary directory, so the repository itself is left as it was: the base
holds the committed files of REV, from `git archive`; the head holds the
working tree's files that git sees (tracked, changed or not, and untracked
but not ignored), so a `__pycache__` or a deleted file stays out. For each
workload it then makes `--pairs` pairs of `perfbench/run.py` calls, one in
each tree; the side that runs first switches from pair to pair, so a drift in
the host's load does not favour either. Each side runs its own
`perfbench/child.py`, which puts that side's `src` first. Every child of
either side gets the environment `perfbench` gives the commands it measures
(`_child_env` of the working tree's `perfbench/run.py`), so each side
compiles or caches bytecode just as a `perfbench` run in a fresh checkout:
under PYTHONDONTWRITEBYTECODE=1, every child compiles fednam's modules, and
the numbers include that, as the benchmark's own do.

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
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def export(rev: str | None, into: Path) -> Path:
    """The committed files of `rev`, or with None the working tree's files
    that git sees, copied into the new directory `into`."""
    into.mkdir()
    if rev is not None:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                                 capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
        return into
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        if os.path.lexists(name):  # a tracked file deleted from the working tree is listed
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, into / name, follow_symlinks=False)
    return into


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
    """The working tree's perfbench/run.py as a module, for its input preparation
    and the environment of its children."""
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


def compare_artifacts(roots: dict[str, Path], env: dict[str, str], args: list[str], work: Path,
                      perfbench) -> dict:
    """Run the command once per side into the one path work/out, and compare
    the digests of what the two sides wrote (perfbench's, which leave out
    run_info.json)."""
    out, digests = work / "out", {}
    for side in SIDES:
        root = roots[side]
        run_in(root, [sys.executable, str(root / "perfbench" / "child.py"), "run", "--", *args,
                      "--out", str(out)], env)
        digests[side] = perfbench.artifact_digests(out)
        shutil.rmtree(out)
    differing = differing_artifacts(digests["base"], digests["head"])
    return {"artifacts_identical": not differing, "differing_artifacts": differing}


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
    checkout = Path.cwd()
    if not (checkout / "perfbench" / "run.py").is_file():
        print("perfbench/run.py not found: run from the root of a fednam checkout", file=sys.stderr)
        return 2
    perfbench = _perfbench_module(checkout)
    unknown = [w for w in args.workload if w not in perfbench.WORKLOADS]
    if unknown:
        print(f"--workload {unknown[0]}: not one of {', '.join(sorted(perfbench.WORKLOADS))}",
              file=sys.stderr)
        return 2
    base = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"],
                          capture_output=True, text=True)
    if base.returncode != 0:
        print(f"--base {args.base}: not a commit of this repository", file=sys.stderr)
        return 2
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    os.environ.update(perfbench.BLAS_ENV)  # before NumPy loads: `host` reads the children's BLAS threads
    doc = {
        "label": args.label,
        "base": {"rev": args.base, "commit": base.stdout.strip()},
        "head": {"commit": _git("rev-parse", "HEAD").strip(), "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**perfbench.environment(), "machine": platform.machine(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
    }
    started = time.perf_counter()
    calls, probes, extras = [], [], {}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        roots = {side: export(rev, Path(tmp) / side) for side, rev in zip(SIDES, (args.base, None))}
        env = perfbench._child_env()
        for workload in args.workload:
            work = Path(tmp) / f"probe-{workload}"
            work.mkdir()
            prepared = perfbench.WORKLOADS[workload].prepare(work, args.seed)
            probe_args = ["--config", str(prepared.config)]
            if prepared.model is not None:
                probe_args += ["--model", str(prepared.model)]
            extras[workload] = compare_artifacts(
                roots, env, [perfbench.WORKLOADS[workload].command, *probe_args], work, perfbench)
            print(f"{workload} artifacts differ: {extras[workload]['differing_artifacts']}",
                  file=sys.stderr)
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = perfbench_call(roots[side], env, workload, args.seed, args.seconds)
                    calls.append({"workload": workload, "pair": pair, "side": side, "result": result})
                    run_s = result["metrics"]["run_s"]["value"]
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: run_s {run_s} "
                          f"correct {result['correct']}", file=sys.stderr)
            if args.trace:
                extras[workload]["per_layer"] = per_layer(
                    {side: perfbench_call(roots[side], env, workload, args.seed, args.seconds,
                                          trace=1)
                     for side in SIDES})
            for i in range(args.probes):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    probes.append({"workload": workload, "side": side,
                                   **setup_probe(roots[side], env, probe_args)})
    doc["workloads"] = summarize(calls, probes, spec["end_to_end"], extras)
    doc["wall_s"] = time.perf_counter() - started
    out = checkout / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
