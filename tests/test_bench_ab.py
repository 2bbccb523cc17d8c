"""The summary of tools/bench_ab.py on canned perfbench output, its artifact
comparison on two written trees, its probe launcher on one short
subprocess, its two exported trees, and its refusal of bad input."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def perfbench_stdout(run_s: float, setup_s: float, auc: float | None = 0.9, correct: bool = True) -> str:
    """What perfbench/run.py prints: metric lines, then one JSON line."""
    metrics = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": 40.0, "test_auc": auc}
    line = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return f"environment {{}}\nrun_s {run_s} s\n\n{json.dumps(line)}\n"


def calls(runs: dict[str, list[tuple]]) -> list[dict]:
    return [
        {"workload": "iris-tune", "pair": pair, "side": side,
         "result": bench_ab.last_json_line(perfbench_stdout(*args))}
        for side, rows in runs.items()
        for pair, args in enumerate(rows)
    ]


def test_summary_of_pairs():
    base = [(1.40, 0.30), (1.50, 0.31), (1.30, 0.29), (1.45, 0.30), (1.35, 0.32)]
    head = [(1.20, 0.31), (1.25, 0.30), (1.35, 0.30), (1.22, 0.31), (1.21, 0.31, None, False)]
    probes = [{"workload": "iris-tune", "side": side, "seconds": s, "peak_rss_mb": mb}
              for side, s, mb in [("base", 0.28, 40.0), ("head", 0.27, 39.0), ("head", 0.29, 38.8),
                                  ("base", 0.30, 40.2)]]
    report = bench_ab.summarize(calls({"base": base, "head": head}), probes, END_TO_END, {})
    entry = report["iris-tune"]
    assert entry["pairs"] == 5
    assert entry["base_correct"] == [True] * 5 and entry["head_correct"] == [True] * 4 + [False]
    assert entry["head_failed"] == [0, 0, 0, 0, 1]
    run_s = entry["metrics"]["run_s"]
    assert run_s["base"]["median"] == 1.40 and run_s["head"]["median"] == 1.22
    assert (run_s["base"]["q1"], run_s["base"]["q3"]) == (1.35, 1.45)
    assert run_s["base"]["values"] == [1.40, 1.50, 1.30, 1.45, 1.35]
    assert run_s["head_wins"] == 4  # lower is better; pair 3 went to the base
    assert run_s["median_change"] == pytest.approx(-0.18 / 1.40)
    assert run_s["gain_exceeds_base_iqr"] is True  # 0.18 against 1.45 - 1.35
    assert entry["metrics"]["setup_s"]["head_wins"] == 2
    # higher is better for the AUC; the missing value counts in no pair
    auc = entry["metrics"]["test_auc"]
    assert auc["head"]["n"] == 4 and auc["head_wins"] == 0
    assert auc["gain_exceeds_base_iqr"] is False
    probe = entry["setup_probe_s"]
    assert probe["base"]["values"] == [0.28, 0.30] and probe["head"]["values"] == [0.27, 0.29]
    assert probe["head_wins"] == 2
    rss = entry["setup_probe_peak_rss_mb"]
    assert rss["base"]["values"] == [40.0, 40.2] and rss["head"]["values"] == [39.0, 38.8]
    assert rss["head_wins"] == 2 and rss["median_change"] == pytest.approx(-1.2 / 40.1)


def traced_stdout(metrics: dict[str, float | None]) -> str:
    """What perfbench/run.py --trace 1 prints: per-layer metric lines, then one JSON line."""
    line = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return f"environment {{}}\nnam.forward_calls 689 count\n{json.dumps(line)}\n"


def test_per_layer_metrics_land_beside_the_pairs_and_artifacts():
    """Each side's traced metrics go under the workload's `per_layer`, keyed by metric
    then side; a metric one side does not report, or reports as null, reads None."""
    traced = {"base": bench_ab.last_json_line(traced_stdout(
                  {"nam.forward_calls": 689, "data.load_csv_s": 0.004, "dnn.test_auc": None})),
              "head": bench_ab.last_json_line(traced_stdout(
                  {"nam.forward_calls": 689, "data.load_csv_s": 0.003, "trace.spans": 1402}))}
    layers = bench_ab.per_layer(traced)
    assert layers == {"nam.forward_calls": {"base": 689, "head": 689},
                      "data.load_csv_s": {"base": 0.004, "head": 0.003},
                      "dnn.test_auc": {"base": None, "head": None},
                      "trace.spans": {"base": None, "head": 1402}}
    extras = {"iris-tune": {"artifacts_identical": True, "differing_artifacts": [], "per_layer": layers}}
    runs = [(1.40, 0.30), (1.50, 0.31)]
    report = bench_ab.summarize(calls({"base": runs, "head": runs}), [], END_TO_END, extras)
    entry = report["iris-tune"]
    assert entry["pairs"] == 2 and entry["metrics"]["run_s"]["head_wins"] == 0
    assert entry["artifacts_identical"] is True and entry["per_layer"] is layers
    # --pairs 0: the artifact comparison and the traced metrics stand alone
    assert bench_ab.summarize([], [], END_TO_END, extras) == extras


def test_launcher_reads_the_commands_own_peak_rss():
    """A child's peak RSS starts at its parent's RSS at fork: run straight
    from this process, a bare interpreter would read over 64 MB here."""
    ballast = b"x" * 64_000_000  # written, so resident
    probe = bench_ab.launch([sys.executable, "-c", "pass"], ROOT, dict(os.environ))
    del ballast
    assert probe["seconds"] > 0
    assert 0 < probe["peak_rss_mb"] < 40, probe


def git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                   capture_output=True)


def test_each_side_is_exported_from_what_git_sees(tmp_path, monkeypatch):
    """The base is a revision's committed files; the head is the working
    tree's files that git sees, changed or untracked, without what it ignores
    or what was deleted. Neither holds `.git`."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "src" / "gone.py").write_text("deleted later\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "one")
    (repo / "src" / "kept.py").write_text("changed\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "x.pyc").write_bytes(b"cached")
    (repo / "src" / "gone.py").unlink()
    monkeypatch.chdir(repo)
    head = bench_ab.export(None, tmp_path / "head")
    base = bench_ab.export("HEAD", tmp_path / "base")

    def files(root: Path) -> dict[str, str]:
        return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*") if p.is_file()}

    assert files(head) == {".gitignore": "__pycache__/\n", str(Path("src", "kept.py")): "changed\n",
                           str(Path("src", "new.py")): "untracked\n"}
    assert files(base) == {".gitignore": "__pycache__/\n", str(Path("src", "kept.py")): "committed\n",
                           str(Path("src", "gone.py")): "deleted later\n"}
    assert not (head / ".git").exists() and not (base / ".git").exists()


@pytest.mark.parametrize("flag,value", [("--base", "no-such-rev"), ("--workload", "no-such-workload")])
def test_bad_input_exits_2_with_one_line_before_any_export(flag, value, monkeypatch, capsys):
    args = {"--base": "HEAD", "--label": "never-written", "--workload": "iris-tune", flag: value}
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["bench_ab.py", *(x for pair in args.items() for x in pair)])
    monkeypatch.setattr(bench_ab, "export", lambda *_: pytest.fail("exported"))
    assert bench_ab.main() == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{flag} {value}: "), err
    assert not (ROOT / "BENCH_never-written.json").exists()


def test_a_single_value_is_its_own_quartiles():
    assert bench_ab.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1, "values": [2.0]}
    assert bench_ab.spread([None])["median"] is None


def test_last_json_line_skips_trailing_blank_lines():
    assert bench_ab.last_json_line('x 1\n{"correct": true}\n\n') == {"correct": True}
    with pytest.raises(ValueError):
        bench_ab.last_json_line("\n")


def test_artifact_comparison_lists_changed_and_missing_files(tmp_path):
    """Two output trees, hashed as bench_ab hashes them: a changed byte and a
    file only one side wrote are listed; run_info.json is not compared."""
    digests = bench_ab._perfbench_module(ROOT).artifact_digests
    trees = {side: tmp_path / side for side in ("base", "head")}
    for side, tree in trees.items():
        (tree / "clients").mkdir(parents=True)
        (tree / "shapes.csv").write_text("x,value\n0.5,1.0\n")
        (tree / "clients" / "client_0.json").write_text("{}" if side == "base" else "{ }")
        (tree / "run_info.json").write_text(f'{{"finished_at": "{side}"}}')
    (trees["base"] / "rounds.csv").write_text("round\n1\n")
    assert bench_ab.differing_artifacts(digests(trees["base"]), digests(trees["head"])) == [
        str(Path("clients", "client_0.json")), "rounds.csv"]
    (trees["head"] / "rounds.csv").write_text("round\n1\n")
    (trees["head"] / "clients" / "client_0.json").write_text("{}")
    assert bench_ab.differing_artifacts(digests(trees["base"]), digests(trees["head"])) == []
