"""Seeded inputs of the benchmark workloads.

The tables come from the row generators in `tests/conftest.py`, imported by
path, so the test stand-ins and the benchmark data stay one definition.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

HEART_ROWS = 1025  # rows of the UCI heart-disease file
WINE_ROWS = 1599  # rows of the red-wine-quality file
EXPLAIN_ROWS = 100_000


def _conftest(root: Path):
    spec = importlib.util.spec_from_file_location("fednam_tests_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_config(path: Path, kind: str, csv: Path, seed: int, rounds: int, jobs: int = 1) -> Path:
    """A run config that differs from the defaults only in its inputs and run length."""
    doc = {
        "dataset": {"kind": kind, "csv": str(csv)},
        "federation": {"rounds": rounds},
        "seed": seed,
        "jobs": jobs,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def heart_table(root: Path, work: Path, seed: int) -> Path:
    ct = _conftest(root)
    return ct.write_csv(work / "heart.csv", ct.HEART_COLUMNS, ct.synthetic_heart_rows(HEART_ROWS, seed))


def wine_table(root: Path, work: Path, seed: int) -> Path:
    ct = _conftest(root)
    return ct.write_csv(work / "wine.csv", ct.WINE_COLUMNS, ct.synthetic_wine_rows(WINE_ROWS, seed))


def wine100k_tables(root: Path, work: Path, seed: int) -> tuple[Path, Path]:
    """The 100k-row table and its first WINE_ROWS rows, on which the explained model trains.

    The generator draws row by row from one stream, so the small table equals
    `wine_table` for the same seed.
    """
    ct = _conftest(root)
    rows = ct.synthetic_wine_rows(EXPLAIN_ROWS, seed)
    big = ct.write_csv(work / "wine100k.csv", ct.WINE_COLUMNS, rows)
    small = ct.write_csv(work / "wine.csv", ct.WINE_COLUMNS, rows[:WINE_ROWS])
    return big, small
