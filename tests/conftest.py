"""Shared fixtures: dataset paths and synthetic stand-ins with matching schemas."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data"
IRIS_CSV = DATA_DIR / "iris.csv"
HEART_CSV = DATA_DIR / "heart.csv"
WINE_CSV = DATA_DIR / "winequality-red.csv"

HEART_COLUMNS = [
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
]
WINE_COLUMNS = [
    "fixed acidity", "volatile acidity", "citric acid", "residual sugar",
    "chlorides", "free sulfur dioxide", "total sulfur dioxide", "density",
    "pH", "sulphates", "alcohol", "quality",
]


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Register the hypothesis profile of CI's longer loop fuzz
    (`pytest --hypothesis-profile=loop-fuzz`, test_reference_federation.py,
    the oracle comparisons of test_bank.py and the contribution-score
    properties of test_interpret.py) before the hypothesis plugin loads it.
    Hypothesis is imported here, not at the top: perfbench imports this
    module for its row generators, and hypothesis would add about 9 MB to
    every such run's peak RSS."""
    from hypothesis import settings

    settings.register_profile("loop-fuzz", max_examples=500, deadline=None)


def require_file(path: Path) -> Path:
    if not path.exists():
        pytest.skip(f"dataset file {path} not present in this environment")
    return path


@pytest.fixture(scope="session")
def iris_csv() -> Path:
    return require_file(IRIS_CSV)


@pytest.fixture(scope="session")
def heart_csv() -> Path:
    return require_file(HEART_CSV)


@pytest.fixture(scope="session")
def wine_csv() -> Path:
    return require_file(WINE_CSV)


def write_csv(path: Path, columns: list[str], rows: list[list]) -> Path:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def synthetic_heart_rows(n: int = 320, seed: int = 5) -> list[list]:
    """Rows shaped like the heart-disease file: 13 numeric features + 0/1 target.

    The label leans on cp/thalach/ca so pipeline smoke tests have signal to find.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        age = rng.integers(29, 78)
        sex = rng.integers(0, 2)
        cp = rng.integers(0, 4)
        trestbps = rng.integers(94, 201)
        chol = rng.integers(126, 565)
        fbs = rng.integers(0, 2)
        restecg = rng.integers(0, 3)
        thalach = rng.integers(71, 203)
        exang = rng.integers(0, 2)
        oldpeak = round(float(rng.uniform(0, 6.2)), 1)
        slope = rng.integers(0, 3)
        ca = rng.integers(0, 4)
        thal = rng.integers(0, 4)
        score = 1.2 * cp + 0.035 * (thalach - 140) - 0.9 * ca - 0.5 * exang + rng.normal(0, 0.8)
        target = int(score > 0.4)
        rows.append([age, sex, cp, trestbps, chol, fbs, restecg,
                     thalach, exang, oldpeak, slope, ca, thal, target])
    return rows


def synthetic_wine_rows(n: int = 320, seed: int = 7) -> list[list]:
    """Rows shaped like the red-wine file; quality is an integer 3..8."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        volatile = round(float(rng.uniform(0.1, 1.6)), 3)
        sulphates = round(float(rng.uniform(0.3, 2.0)), 2)
        chlorides = round(float(rng.uniform(0.01, 0.6)), 3)
        alcohol = round(float(rng.uniform(8.4, 14.9)), 1)
        score = 5.6 - 1.8 * volatile + 1.4 * sulphates - 2.5 * chlorides + 0.12 * (alcohol - 10)
        quality = int(np.clip(round(score + rng.normal(0, 0.6)), 3, 8))
        rows.append([
            round(float(rng.uniform(4.6, 15.9)), 1), volatile,
            round(float(rng.uniform(0.0, 1.0)), 2), round(float(rng.uniform(0.9, 15.5)), 1),
            chlorides, round(float(rng.uniform(1, 72)), 0), round(float(rng.uniform(6, 289)), 0),
            round(float(rng.uniform(0.990, 1.004)), 4), round(float(rng.uniform(2.7, 4.0)), 2),
            sulphates, alcohol, quality,
        ])
    return rows


@pytest.fixture()
def synthetic_heart_csv(tmp_path: Path) -> Path:
    return write_csv(tmp_path / "heart.csv", HEART_COLUMNS, synthetic_heart_rows())


@pytest.fixture()
def synthetic_wine_csv(tmp_path: Path) -> Path:
    return write_csv(tmp_path / "winequality-red.csv", WINE_COLUMNS, synthetic_wine_rows())
