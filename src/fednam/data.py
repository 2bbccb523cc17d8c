"""CSV ingestion, target encoding, z-score standardization, and splits.

Three tabular dataset kinds are understood out of the box:
  heart - binary target column "target" already coded 0/1
  wine  - red-wine quality column binarized at quality >= 6
  iris  - species names mapped to 3 integer classes (alphabetical order)
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .nn import BINARY, MULTICLASS

HEART = "heart"
WINE = "wine"
IRIS = "iris"
DATASET_KINDS = (HEART, WINE, IRIS)

DEFAULT_TARGETS = {HEART: "target", WINE: "quality", IRIS: "species"}
WINE_QUALITY_THRESHOLD = 6


@dataclass
class RawTable:
    """Parsed CSV: header names plus string cells, rectangular, and the file they came from."""

    columns: list[str]
    rows: list[list[str]]
    path: str

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass
class SplitConfig:
    """The split settings of a run config; the seed comes from the run."""

    test_fraction: float = 0.20
    val_fraction: float = 0.10  # of each client shard
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"split.test_fraction must be in (0,1), got {self.test_fraction}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"split.val_fraction must be in [0,1), got {self.val_fraction}")

    def to_spec(self, seed: int) -> SplitSpec:
        return SplitSpec(**asdict(self), seed=seed)


@dataclass
class SplitSpec(SplitConfig):
    seed: int = 0


@dataclass
class Scaler:
    """Per-feature mean/std fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass
class Dataset:
    """Standardized features, encoded labels, and the train/test index split."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    task: str
    scaler: Scaler
    train_idx: np.ndarray
    test_idx: np.ndarray
    class_names: list[str]

    @property
    def X_train(self) -> np.ndarray:
        return self.X[self.train_idx]

    @property
    def y_train(self) -> np.ndarray:
        return self.y[self.train_idx]

    @property
    def X_test(self) -> np.ndarray:
        return self.X[self.test_idx]

    @property
    def y_test(self) -> np.ndarray:
        return self.y[self.test_idx]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _sniff_delimiter(header_line: str) -> str:
    # the upstream wine-quality file ships semicolon-separated
    if ";" in header_line and "," not in header_line:
        return ";"
    return ","


def load_csv(path: str | Path) -> RawTable:
    """Parse a comma-separated file with a header row into a RawTable.

    Ragged rows and empty files are rejected with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"CSV file not found: {path}")
    with open(path, newline="", encoding="utf-8") as f:
        first = f.readline()
        if not first.strip():
            raise DataError(f"{path}: empty file")
        delim = _sniff_delimiter(first)
        f.seek(0)
        reader = csv.reader(f, delimiter=delim)
        columns = [c.strip().strip('"') for c in next(reader)]
        rows: list[list[str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} cells, expected {len(columns)}"
                )
            rows.append([c.strip() for c in row])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return RawTable(columns, rows, str(path))


def _parse_feature_matrix(table: RawTable, feature_cols: list[str]) -> np.ndarray:
    """Features as a (rows, K) float matrix; a missing, non-numeric or non-finite
    cell raises DataError naming its row and column."""
    idx = [table.columns.index(c) for c in feature_cols]
    cells = (float(row[col]) for row in table.rows for col in idx)
    try:
        out = np.fromiter(cells, dtype=np.float64, count=table.n_rows * len(idx))
        if np.isfinite(out).all():
            return out.reshape(table.n_rows, len(idx))
    except ValueError:
        pass
    # error path: report the first offending cell in row-major order
    for i, row in enumerate(table.rows):
        for j, col in enumerate(idx):
            cell = row[col]
            where = f"in row {i + 2}, column {feature_cols[j]!r}"
            if cell == "":
                raise DataError(f"{table.path}: missing value {where}")
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(f"{table.path}: non-numeric cell {cell!r} {where}") from exc
            if not np.isfinite(value):
                raise DataError(f"{table.path}: non-finite cell {cell!r} {where}")
    raise AssertionError("unreachable: a cell failed to parse but none was found")


def _encode_target(table: RawTable, target_col: str, kind: str) -> tuple[np.ndarray, str, list[str]]:
    col = table.columns.index(target_col)
    raw = [row[col] for row in table.rows]
    for i, cell in enumerate(raw):
        if cell == "":
            raise DataError(f"{table.path}: missing target value in row {i + 2}")
    if kind == IRIS:
        classes = sorted(set(raw))
        mapping = {name: i for i, name in enumerate(classes)}
        y = np.array([mapping[v] for v in raw], dtype=np.int64)
        if len(classes) == 2:
            return y, BINARY, classes
        return y, MULTICLASS, classes
    try:
        values = np.array([float(v) for v in raw])
    except ValueError as exc:
        raise DataError(
            f"{table.path}: target column {target_col!r} must be numeric for {kind}"
        ) from exc
    if kind == WINE:
        y = (values >= WINE_QUALITY_THRESHOLD).astype(np.int64)
        return y, BINARY, ["low", "high"]
    # heart: already coded 0/1
    y = values.astype(np.int64)
    if not np.isin(y, (0, 1)).all() or not np.all(values == y):
        raise DataError(f"{table.path}: {kind} target column {target_col!r} must contain only 0/1")
    return y, BINARY, ["absent", "present"]


def train_test_split(
    y: np.ndarray, split: SplitSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (stratified) train/test index split over len(y) rows."""
    n = len(y)
    n_test = int(round(n * split.test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise DataError(f"cannot split {n} rows with test_fraction {split.test_fraction}")
    rng = np.random.default_rng([split.seed, 11])
    stratified = split.stratified
    if stratified:
        _, counts = np.unique(y, return_counts=True)
        if counts.min() < 2:
            warnings.warn("a class has fewer than 2 members; falling back to unstratified split")
            stratified = False
    if not stratified:
        perm = rng.permutation(n)
        return np.sort(perm[n_test:]), np.sort(perm[:n_test])
    test_parts: list[np.ndarray] = []
    # largest-remainder allocation keeps the test set at exactly n_test rows
    classes = np.unique(y)
    shares = [(len(np.flatnonzero(y == c)) * split.test_fraction, c) for c in classes]
    base = {c: int(np.floor(s)) for s, c in shares}
    remainder = n_test - sum(base.values())
    order = sorted(shares, key=lambda sc: (-(sc[0] - np.floor(sc[0])), sc[1]))
    for s, c in order[:remainder]:
        base[c] += 1
    for c in classes:
        members = np.flatnonzero(y == c)
        perm = members[rng.permutation(len(members))]
        test_parts.append(perm[: base[c]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def fit_scaler(x_train: np.ndarray) -> Scaler:
    """Mean/std over training rows; constant features keep std 1 with a warning."""
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    if (std == 0.0).any():
        warnings.warn("constant feature detected; using std=1 for standardization")
        std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean, std)


def preprocess(
    table: RawTable,
    kind: str,
    split: SplitSpec,
    target_col: str | None = None,
    iris_binary: bool = False,
) -> Dataset:
    """Encode the target, split train/test, and z-score features on the train split."""
    if kind not in DATASET_KINDS:
        raise DataError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    target = target_col or DEFAULT_TARGETS[kind]
    if target not in table.columns:
        raise DataError(
            f"target column {target!r} not in CSV columns {table.columns}; use --target-col"
        )
    feature_names = [c for c in table.columns if c != target]
    if not feature_names:
        raise DataError("no feature columns left after removing the target")
    x = _parse_feature_matrix(table, feature_names)
    y, task, class_names = _encode_target(table, target, kind)
    if kind == IRIS and iris_binary:
        if len(class_names) < 2:
            raise DataError("iris_binary needs at least two classes")
        keep = np.flatnonzero(y <= 1)
        x, y = x[keep], y[keep]
        class_names = class_names[:2]
        task = BINARY
    train_idx, test_idx = train_test_split(y, split)
    scaler = fit_scaler(x[train_idx])
    return Dataset(
        X=scaler.transform(x),
        y=y,
        feature_names=feature_names,
        task=task,
        scaler=scaler,
        train_idx=train_idx,
        test_idx=test_idx,
        class_names=class_names,
    )


def load_dataset(
    csv_path: str | Path,
    kind: str,
    split: SplitSpec | None = None,
    target_col: str | None = None,
    iris_binary: bool = False,
) -> Dataset:
    table = load_csv(csv_path)
    return preprocess(table, kind, split or SplitSpec(), target_col, iris_binary)
