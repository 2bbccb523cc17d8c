"""CSV ingestion, target encoding, z-score standardization, and splits.

Three tabular dataset kinds are understood out of the box:
  heart - binary target column "target" already coded 0/1
  wine  - red-wine quality column binarized at quality >= 6
  iris  - species names mapped to 3 integer classes (alphabetical order)
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DataError
from .nn import BINARY, MULTICLASS

HEART = "heart"
WINE = "wine"
IRIS = "iris"
DATASET_KINDS = (HEART, WINE, IRIS)

DEFAULT_TARGETS = {HEART: "target", WINE: "quality", IRIS: "species"}
WINE_QUALITY_THRESHOLD = 6

# rng derivation tag of the train/test split; federation.py names the others,
# and no two tags in the package share a value
_TAG_SPLIT = 11


@dataclass
class RawTable:
    """A parsed CSV: header names, the data cells as they were read, and the file.

    `values` holds every cell as a float when NumPy's parser read the table;
    else `rows` holds the stripped string cells and `lines` the file line each
    row starts on.
    """

    columns: list[str]
    path: str
    values: np.ndarray | None = None
    rows: list[list[str]] | None = field(default=None, repr=False)
    lines: list[int] | None = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        return len(self.values) if self.values is not None else len(self.rows)


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


@dataclass
class Dataset:
    """Standardized features and encoded labels of the train and test splits."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    feature_names: list[str]
    task: str
    n_classes: int
    scaler: Scaler


def _sniff_delimiter(header_line: str) -> str:
    # the upstream wine-quality file ships semicolon-separated
    if ";" in header_line and "," not in header_line:
        return ";"
    return ","


def load_csv(path: str | Path, as_text: bool = False) -> RawTable:
    """Parse a delimited file with a header row into a RawTable.

    Unless `as_text`, the data rows are read as floats by NumPy's C parser,
    which takes the same decimal strings as `float()` and rounds them the same
    way. A table read `as_text`, or one NumPy cannot read (quoted or
    non-numeric cells, blank-only lines, ragged rows, non-finite values), is
    read row by row as strings; ragged rows and files without data rows are
    rejected there, with the offending line number.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            first = f.readline()
            if not first.strip():
                raise DataError(f"{path}: empty file")
            delim = _sniff_delimiter(first)
            f.seek(0)
            columns = [c.strip().strip('"') for c in next(_records(f, str(path), delim))[1]]
            if len(set(columns)) < len(columns):  # a lookup by name reads only the first
                name = next(c for i, c in enumerate(columns) if c in columns[:i])
                raise DataError(f"{path}: duplicate column name {name!r}")
            values = None if as_text else _read_numbers(f, delim, len(columns))
            if values is not None:
                return RawTable(columns, str(path), values=values)
            f.seek(0)
            rows, lines = _scan_rows(f, str(path), delim, len(columns))
    except UnicodeDecodeError as exc:  # _read_numbers takes it for a non-numeric cell
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except FileNotFoundError as exc:
        raise DataError(f"CSV file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read CSV file {path}: {exc.strerror or exc}") from exc
    return RawTable(columns, str(path), rows=rows, lines=lines)


def _read_numbers(f, delim: str, width: int) -> np.ndarray | None:
    """The rest of an open CSV file as a (rows, width) float matrix, or None
    unless it has data rows, each of `width` finite numbers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file warns of empty input
            values = np.loadtxt(f, delimiter=delim, comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if values.shape[0] > 0 and values.shape[1] == width and np.isfinite(values).all():
        return values
    return None


def _records(f, path: str, delim: str):
    """The file line each record of an open CSV file starts on, and its cells;
    a record the csv module rejects, such as one with a cell over its field
    size limit, raises DataError."""
    reader = csv.reader(f, delimiter=delim)
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1  # a quoted cell may span lines
    except csv.Error as exc:  # the limit is process-wide, so it is left as it is
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc


def _scan_rows(f, path: str, delim: str, width: int) -> tuple[list[list[str]], list[int]]:
    """The stripped string cells of each data row of an open CSV file, and the
    file line it starts on.

    Blank and whitespace-only lines are skipped; a row of other than `width`
    cells, or a file without data rows, raises DataError.
    """
    records = _records(f, path, delim)
    next(records)  # the header
    rows: list[list[str]] = []
    lines: list[int] = []
    for lineno, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise DataError(f"{path}: line {lineno} has {len(row)} cells, expected {width}")
        rows.append([c.strip() for c in row])
        lines.append(lineno)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows, lines


def _numeric_columns(table: RawTable, columns: list[str]) -> np.ndarray:
    """The named columns as a (rows, K) float matrix; a missing, non-numeric or
    non-finite cell raises DataError naming its file line and column."""
    idx = [table.columns.index(c) for c in columns]
    if table.values is not None:
        return table.values[:, idx]
    try:
        cells = (float(row[col]) for row in table.rows for col in idx)
        out = np.fromiter(cells, np.float64, table.n_rows * len(idx))
        if np.isfinite(out).all():
            return out.reshape(table.n_rows, len(idx))
    except ValueError:
        pass
    _raise_first_bad_cell(table, columns)


def _raise_first_bad_cell(table: RawTable, columns: list[str]) -> NoReturn:
    """Raise DataError for the first missing, non-numeric or non-finite cell of
    the named columns, in row-major order."""
    for row, line in zip(table.rows, table.lines):
        for column in columns:
            cell = row[table.columns.index(column)]
            where = f"in row {line}, column {column!r}"
            if cell == "":
                raise DataError(f"{table.path}: missing value {where}")
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(f"{table.path}: non-numeric cell {cell!r} {where}") from exc
            if not math.isfinite(value):
                raise DataError(f"{table.path}: non-finite cell {cell!r} {where}")


def _encode_target(table: RawTable, target_col: str, kind: str) -> tuple[np.ndarray, str, int]:
    if kind == IRIS:
        if table.rows is None:
            raise DataError(f"{table.path}: read an iris table with as_text=True")
        col = table.columns.index(target_col)
        raw = [row[col] for row in table.rows]
        if "" in raw:
            line = table.lines[raw.index("")]
            raise DataError(f"{table.path}: missing value in row {line}, column {target_col!r}")
        classes = sorted(set(raw))
        mapping = {name: i for i, name in enumerate(classes)}
        y = np.array([mapping[v] for v in raw], dtype=np.int64)
        if len(classes) == 2:
            return y, BINARY, 2
        return y, MULTICLASS, len(classes)
    values = _numeric_columns(table, [target_col])[:, 0]
    if kind == WINE:
        y = (values >= WINE_QUALITY_THRESHOLD).astype(np.int64)
        return y, BINARY, 2
    # heart: already coded 0/1
    y = values.astype(np.int64)
    if not np.isin(y, (0, 1)).all() or not np.all(values == y):
        raise DataError(f"{table.path}: {kind} target column {target_col!r} must contain only 0/1")
    return y, BINARY, 2


def train_test_split(
    y: np.ndarray, split: SplitSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (stratified) train/test index split over len(y) rows."""
    n = len(y)
    n_test = int(round(n * split.test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise DataError(f"cannot split {n} rows with test_fraction {split.test_fraction}")
    rng = np.random.default_rng([split.seed, _TAG_SPLIT])
    stratified = split.stratified
    if stratified:
        classes, counts = np.unique(y, return_counts=True)
        if counts.min() < 2:
            warnings.warn("a class has fewer than 2 members; falling back to unstratified split")
            stratified = False
    if not stratified:
        perm = rng.permutation(n)
        return np.sort(perm[n_test:]), np.sort(perm[:n_test])
    test_parts: list[np.ndarray] = []
    # largest-remainder allocation keeps the test set at exactly n_test rows
    shares = [(int(count) * split.test_fraction, c) for c, count in zip(classes, counts)]
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


def fit_scaler(x_train: np.ndarray, feature_names: list[str]) -> Scaler:
    """Mean/std over training rows; constant features keep std 1 with a
    warning that names them.

    A feature is constant when its minimum equals its maximum, as its std can
    come out as rounding noise rather than 0, or when its std is 0: cells that
    differ by a subnormal amount have a spread that underflows when squared.
    """
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    constant = (x_train.min(axis=0) == x_train.max(axis=0)) | (std == 0.0)
    if constant.any():
        names = [name for name, flat in zip(feature_names, constant) if flat]
        warnings.warn(f"constant feature {names}: using std=1 for standardization")
        std = np.where(constant, 1.0, std)
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
    x = _numeric_columns(table, feature_names)
    y, task, n_classes = _encode_target(table, target, kind)
    if kind == IRIS and iris_binary:
        if n_classes < 2:
            raise DataError("iris_binary needs at least two classes")
        keep = np.flatnonzero(y <= 1)
        x, y = x[keep], y[keep]
        n_classes = 2
        task = BINARY
    train_idx, test_idx = train_test_split(y, split)
    x_train, x_test = x[train_idx], x[test_idx]
    del x  # each split is standardized in place, so no copy of the table outlives this
    with np.errstate(all="ignore"):  # an overflow is reported below, as a DataError
        scaler = fit_scaler(x_train, feature_names)
        for part in (x_train, x_test):  # (x - mean) / std, rounded the same way
            part -= scaler.mean
            part /= scaler.std
    # a finite mean and nonzero std bound training z-scores by sqrt(rows), not test ones
    finite = np.isfinite(scaler.mean) & np.isfinite(scaler.std) & np.isfinite(x_test).all(axis=0)
    if not finite.all():
        name = feature_names[int(np.argmin(finite))]
        raise DataError(f"{table.path}: column {name!r} is too large to standardize")
    return Dataset(
        X_train=x_train,
        y_train=y[train_idx],
        X_test=x_test,
        y_test=y[test_idx],
        feature_names=feature_names,
        task=task,
        n_classes=n_classes,
        scaler=scaler,
    )


def load_dataset(
    csv_path: str | Path,
    kind: str,
    split: SplitSpec | None = None,
    target_col: str | None = None,
    iris_binary: bool = False,
) -> Dataset:
    table = load_csv(csv_path, as_text=kind == IRIS)  # iris classes are the cell texts
    return preprocess(table, kind, split or SplitSpec(), target_col, iris_binary)
