import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HEART_COLUMNS, WINE_COLUMNS, synthetic_heart_rows, synthetic_wine_rows, write_csv
from fednam.data import (
    DEFAULT_TARGETS,
    HEART,
    IRIS,
    WINE,
    RawTable,
    SplitSpec,
    fit_scaler,
    load_csv,
    load_dataset,
    preprocess,
    train_test_split,
)
from fednam.errors import ConfigError, DataError
from fednam.nn import BINARY, MULTICLASS


class TestLoadCsv:
    def test_iris_dimensions(self, iris_csv):
        table = load_csv(iris_csv)
        assert (table.n_rows, len(table.columns)) == (150, 5)

    def test_heart_dimensions(self, heart_csv):
        table = load_csv(heart_csv)
        assert (table.n_rows, len(table.columns)) == (1025, 14)

    def test_wine_dimensions(self, wine_csv):
        table = load_csv(wine_csv)
        assert (table.n_rows, len(table.columns)) == (1599, 12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_semicolon_sniffing(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text('"fixed acidity";"quality"\n7.4;5\n7.8;6\n')
        table = load_csv(path)
        assert table.columns == ["fixed acidity", "quality"]
        assert table.n_rows == 2


# the table every accepted spelling below stands for: features a, b and a 0/1 target
INGEST_ROWS = [(1.5, -2.0, 0), (10.0, 0.25, 1), (3.0, 4.0, 0), (-0.5, 1e-3, 1),
               (2.0, 7.5, 0), (6.25, -1.0, 1), (8.0, 0.0, 0), (0.125, 3.0, 1)]


def write_text(path: Path, text: str) -> Path:
    with open(path, "w", newline="") as f:
        f.write(text)
    return path


def clean_text(rows, columns=("a", "b", "target")) -> str:
    return "\n".join([",".join(columns)] + [",".join(repr(v) for v in r) for r in rows]) + "\n"


def same_dataset(a, b) -> bool:
    """Bit-equality of everything preprocess derives from a table."""
    arrays = [(a.X_train, b.X_train), (a.y_train, b.y_train), (a.X_test, b.X_test),
              (a.y_test, b.y_test), (a.scaler.mean, b.scaler.mean), (a.scaler.std, b.scaler.std)]
    return all(same_array(u, v) for u, v in arrays) and (a.feature_names, a.n_classes, a.task) == (
               b.feature_names, b.n_classes, b.task)


def same_array(u: np.ndarray, v: np.ndarray) -> bool:
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


ACCEPTED_SPELLINGS = {
    "semicolon_quoted_header": '"a";"b";"target"\n' + "".join(
        f"{r[0]};{r[1]};{r[2]}\n" for r in INGEST_ROWS),
    "padded_cells": "a , b ,target\n" + "".join(
        f" {r[0]} ,\t{r[1]}\t, {r[2]}\n" for r in INGEST_ROWS),
    "blank_and_whitespace_lines": "a,b,target\n\n" + "".join(
        f"{r[0]},{r[1]},{r[2]}\n" + ("   \n" if i % 3 == 0 else "\n" if i % 3 == 1 else "")
        for i, r in enumerate(INGEST_ROWS)),
    "quoted_numbers": "a,b,target\n" + "".join(
        f'"{r[0]}","{r[1]}",{r[2]}\n' for r in INGEST_ROWS),
    "crlf_and_exponents": "a,b,target\r\n" + "".join(
        f"{r[0]:.3e},{r[1]:E},{r[2]}\r\n" for r in INGEST_ROWS),
    # float() reads digit-group underscores; a C number parser does not
    "underscore_digits": "a,b,target\n" + "".join(
        f"{'1_0' if r[0] == 10.0 else r[0]},{r[1]},{r[2]}\n" for r in INGEST_ROWS),
    # a UTF-8 byte-order mark, as spreadsheet exports write, is not part of the first name
    "utf8_bom": "\ufeffa,b,target\n" + "".join(f"{r[0]},{r[1]},{r[2]}\n" for r in INGEST_ROWS),
}


class TestIngestionRules:
    """What `load_csv` + `preprocess` accept and how they fail, one rule per test."""

    @pytest.mark.parametrize("spelling", sorted(ACCEPTED_SPELLINGS))
    def test_accepted_spelling_reads_as_the_clean_table(self, tmp_path, spelling):
        split = SplitSpec(test_fraction=0.25, seed=2)
        clean = load_dataset(write_text(tmp_path / "clean.csv", clean_text(INGEST_ROWS)), HEART, split)
        path = write_text(tmp_path / "messy.csv", ACCEPTED_SPELLINGS[spelling])
        assert load_csv(path).n_rows == len(INGEST_ROWS)
        assert same_dataset(load_dataset(path, HEART, split), clean)

    def test_plain_numbers_are_read_as_one_float_matrix(self, tmp_path):
        plain = load_csv(write_text(tmp_path / "plain.csv", ACCEPTED_SPELLINGS["padded_cells"]))
        assert plain.values.shape == (len(INGEST_ROWS), 3)
        assert plain.values.tobytes() == np.array(INGEST_ROWS, dtype=np.float64).tobytes()
        # quoted cells take the row scan, which keeps the stripped string cells
        quoted = load_csv(write_text(tmp_path / "quoted.csv", ACCEPTED_SPELLINGS["quoted_numbers"]))
        assert quoted.values is None
        assert quoted.rows[0] == ["1.5", "-2.0", "0"]

    @pytest.mark.parametrize(
        "text,message",
        [("a,b,target\n1,2,0\n3,1\n", "line 3 has 2 cells, expected 3"),
         ("a,b,target\n1,2,0\n3,4,1,5\n", "line 3 has 4 cells, expected 3"),
         ("a,b\n1,2,3\n4,5,6\n", "line 2 has 3 cells, expected 2"),
         ("a,b,target\n", "no data rows"),
         ("a,b,target\n\n  \n", "no data rows")],
        ids=["short_row", "long_row", "every_row_wider", "header_only", "header_and_blank_lines"],
    )
    def test_table_shape_errors_name_the_file(self, tmp_path, text, message):
        path = write_text(tmp_path / "t.csv", text)
        with pytest.raises(DataError) as info:
            load_dataset(path, HEART)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header,name", [("a,a,target", "a"), ('b," b ",target', "b"),
                                             ("a,target,target", "target")])
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        path = write_text(tmp_path / "t.csv", f"{header}\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: duplicate column name {name!r}"

    @pytest.mark.parametrize(
        "cell,message",
        [("", "missing value"), ("x", "non-numeric cell 'x'"), ("nan", "non-finite cell 'nan'"),
         (" inf ", "non-finite cell 'inf'"), ("-Infinity", "non-finite cell '-Infinity'"),
         ("1e999", "non-finite cell '1e999'")],
        ids=["missing", "non_numeric", "nan", "inf", "minus_infinity", "overflow"],
    )
    def test_bad_cell_names_file_row_and_column(self, tmp_path, cell, message):
        path = write_text(tmp_path / "t.csv", f"a,b,target\n1,2,0\n\n3,{cell},1\n4,5,0\n")
        with pytest.raises(DataError) as info:
            load_dataset(path, HEART)
        # the row is the file line, blank lines included
        assert str(info.value) == f"{path}: {message} in row 4, column 'b'"

    @pytest.mark.parametrize(
        "text,message",
        [('a,b,target\n1,"2\n",0\n3,x,1\n', "non-numeric cell 'x' in row 4, column 'b'"),
         ('a,b,target\n1,"2\n",0\n3,1\n', "line 4 has 2 cells, expected 3"),
         ('"a\n",b,target\n1,2,0\n3,x,1\n', "non-numeric cell 'x' in row 4, column 'b'")],
        ids=["cell_spans_lines", "ragged_after_a_cell_that_spans_lines", "header_spans_lines"],
    )
    def test_rows_are_numbered_by_the_line_they_start_on(self, tmp_path, text, message):
        """A quoted cell may hold a line break: the rows after it keep their file lines."""
        path = write_text(tmp_path / "t.csv", text)
        with pytest.raises(DataError) as info:
            load_dataset(path, HEART)
        assert str(info.value) == f"{path}: {message}"

    def test_non_numeric_wine_target(self, tmp_path):
        path = write_text(tmp_path / "w.csv", "a,quality\n1,5\n2,good\n3,6\n")
        with pytest.raises(DataError) as info:
            load_dataset(path, WINE)
        assert str(info.value) == f"{path}: non-numeric cell 'good' in row 3, column 'quality'"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_wine_target_names_file_line_and_column(self, tmp_path, cell):
        path = write_text(tmp_path / "w.csv", f"a,quality\n1,5\n\n2,6\n3,{cell}\n")
        with pytest.raises(DataError) as info:
            load_dataset(path, WINE)
        assert str(info.value) == f"{path}: non-finite cell '{cell}' in row 5, column 'quality'"

    def test_missing_iris_target_names_file_line_and_column(self, tmp_path):
        path = write_text(tmp_path / "i.csv", "x,species\n1,a\n\n2,\n3,b\n")
        with pytest.raises(DataError) as info:
            load_dataset(path, IRIS)
        assert str(info.value) == f"{path}: missing value in row 4, column 'species'"

    @pytest.mark.parametrize(
        "labels,class_names",
        [(["b", "c", "a"], ["a", "b", "c"]), (["2", "1.0", " 1"], ["1", "1.0", "2"])],
        ids=["names", "numeric_codes"],
    )
    def test_iris_class_names_are_the_cell_texts(self, tmp_path, labels, class_names):
        rows = [f"{i}.5,{i % 4},{labels[i % 3]}\n" for i in range(9)]
        path = write_text(tmp_path / "i.csv", "x1,x2,species\n" + "".join(rows))
        dataset = load_dataset(path, IRIS)
        assert dataset.n_classes == 3
        expected = np.array([class_names.index(labels[i % 3].strip()) for i in range(9)])
        train, test = train_test_split(expected, SplitSpec())
        assert dataset.y_train.tolist() == expected[train].tolist()
        assert dataset.y_test.tolist() == expected[test].tolist()
        assert dataset.task == MULTICLASS

    def test_iris_table_read_as_numbers_is_refused_naming_the_file(self, tmp_path):
        """Numeric class codes let NumPy read the table, which keeps no cell texts."""
        path = write_text(tmp_path / "i.csv", "x,species\n" + "".join(f"{i}.5,{i % 3}\n" for i in range(6)))
        table = load_csv(path)
        assert table.rows is None
        with pytest.raises(DataError) as info:
            preprocess(table, IRIS, SplitSpec())
        assert str(info.value) == f"{path}: read an iris table with as_text=True"
        assert load_dataset(path, IRIS).n_classes == 3

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_spelling_of_a_finite_table_reads_like_float(self, tmp_path_factory, data):
        """Random padding, exponents, quotes, CRLF and blank lines read as float() reads
        each stripped cell, bit for bit, through every step of preprocess."""
        n_rows = data.draw(st.integers(5, 30))
        n_features = data.draw(st.integers(1, 4))
        value = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
        spell = st.sampled_from(["{!r}", "{:.17g}", "{:.6g}", "{:.3e}", "{:.10E}", "{:.4f}"])
        pad = st.sampled_from(["", " ", "  ", "\t"])
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        delim = data.draw(st.sampled_from([",", ";"]))
        columns = [f"f{j}" for j in range(n_features)] + ["target"]
        header = delim.join(f'"{c}"' if delim == ";" else c for c in columns)
        lines, table = [header], []
        for i in range(n_rows):
            cells, row = [], []
            for _ in range(n_features):
                text = data.draw(spell).format(data.draw(value))
                row.append(float(text))
                if data.draw(st.booleans()):
                    text = data.draw(pad) + text + data.draw(pad)
                if data.draw(st.integers(0, 9)) == 0:
                    text = f'"{text}"'
                cells.append(text)
            row.append(i % 2)
            cells.append(str(i % 2))
            table.append(row)
            lines.append(delim.join(cells))
            if data.draw(st.integers(0, 4)) == 0:
                lines.append(data.draw(st.sampled_from(["", " ", "\t "])))
        work = tmp_path_factory.mktemp("spelling")
        messy = write_text(work / "messy.csv", newline.join(lines) + newline)
        clean = write_text(work / "clean.csv", clean_text(table, columns))
        split = SplitSpec(seed=data.draw(st.integers(0, 99)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant features, tiny classes
            assert same_dataset(load_dataset(messy, HEART, split), load_dataset(clean, HEART, split))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_text_scan_and_numpy_read_the_same_features(self, tmp_path_factory, data):
        """An iris table is scanned as strings and a numeric heart table read by NumPy:
        the same finite feature cells give bit-identical splits either way."""
        n_rows = data.draw(st.integers(6, 30))
        n_features = data.draw(st.integers(1, 4))
        value = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
        spell = st.sampled_from(["{!r}", "{:.17g}", "{:.6g}", "{:.3e}", "{:.10E}", "{:.4f}"])
        cells = [[data.draw(spell).format(data.draw(value)) for _ in range(n_features)]
                 for _ in range(n_rows)]
        header = ",".join(f"f{j}" for j in range(n_features))
        work = tmp_path_factory.mktemp("readers")
        paths = {}
        for kind, target in ((IRIS, "species"), (HEART, "target")):
            body = "".join(",".join(row) + f",{i % 2}\n" for i, row in enumerate(cells))
            paths[kind] = write_text(work / f"{kind}.csv", f"{header},{target}\n{body}")
        assert load_csv(paths[HEART]).values is not None  # NumPy's reader took it
        split = SplitSpec(seed=data.draw(st.integers(0, 99)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant features
            scanned = load_dataset(paths[IRIS], IRIS, split)
            parsed = load_dataset(paths[HEART], HEART, split)
        assert same_dataset(scanned, parsed)


class TestPreprocess:
    def test_wine_binarization_rule(self, tmp_path):
        rows = [[7.0, 0.5, 0.2, 2.0, 0.08, 15, 50, 0.996, 3.3, 0.6, 9.8, q]
                for q in (3, 4, 5, 6, 7, 8)]
        path = write_csv(tmp_path / "w.csv", WINE_COLUMNS, rows)
        split = SplitSpec(test_fraction=0.34, seed=0)
        dataset = load_dataset(path, WINE, split)
        expected = (np.array([3, 4, 5, 6, 7, 8]) >= 6).astype(int)
        train, test = train_test_split(expected, split)
        assert np.array_equal(dataset.y_train, expected[train])
        assert np.array_equal(dataset.y_test, expected[test])
        assert dataset.task == BINARY

    def test_wine_label_balance_on_real_file(self, wine_csv):
        dataset = load_dataset(wine_csv, WINE)
        positive = np.concatenate([dataset.y_train, dataset.y_test]).mean()
        assert 0.50 <= positive <= 0.57  # ~53% of red wines rate quality >= 6

    def test_iris_labels(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS)
        assert dataset.task == MULTICLASS
        values, counts = np.unique(np.concatenate([dataset.y_train, dataset.y_test]),
                                   return_counts=True)
        assert list(values) == [0, 1, 2]
        assert list(counts) == [50, 50, 50]
        assert dataset.n_classes == 3

    def test_iris_binary_subset(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS, iris_binary=True)
        assert dataset.task == BINARY
        y = np.concatenate([dataset.y_train, dataset.y_test])
        assert len(y) == 100
        assert set(y) == {0, 1}
        assert dataset.n_classes == 2

    def test_standardization_on_train_split(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS)
        train = dataset.X_train
        assert np.all(np.abs(train.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(train.std(axis=0) - 1.0) <= 1e-6)

    def test_unknown_kind(self, iris_csv):
        with pytest.raises(DataError, match="^unknown dataset kind 'cats'; expected one of"):
            preprocess(load_csv(iris_csv), "cats", SplitSpec())

    def test_unknown_target_column(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "b"], [[1, 0], [2, 1]])
        with pytest.raises(DataError, match="target-col"):
            load_dataset(path, HEART)

    def test_target_col_override(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "label"],
                         [[1, 0], [2, 1], [3, 0], [4, 1], [5, 0],
                          [6, 1], [7, 0], [8, 1], [9, 0], [10, 1]])
        dataset = load_dataset(path, HEART, target_col="label")
        assert dataset.feature_names == ["a"]
        assert dataset.task == BINARY

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "target"], [["x", 0], [2, 1]])
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(path, HEART)

    def test_missing_feature_value_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "b", "target"], [[1, 2, 0], [3, "", 1]])
        with pytest.raises(DataError, match="missing value in row 3, column 'b'"):
            load_dataset(path, HEART)

    def test_missing_target_value_names_file_and_row(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "target"], [[1, 0], [2, ""], [3, 1]])
        with pytest.raises(DataError) as info:
            load_dataset(path, HEART)
        assert str(info.value) == f"{path}: missing value in row 3, column 'target'"

    def test_heart_target_must_be_binary(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "target"], [[1, 2], [2, 1]])
        with pytest.raises(DataError, match="0/1"):
            load_dataset(path, HEART)

    def test_constant_feature_warns(self, tmp_path):
        rows = [[5, i % 2] for i in range(20)]
        path = write_csv(tmp_path / "c.csv", ["a", "target"], rows)
        with pytest.warns(UserWarning, match=r"constant feature \['a'\]: using std=1"):
            dataset = load_dataset(path, HEART)
        assert np.all(dataset.X_train == 0.0) and np.all(dataset.X_test == 0.0)

    def test_constant_feature_with_inexact_mean_warns(self, tmp_path, iris_csv):
        """A constant 0.2 has a mean that is not exactly 0.2, so its std is
        rounding noise (4.4e-16 on iris), not 0."""
        header, *rows = [line.split(",") for line in Path(iris_csv).read_text().splitlines()]
        for row in rows:
            row[header.index("petal_width")] = "0.2"
        path = write_csv(tmp_path / "iris.csv", header, rows)
        with pytest.warns(UserWarning, match="constant feature"):
            dataset = load_dataset(path, IRIS)
        assert dataset.scaler.std[3] == 1.0
        assert np.all(np.abs(dataset.X_train[:, 3]) < 1e-15)
        assert np.all(np.abs(dataset.X_test[:, 3]) < 1e-15)

    def test_column_whose_std_underflows_is_constant(self, tmp_path, iris_csv):
        """Cells 0 and 5e-324 differ, but their deviations square to 0: a std
        of 0 makes the column constant, not too large to standardize."""
        header, *rows = [line.split(",") for line in Path(iris_csv).read_text().splitlines()]
        for i, row in enumerate(rows):
            row[0] = "5e-324" if i % 2 else "0"
        path = write_csv(tmp_path / "iris.csv", header, rows)
        with pytest.warns(UserWarning, match=r"constant feature \['sepal_length'\]: using std=1"):
            dataset = load_dataset(path, IRIS)
        assert dataset.scaler.std[0] == 1.0
        assert np.isfinite(dataset.X_train).all() and np.isfinite(dataset.X_test).all()

    def test_peak_memory_is_about_two_tables(self):
        """The feature columns are gathered into the two splits, then dropped,
        and each split is standardized in place: no third copy is held."""
        rng = np.random.default_rng(3)
        values = np.column_stack([rng.uniform(0.0, 15.0, size=(50_000, 11)),
                                  rng.integers(3, 9, size=50_000)])
        table = RawTable(WINE_COLUMNS, "wine.csv", values=values)
        tracemalloc.start()
        try:
            preprocess(table, WINE, SplitSpec(seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the table"


TOO_LARGE = {
    "alternating": lambda i: "1e308" if i % 2 else "-1e308",  # the std overflows
    "constant": lambda i: "1e308",  # the mean overflows
    "growing": lambda i: repr(1e200 * i),  # the std overflows; the mean does not
}


class TestTooLargeToStandardize:
    @pytest.mark.parametrize("case", sorted(TOO_LARGE))
    def test_column_names_file_and_column(self, tmp_path, iris_csv, case):
        """Each cell is finite, but a z-score of the column is not: a data error, and no
        NumPy warning on the way."""
        header, *rows = [line.split(",") for line in Path(iris_csv).read_text().splitlines()]
        rows = [[TOO_LARGE[case](i)] + row[1:] for i, row in enumerate(rows, start=1)]
        path = write_csv(tmp_path / "huge.csv", header, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the constant case is a constant feature
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError) as info:
                load_dataset(path, IRIS)
        assert str(info.value) == f"{path}: column 'sepal_length' is too large to standardize"


def whole_table_arrays(path: Path, kind: str, iris_binary: bool = False):
    """The features and encoded labels of every row, read apart from preprocess."""
    table = load_csv(path, as_text=True)
    target = table.columns.index(DEFAULT_TARGETS[kind])
    x = np.array([row[:target] + row[target + 1:] for row in table.rows], dtype=np.float64)
    labels = [row[target] for row in table.rows]
    if kind == IRIS:
        y = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        if iris_binary:
            x, y = x[y <= 1], y[y <= 1]
    elif kind == WINE:
        y = (np.array(labels, dtype=np.float64) >= 6).astype(np.int64)
    else:
        y = np.array(labels, dtype=np.float64).astype(np.int64)
    return x, y, [c for c in table.columns if c != DEFAULT_TARGETS[kind]]


class TestSplitArrays:
    def test_each_split_is_one_array(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS)
        for name in ("X_train", "y_train", "X_test", "y_test"):
            assert getattr(dataset, name) is getattr(dataset, name)

    @pytest.mark.parametrize("table", ["heart", "wine", "iris_binary"])
    def test_splits_are_the_standardized_table_gathered(self, tmp_path, iris_csv, table):
        """Each split is bit-equal to the whole table standardized by the training
        rows' scaler, then gathered by the split's indices."""
        if table == "heart":
            path = write_csv(tmp_path / "heart.csv", HEART_COLUMNS, synthetic_heart_rows(1025, 3))
            kind, iris_binary = HEART, False
        elif table == "wine":
            path = write_csv(tmp_path / "wine.csv", WINE_COLUMNS, synthetic_wine_rows(1599, 3))
            kind, iris_binary = WINE, False
        else:
            path, kind, iris_binary = iris_csv, IRIS, True
        split = SplitSpec(seed=4)
        dataset = load_dataset(path, kind, split, iris_binary=iris_binary)
        x, y, names = whole_table_arrays(path, kind, iris_binary)
        train, test = train_test_split(y, split)
        scaler = fit_scaler(x[train], names)
        z = (x - scaler.mean) / scaler.std
        assert same_array(dataset.X_train, z[train])
        assert same_array(dataset.y_train, y[train])
        assert same_array(dataset.X_test, z[test])
        assert same_array(dataset.y_test, y[test])


class TestSplits:
    def test_iris_stratified_counts(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS, SplitSpec(test_fraction=0.2, seed=0))
        assert len(dataset.y_train) == 120 and len(dataset.y_test) == 30
        _, counts = np.unique(dataset.y_test, return_counts=True)
        assert list(counts) == [10, 10, 10]

    def test_deterministic_and_disjoint(self):
        y = np.array([0, 1] * 50)
        a_train, a_test = train_test_split(y, SplitSpec(seed=7))
        b_train, b_test = train_test_split(y, SplitSpec(seed=7))
        assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
        union = np.sort(np.concatenate([a_train, a_test]))
        assert np.array_equal(union, np.arange(100))

    def test_small_class_falls_back_unstratified(self):
        y = np.array([0] * 9 + [1])
        with pytest.warns(UserWarning, match="unstratified"):
            train, test = train_test_split(y, SplitSpec(test_fraction=0.2, seed=1))
        assert len(train) + len(test) == 10

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_test_split_has_round_n_times_fraction_rows(self, data):
        n = data.draw(st.integers(2, 400))
        fraction = data.draw(st.floats(0.01, 0.99))
        assume(1 <= round(n * fraction) <= n - 1)
        y = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        split = SplitSpec(test_fraction=fraction, stratified=data.draw(st.booleans()),
                          seed=data.draw(st.integers(0, 2**32 - 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a 1-member class falls back to unstratified
            train, test = train_test_split(y, split)
        assert len(test) == round(n * fraction)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitSpec(val_fraction=1.0)


class TestNoLeakage:
    def test_scaler_ignores_test_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [[float(rng.normal()), float(rng.normal()), int(i % 2)] for i in range(60)]
        path = write_csv(tmp_path / "d.csv", ["f1", "f2", "target"], rows)
        base = load_dataset(path, HEART, SplitSpec(seed=5))

        # corrupt the feature cells of every test row; labels untouched so the
        # seeded split comes out identical
        _, test_idx = train_test_split(np.array([row[2] for row in rows]), SplitSpec(seed=5))
        for i in test_idx:
            rows[int(i)][0] = 1e6
            rows[int(i)][1] = -1e6
        path2 = write_csv(tmp_path / "d2.csv", ["f1", "f2", "target"], rows)
        perturbed = load_dataset(path2, HEART, SplitSpec(seed=5))

        assert np.array_equal(base.y_train, perturbed.y_train)
        assert np.array_equal(base.scaler.mean, perturbed.scaler.mean)
        assert np.array_equal(base.scaler.std, perturbed.scaler.std)
        assert np.array_equal(base.X_train, perturbed.X_train)

    def test_fit_scaler_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(200, 3))
        scaler = fit_scaler(x, ["a", "b", "c"])
        z = (x - scaler.mean) / scaler.std
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)
        assert np.allclose(z * scaler.std + scaler.mean, x)
