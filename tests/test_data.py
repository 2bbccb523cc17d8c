import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import WINE_COLUMNS, write_csv
from fednam.data import (
    HEART,
    IRIS,
    WINE,
    SplitSpec,
    fit_scaler,
    load_csv,
    load_dataset,
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


class TestPreprocess:
    def test_wine_binarization_rule(self, tmp_path):
        rows = [[7.0, 0.5, 0.2, 2.0, 0.08, 15, 50, 0.996, 3.3, 0.6, 9.8, q]
                for q in (3, 4, 5, 6, 7, 8)]
        path = write_csv(tmp_path / "w.csv", WINE_COLUMNS, rows)
        dataset = load_dataset(path, WINE, SplitSpec(test_fraction=0.34, seed=0))
        quality = np.array([3, 4, 5, 6, 7, 8])
        assert np.array_equal(dataset.y, (quality >= 6).astype(int))
        assert dataset.task == BINARY

    def test_wine_label_balance_on_real_file(self, wine_csv):
        dataset = load_dataset(wine_csv, WINE)
        positive = dataset.y.mean()
        assert 0.50 <= positive <= 0.57  # ~53% of red wines rate quality >= 6

    def test_iris_labels(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS)
        assert dataset.task == MULTICLASS
        values, counts = np.unique(dataset.y, return_counts=True)
        assert list(values) == [0, 1, 2]
        assert list(counts) == [50, 50, 50]
        assert dataset.class_names == sorted(dataset.class_names)

    def test_iris_binary_subset(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS, iris_binary=True)
        assert dataset.task == BINARY
        assert len(dataset.y) == 100
        assert set(dataset.y) == {0, 1}

    def test_standardization_on_train_split(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS)
        train = dataset.X_train
        assert np.all(np.abs(train.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(train.std(axis=0) - 1.0) <= 1e-6)

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
        assert str(info.value) == f"{path}: missing target value in row 3"

    def test_heart_target_must_be_binary(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["a", "target"], [[1, 2], [2, 1]])
        with pytest.raises(DataError, match="0/1"):
            load_dataset(path, HEART)

    def test_constant_feature_warns(self, tmp_path):
        rows = [[5, i % 2] for i in range(20)]
        path = write_csv(tmp_path / "c.csv", ["a", "target"], rows)
        with pytest.warns(UserWarning, match="constant feature"):
            dataset = load_dataset(path, HEART)
        assert np.all(dataset.X == 0.0)


class TestSplits:
    def test_iris_stratified_counts(self, iris_csv):
        dataset = load_dataset(iris_csv, IRIS, SplitSpec(test_fraction=0.2, seed=0))
        assert len(dataset.train_idx) == 120 and len(dataset.test_idx) == 30
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
        for i in base.test_idx:
            rows[int(i)][0] = 1e6
            rows[int(i)][1] = -1e6
        path2 = write_csv(tmp_path / "d2.csv", ["f1", "f2", "target"], rows)
        perturbed = load_dataset(path2, HEART, SplitSpec(seed=5))

        assert np.array_equal(base.train_idx, perturbed.train_idx)
        assert np.array_equal(base.scaler.mean, perturbed.scaler.mean)
        assert np.array_equal(base.scaler.std, perturbed.scaler.std)
        assert np.array_equal(base.X_train, perturbed.X_train)

    def test_fit_scaler_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(200, 3))
        scaler = fit_scaler(x)
        z = scaler.transform(x)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)
        assert np.allclose(z * scaler.std + scaler.mean, x)
