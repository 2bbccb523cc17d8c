import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import loop_midranks, pairwise_auc
from fednam.errors import ShapeMismatchError
from fednam.metrics import _midranks, accuracy, compute_metrics, macro_ovr_auc, roc_auc
from fednam.nn import BINARY, MULTICLASS


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.8, 0.9, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == 1.0

    def test_three_of_four_pairs(self):
        scores = np.array([0.9, 0.4, 0.5, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == 0.75

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        assert roc_auc(scores, labels) == 0.5

    def test_single_class_nan_with_warning(self):
        with pytest.warns(UserWarning):
            value = roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))
        assert math.isnan(value)

    def test_matches_pairwise_oracle_on_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 2)
            assert roc_auc(scores, labels) == pairwise_auc(scores, labels)


# few distinct values, signed zeros among them, so most scores tie
tied_scores = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0]),
                       min_size=2, max_size=60)


@given(tied_scores, st.data())
@settings(max_examples=300, deadline=None)
def test_flipped_labels_give_one_minus_auc(scores, data):
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                         max_size=len(scores))))
    labels[0], labels[1] = 0, 1  # both classes present
    scores = np.array(scores)
    assert abs(roc_auc(scores, 1 - labels) - (1.0 - roc_auc(scores, labels))) <= 1e-12


@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -np.inf, np.inf]),
                          st.floats(-3, 3, allow_nan=False)), max_size=80))
@settings(max_examples=300, deadline=None)
def test_midranks_equal_block_by_block_ranks(values):
    values = np.array(values, dtype=np.float64)
    assert _midranks(values).tobytes() == loop_midranks(values).tobytes()


class TestAccuracy:
    def test_binary_threshold(self):
        probs = np.array([[0.9], [0.4], [0.5], [0.2]])
        labels = np.array([1, 0, 1, 0])
        assert accuracy(probs, labels, BINARY) == 1.0

    def test_all_correct(self):
        probs = np.array([[0.1, 0.9], [0.8, 0.2]])
        labels = np.array([1, 0])
        assert accuracy(probs, labels, MULTICLASS) == 1.0

    def test_custom_threshold(self):
        probs = np.array([[0.4]])
        labels = np.array([1])
        assert accuracy(probs, labels, BINARY, threshold=0.3) == 1.0
        assert accuracy(probs, labels, BINARY, threshold=0.5) == 0.0


    @pytest.mark.parametrize("task,shape", [(BINARY, (4,)), (BINARY, (4, 2)), (BINARY, (3, 1)),
                                            (MULTICLASS, (4,)), (MULTICLASS, (3, 2))])
    def test_other_shapes_rejected(self, task, shape):
        """A binary task reads the (n, 1) column cross_entropy returns, and
        nothing else; every task needs one row per label."""
        for score in (accuracy, compute_metrics):
            with pytest.raises(ShapeMismatchError, match="do not align with 4 labels"):
                score(np.full(shape, 0.5), np.array([1, 0, 1, 0]), task)


@pytest.mark.parametrize("call,error,message", [
    (lambda: roc_auc(np.zeros(3), np.array([0, 1])), ShapeMismatchError,
     r"^scores \(3,\) and labels \(2,\) do not align$"),
    (lambda: macro_ovr_auc(np.full((3, 2), 0.5), np.array([0, 1])), ShapeMismatchError,
     r"^probabilities must be \(n, C\) aligned with labels$"),
    (lambda: accuracy(np.full((2, 2), 0.5), np.array([0, 1]), "regression"), ValueError,
     "^unknown task 'regression'$"),
], ids=["roc_auc_misaligned", "macro_auc_misaligned", "unknown_task"])
def test_bad_score_inputs_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestMacroAuc:
    def test_matches_manual_ovr(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=60)
        labels = rng.integers(0, 3, size=60)
        expected = np.mean(
            [pairwise_auc(probs[:, c], (labels == c).astype(int)) for c in range(3)]
        )
        assert macro_ovr_auc(probs, labels) == pytest.approx(expected, abs=1e-12)

    def test_single_class_nan_with_warning(self):
        probs = np.random.default_rng(5).dirichlet(np.ones(3), size=4)
        with pytest.warns(UserWarning, match="single-class label set"):
            value = macro_ovr_auc(probs, np.full(4, 2))
        assert math.isnan(value)


def test_compute_metrics_bundle():
    probs = np.array([[0.9], [0.8], [0.3], [0.1]])
    labels = np.array([1, 1, 0, 0])
    out = compute_metrics(probs, labels, BINARY)
    assert out["accuracy"] == 1.0 and out["auc"] == 1.0
