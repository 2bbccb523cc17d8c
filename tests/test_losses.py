import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednam.errors import ShapeMismatchError
from _oracles import loss_and_grad, sigmoid, softmax, two_exp_batch_loss_and_grad
from fednam.nn import BINARY, LOGIT_CLAMP, MULTICLASS, batch_loss_and_grad, cross_entropy


class TestBinary:
    def test_logit_zero_target_one(self):
        loss, grad = loss_and_grad(np.array([0.0]), 1, BINARY)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad[0] == pytest.approx(-0.5, abs=1e-12)

    def test_logit_two_target_zero(self):
        loss, _ = loss_and_grad(np.array([2.0]), 0, BINARY)
        assert loss == pytest.approx(math.log(1.0 + math.exp(2.0)), abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss_and_grad(np.array([0.0]), 2, BINARY)

    def test_wrong_logit_count(self):
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(np.array([0.0, 1.0]), 0, BINARY)

    def test_extreme_logits_finite(self):
        loss, grad = loss_and_grad(np.array([1e6]), 0, BINARY)
        assert math.isfinite(loss) and math.isfinite(grad[0])


class TestMulticlass:
    def test_uniform_logits(self):
        loss, grad = loss_and_grad(np.zeros(3), 0, MULTICLASS)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)
        assert grad == pytest.approx(np.array([-2 / 3, 1 / 3, 1 / 3]), abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss_and_grad(np.zeros(3), 3, MULTICLASS)
        with pytest.raises(ValueError):
            loss_and_grad(np.zeros(3), -1, MULTICLASS)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(scale=5, size=4)
            loss, _ = loss_and_grad(z, int(rng.integers(0, 4)), MULTICLASS)
            assert loss >= 0.0


class TestBatch:
    def test_matches_per_example_mean(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(7, 3))
        y = rng.integers(0, 3, size=7)
        batch_loss, batch_grad = batch_loss_and_grad(z, y, MULTICLASS)
        per = [loss_and_grad(z[i], int(y[i]), MULTICLASS) for i in range(7)]
        assert batch_loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        stacked = np.stack([p[1] for p in per]) / 7
        assert np.allclose(batch_grad, stacked, atol=1e-15)

    def test_binary_column_shape(self):
        z = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        loss, grad = batch_loss_and_grad(z, y, BINARY)
        expected = 0.5 * (math.log(2.0) + math.log(1 + math.exp(2.0)))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert grad.shape == (2, 1)


class TestLabelChecks:
    @pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
    def test_binary_rejects(self, bad):
        with pytest.raises(ValueError, match=r"^binary targets must be 0 or 1$"):
            batch_loss_and_grad(np.zeros((3, 1)), np.array([0, 1, bad]), BINARY)

    @pytest.mark.parametrize(
        "labels", [[0, 1, 1], [0.0, 1.0, 1.0], [-0.0, 1.0, 1.0], [False, True, True]]
    )
    def test_binary_accepts_zero_and_one(self, labels):
        z = np.array([[0.5], [-1.0], [2.0]])
        expected_loss, expected_grad = batch_loss_and_grad(z, np.array([0, 1, 1]), BINARY)
        loss, grad = batch_loss_and_grad(z, np.array(labels), BINARY)
        assert loss == expected_loss and np.array_equal(grad, expected_grad)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_multiclass_rejects(self, bad):
        with pytest.raises(ValueError, match=r"^multiclass targets must lie in \[0, 3\)$"):
            batch_loss_and_grad(np.zeros((2, 3)), np.array([0, bad]), MULTICLASS)

    @pytest.mark.parametrize("logits,task,error,message", [
        (np.zeros((3, 1)), BINARY, ShapeMismatchError, r"^logits \(3, 1\) and targets \(2,\) do not align$"),
        (np.zeros((2, 2)), BINARY, ShapeMismatchError, "^binary task expects 1 logit column, got 2$"),
        (np.zeros((2, 1)), "regression", ValueError, "^unknown task 'regression'$"),
    ], ids=["misaligned", "binary_two_columns", "unknown_task"])
    def test_cross_entropy_rejects(self, logits, task, error, message):
        with pytest.raises(error, match=message):
            cross_entropy(logits, np.array([0, 1]), task)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def logit_batches(draw, task):
    """Logits in [-60, 60] with targets. Some rows put a logit at, just above
    or just below the row's top one minus LOGIT_CLAMP, the floor of
    `softmax`, and some hold a NaN."""
    n = draw(st.integers(1, 12))
    c = 1 if task == BINARY else draw(st.integers(2, 5))
    floats = st.floats(-60.0, 60.0)
    z = np.array(draw(st.lists(st.lists(floats, min_size=c, max_size=c), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1 if task == BINARY else c - 1), min_size=n, max_size=n)))
    for row in range(n):
        at = draw(st.sampled_from(["free", "floor", "above", "below", "nan"]))
        col = draw(st.integers(0, c - 1))
        edge = float(np.clip(z[row], -LOGIT_CLAMP, LOGIT_CLAMP).max()) - LOGIT_CLAMP
        if at == "floor":
            z[row, col] = edge
        elif at in ("above", "below"):
            z[row, col] = np.nextafter(edge, np.inf if at == "above" else -np.inf)
        elif at == "nan":
            z[row, col] = np.nan
    return z, y


@given(logit_batches(MULTICLASS))
@example((np.array([[0.0, -30.0]]), np.array([1])))  # shifted logit exactly at the floor
@example((np.array([[0.0, np.nextafter(-30.0, -np.inf)]]), np.array([0])))  # just below it
@example((np.array([[45.0, -45.0, 0.0]]), np.array([2])))  # clipped to a spread of 60
@example((np.array([[np.nan, 1.0], [2.0, 3.0]]), np.array([0, 1])))
@settings(max_examples=300, deadline=None)
def test_multiclass_shares_the_exponentials_bit_for_bit(batch):
    """The loss and the gradient read one exp of the shifted logits; they keep
    the bits of the two-exp form, on either side of the softmax floor."""
    z, y = batch
    loss, grad = batch_loss_and_grad(z, y, MULTICLASS)
    want_loss, want_grad = two_exp_batch_loss_and_grad(z, y, MULTICLASS)
    assert same_bits(loss, want_loss)
    assert same_bits(grad, want_grad)


@given(logit_batches(BINARY))
@settings(max_examples=100, deadline=None)
def test_binary_keeps_its_bits(batch):
    z, y = batch
    with np.errstate(invalid="ignore"):  # logaddexp warns on a NaN logit
        loss, grad = batch_loss_and_grad(z, y, BINARY)
        want_loss, want_grad = two_exp_batch_loss_and_grad(z, y, BINARY)
    assert same_bits(loss, want_loss)
    assert same_bits(grad, want_grad)


@given(logit_batches(MULTICLASS))
@example((np.array([[0.0, -30.0]]), np.array([1])))
@example((np.array([[0.0, np.nextafter(-30.0, -np.inf)]]), np.array([0])))
@example((np.array([[0.0, np.nextafter(-30.0, np.inf)]]), np.array([0])))
@example((np.array([[45.0, -45.0, 0.0]]), np.array([2])))
@example((np.array([[60.0, -60.0], [1.0, 2.0]]), np.array([0, 1])))  # one row past the floor
@example((np.array([[np.nan, 1.0], [2.0, 3.0]]), np.array([0, 1])))
@settings(max_examples=300, deadline=None)
def test_multiclass_probabilities_are_the_softmax_bit_for_bit(batch):
    """The probabilities are those of the one-exp, always-floored softmax,
    whichever side of the floor each row lies on; the gradient is
    (probabilities - one-hot) / n."""
    z, y = batch
    loss, probabilities = cross_entropy(z, y, MULTICLASS)
    assert same_bits(probabilities, softmax(z))
    onehot = np.zeros_like(z)
    onehot[np.arange(len(y)), y] = 1.0
    got_loss, grad = batch_loss_and_grad(z, y, MULTICLASS)
    assert same_bits(got_loss, loss) and same_bits(grad, (probabilities - onehot) / len(y))


@given(logit_batches(BINARY))
@example((np.array([[-60.0]]), np.array([1])))
@example((np.array([[np.nan]]), np.array([0])))
@settings(max_examples=100, deadline=None)
def test_binary_probabilities_are_the_sigmoid_bit_for_bit(batch):
    z, y = batch
    with np.errstate(invalid="ignore"):  # logaddexp warns on a NaN logit
        loss, probabilities = cross_entropy(z, y, BINARY)
        got_loss, grad = batch_loss_and_grad(z, y, BINARY)
    assert same_bits(probabilities, sigmoid(z))
    assert same_bits(got_loss, loss) and same_bits(grad, (probabilities - y[:, None]) / len(y))


class TestProbabilities:
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=10))
    @example([45.0, -45.0])  # a spread the floor keeps off exactly 0 and 1
    @settings(max_examples=200, deadline=None)
    def test_normalized_and_open_interval(self, logits):
        _, out = cross_entropy(np.array([logits], dtype=float), np.array([0]), MULTICLASS)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_uniform(self):
        _, out = cross_entropy(np.zeros((1, 3)), np.array([0]), MULTICLASS)
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]])

    @given(st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_binary_open_interval(self, logit):
        _, out = cross_entropy(np.array([[logit]]), np.array([1]), BINARY)
        assert out.shape == (1, 1) and 0.0 < out[0, 0] < 1.0
