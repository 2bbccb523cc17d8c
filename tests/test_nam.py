import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import linear_nam
from _oracles import finite_diff_grads, max_rel_err
from fednam.errors import ConfigError, DataError, ShapeMismatchError, StaleCacheError
from fednam.nam import (
    build_nam,
    load_model,
    nam_backward,
    nam_forward,
    save_model,
)
from fednam.nn import BINARY, MULTICLASS, batch_loss_and_grad


class TestForward:
    def test_zero_shapes_bias_only(self):
        model = linear_nam([0.0, 0.0], [1.0, 1.0], 0.5)
        logits, terms, _ = nam_forward(model, np.array([[3.0, -2.0]]))
        assert logits[0, 0] == 0.5
        assert np.all(terms == 0.0)

    def test_linear_composition(self):
        model = linear_nam([1.0, 2.0], [1.0, 1.0])
        logits, terms, _ = nam_forward(model, np.array([[3.0, 4.0]]))
        assert logits[0, 0] == 11.0
        assert list(terms[0, 0]) == [3.0, 8.0]

    def test_length_mismatch(self):
        model = build_nam(3, BINARY, rng=0)
        with pytest.raises(ShapeMismatchError):
            nam_forward(model, np.zeros(4))
        with pytest.raises(ShapeMismatchError):  # a single row still needs its batch axis
            nam_forward(model, np.zeros(3))

    def test_additivity_on_random_models(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = build_nam(4, BINARY, hidden_layers=2, hidden_units=8, rng=seed)
            for _ in range(200):
                x = rng.normal(size=(1, 4))
                logits, terms, _ = nam_forward(model, x)
                recon = model.output_bias + terms.sum(axis=2)
                denom = max(abs(float(logits[0, 0])), 1e-12)
                assert abs(float(logits[0, 0] - recon[0, 0])) / denom <= 1e-9

    def test_multiclass_shapes(self):
        model = build_nam(4, MULTICLASS, n_classes=3, hidden_layers=1, hidden_units=4, rng=1)
        logits, terms, _ = nam_forward(model, np.zeros((6, 4)))
        assert logits.shape == (6, 3)
        assert terms.shape == (6, 3, 4)


class TestStructure:
    def test_univariance(self):
        model = build_nam(3, BINARY, hidden_layers=2, hidden_units=6, rng=3)
        a = np.array([[0.5, -1.0, 2.0]])
        b = np.array([[9.9, -1.0, -7.7]])  # agrees only on coordinate 1
        _, terms_a, _ = nam_forward(model, a)
        _, terms_b, _ = nam_forward(model, b)
        assert terms_a[0, 0, 1] == terms_b[0, 0, 1]

    def test_intervention_locality(self):
        model = build_nam(4, BINARY, hidden_layers=2, hidden_units=6, rng=4)
        x = np.array([[0.1, 0.2, 0.3, 0.4]])
        x2 = x.copy()
        x2[0, 2] = -5.0
        _, t1, _ = nam_forward(model, x)
        _, t2, _ = nam_forward(model, x2)
        for k in (0, 1, 3):
            assert t1[0, 0, k] == t2[0, 0, k]
        assert t1[0, 0, 2] != t2[0, 0, 2]

    def test_gradient_isolation(self):
        model = build_nam(3, BINARY, hidden_layers=1, hidden_units=5, rng=5)
        x = np.array([[0.3, -0.2, 0.9]])
        _, _, cache = nam_forward(model, x)
        _, dx = nam_backward(model, cache, np.ones((1, 1)))
        # zeroing feature j's output weight kills exactly d logit/dx_j
        model2 = model.copy()
        w = model2.output_weights.copy()
        w[0, 1] = 0.0
        tensors = model2.param_tensors()
        tensors[-2] = w
        model2.set_param_tensors(tensors)
        _, _, cache2 = nam_forward(model2, x)
        _, dx2 = nam_backward(model2, cache2, np.ones((1, 1)))
        assert dx2[0, 1] == 0.0
        assert dx2[0, 0] == dx[0, 0] and dx2[0, 2] == dx[0, 2]


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = build_nam(3, BINARY, hidden_layers=1, hidden_units=4, rng=6)
        _, _, cache = nam_forward(model, np.zeros((2, 3)))
        grads, dx = nam_backward(model, cache, np.zeros((2, 1)))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(dx == 0.0)

    def test_stale_cache_rejected(self):
        model = build_nam(2, BINARY, hidden_layers=1, hidden_units=4, rng=7)
        _, _, cache = nam_forward(model, np.zeros((1, 2)))
        model.set_param_tensors([t.copy() for t in model.param_tensors()])
        with pytest.raises(StaleCacheError):
            nam_backward(model, cache, np.zeros((1, 1)))

    @pytest.mark.parametrize("task,n_classes", [(BINARY, 2), (MULTICLASS, 3)])
    def test_full_model_finite_differences(self, task, n_classes):
        rng = np.random.default_rng(8)
        model = build_nam(3, task, n_classes=n_classes, hidden_layers=2, hidden_units=6, rng=8)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2 if task == BINARY else n_classes, size=4)

        def loss():
            logits, _, _ = nam_forward(model, x)
            value, _ = batch_loss_and_grad(logits, y, task)
            return value

        logits, _, cache = nam_forward(model, x)
        _, dlogits = batch_loss_and_grad(logits, y, task)
        grads, _ = nam_backward(model, cache, dlogits)
        numeric = finite_diff_grads(loss, model.param_tensors())
        assert max_rel_err(grads, numeric) < 1e-4


SAVED_MODELS = {
    "binary_nam": build_nam(3, BINARY, hidden_layers=2, hidden_units=5, rng=12),
    "multiclass_nam": build_nam(3, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=5, rng=13),
}

class TestSerialization:
    @pytest.mark.parametrize("name", sorted(SAVED_MODELS))
    def test_file_holds_the_json_module_text(self, tmp_path, name):
        model = SAVED_MODELS[name]
        names = ['quote"d', "back\\slash", "n\u00e4me \u65e5\u672c"]
        path = tmp_path / "model.json"
        save_model(model, names, path)
        doc = {"schema_version": 1, "kind": model.kind, "task": model.task, "feature_names": names,
               **model.to_dict()}
        assert path.read_bytes() == json.dumps(doc, sort_keys=True).encode()

    @pytest.mark.parametrize("name", sorted(SAVED_MODELS))
    def test_indented_file_still_loads(self, tmp_path, name):
        """A file in the indented layout written before the one-line one."""
        model = SAVED_MODELS[name]
        path = tmp_path / "model.json"
        save_model(model, ["a", "b", "c"], path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1, sort_keys=True))
        loaded, names = load_model(path)
        assert names == ["a", "b", "c"]
        assert loaded.params.tobytes() == model.params.tobytes()

    def test_bit_exact_roundtrip(self, tmp_path):
        model = build_nam(3, MULTICLASS, n_classes=3, hidden_layers=2, hidden_units=5, rng=10)
        path = tmp_path / "model.json"
        save_model(model, ["a", "b", "c"], path)
        loaded, names = load_model(path)
        assert names == ["a", "b", "c"]
        for original, restored in zip(model.param_tensors(), loaded.param_tensors()):
            assert np.array_equal(original, restored)
        x = np.random.default_rng(0).normal(size=(4, 3))
        lo, _, _ = nam_forward(model, x)
        lr, _, _ = nam_forward(loaded, x)
        assert np.array_equal(lo, lr)

    def test_schema_version_mismatch(self, tmp_path):
        model = build_nam(2, BINARY, hidden_layers=1, hidden_units=3, rng=11)
        path = tmp_path / "model.json"
        save_model(model, ["a", "b"], path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="expected 1, found 999"):
            load_model(path)

    def test_dense_model_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_nam(2, BINARY, hidden_layers=1, hidden_units=3, rng=0), ["a", "b"], path)
        doc = json.loads(path.read_text())
        doc["kind"] = "dnn"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"model file {path} has unknown model kind 'dnn'"):
            load_model(path)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(path)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_additivity_property(seed):
    model = build_nam(3, BINARY, hidden_layers=1, hidden_units=4, rng=seed % 7)
    x = np.random.default_rng(seed).normal(size=(1, 3))
    logits, terms, _ = nam_forward(model, x)
    recon = model.output_bias + terms.sum(axis=2)
    assert abs(float(logits[0, 0] - recon[0, 0])) <= 1e-9 * max(abs(float(logits[0, 0])), 1e-12)
