import csv
import dataclasses
import tracemalloc
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import input_gradients, linear_nam, one_layer
from _oracles import finite_diff_grads, max_rel_err, pointwise_mean
from fednam.cli import export_reports
from fednam.data import HEART, Scaler, SplitSpec, load_dataset
from fednam.dnn import build_dnn
from fednam.errors import DataError, ShapeMismatchError
from fednam import interpret
from fednam.federation import ClientState, EnsembleModel, FederationConfig
from fednam.interpret import (
    GLOBAL_OWNER,
    ShapeCurve,
    _per_feature_terms,
    average_shape_functions,
    baseline_attributions,
    contribution_scores,
    global_interpret,
    input_gradient_attributions,
    model_curves,
    render_shapes_svg,
)
from fednam.nam import build_nam, nam_forward
from fednam.nn import BINARY, EXU, IDENTITY, MULTICLASS, RELU, TRAIN, OptimizerState
from conftest import write_csv, synthetic_heart_rows, HEART_COLUMNS


class TestShapeCurves:
    def test_zero_net_flat_curve(self):
        model = linear_nam([0.0], [1.0])
        [curve] = model_curves(model, [(-1.0, 1.0)], "client1")
        assert np.all(curve.values == 0.0)
        assert len(curve.grid) == 101

    def test_identity_shape_already_centered(self):
        model = linear_nam([1.0], [1.0])
        [curve] = model_curves(model, [(-1.0, 1.0)], "client1")
        assert np.allclose(curve.values, curve.grid, atol=1e-15)

    def test_centering_over_random_models(self):
        for seed in range(100):
            model = build_nam(1, BINARY, hidden_layers=1, hidden_units=6, rng=seed)
            [curve] = model_curves(model, [(-2.0, 2.0)], "x")
            assert abs(curve.values.mean()) <= 1e-9

    def test_curve_is_the_centred_model_term(self):
        model = build_nam(2, BINARY, hidden_layers=2, hidden_units=6, rng=3)
        curve = model_curves(model, [(0.0, 1.0), (-1.5, 2.5)], "x")[1]
        x = np.column_stack([np.zeros_like(curve.grid), curve.grid])
        _, terms, _ = nam_forward(model, x)
        term = terms[:, 0, 1]
        assert np.all(np.abs(curve.values - (term - term.mean())) <= 1e-9)

    def test_degenerate_range_single_point(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return nam_forward(*args, **kwargs)

        monkeypatch.setattr(interpret, "nam_forward", counted)
        model = linear_nam([1.0, 1.0], [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # fit_scaler, not the curves, names a constant feature
            curves = model_curves(model, [(0.0, 1.0), (2.0, 2.0)], "x")
        assert [len(c.grid) for c in curves] == [101, 1]
        assert curves[1].grid.tolist() == [2.0] and curves[1].values.tolist() == [0.0]
        assert calls == [(101, 2)]

    def test_inverted_range_rejected(self):
        with pytest.raises(DataError, match="feature 0"):
            model_curves(linear_nam([1.0], [1.0]), [(1.0, -1.0)], "x")


class TestAverageShapeFunctions:
    def test_linear_example(self):
        # client shapes x and 3x over [0, 2]: the centred ends, 2 - 1 and 6 - 3, average to 2
        a = model_curves(linear_nam([1.0], [1.0]), [(0.0, 2.0)], "client1")
        b = model_curves(linear_nam([3.0], [1.0]), [(0.0, 2.0)], "client2")
        merged = average_shape_functions([a, b])[0]
        assert merged.values[-1] == pytest.approx(2.0, abs=1e-12)

    def test_identical_clients_unchanged(self):
        curves = model_curves(build_nam(2, BINARY, hidden_layers=1, hidden_units=5, rng=4),
                              [(-1, 1), (-2, 2)], "c")
        merged = average_shape_functions([curves, curves, curves])
        for got, ref in zip(merged, curves):
            assert np.allclose(got.values, ref.values, atol=1e-15)
            assert got.owner == GLOBAL_OWNER

    def test_matches_pointwise_mean_oracle_exactly(self):
        ranges = [(-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0)]
        per_client = [
            model_curves(build_nam(3, BINARY, hidden_layers=1, hidden_units=7, rng=seed),
                         ranges, f"client{seed}")
            for seed in range(3)
        ]
        merged = average_shape_functions(per_client)
        for i, curve in enumerate(merged):
            oracle = pointwise_mean([c[i].values for c in per_client])
            assert np.array_equal(curve.values, oracle)

    def test_grid_mismatch_rejected(self):
        a = model_curves(linear_nam([1.0], [1.0]), [(0.0, 2.0)], "c1")
        b = model_curves(linear_nam([1.0], [1.0]), [(0.0, 3.0)], "c2")
        with pytest.raises(ShapeMismatchError, match="grid mismatch"):
            average_shape_functions([a, b])

    @pytest.mark.parametrize("case", ["fewer_first", "fewer_later", "reordered"])
    def test_misaligned_clients_rejected(self, case):
        """Curves pair by position, so every client must hold the same
        (feature, class) curves in the same order, not merely equal grids."""
        def curves(n_features, task=BINARY, n_classes=2):
            model = build_nam(n_features, task, n_classes, hidden_layers=1, hidden_units=4, rng=0)
            return model_curves(model, [(-1.0, 1.0)] * n_features, "c")

        by_client = {
            "fewer_first": [curves(2), curves(4)],
            "fewer_later": [curves(4), curves(2)],
            # class 1 of feature 0 would meet feature 1 of a binary model, on the same grid
            "reordered": [curves(1, MULTICLASS, 3), curves(3)],
        }[case]
        with pytest.raises(ShapeMismatchError, match="different \\(feature, class\\) curves"):
            average_shape_functions(by_client)


@pytest.mark.parametrize("call,error,message", [
    (lambda: ShapeCurve(0, 0, np.zeros(3), np.zeros(2), "c"), ShapeMismatchError, "^grid and values must align$"),
    (lambda: average_shape_functions([]), ShapeMismatchError, "^need curves from at least one client$"),
    (lambda: input_gradient_attributions(one_layer(np.ones((1, 3)), np.zeros(1), IDENTITY), np.empty((0, 3))),
     DataError, r"^attributions need a non-empty \(rows, features\) matrix$"),
], ids=["misaligned_curve", "no_clients", "no_rows"])
def test_empty_or_misaligned_inputs_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestContributions:
    def test_zero_model_all_zero(self):
        model = linear_nam([0.0, 0.0], [1.0, 1.0])
        report = contribution_scores(model, np.ones((5, 2)), "c", ["a", "b"])
        assert np.all(report.scores == 0.0)

    def test_mean_absolute_value_example(self):
        model = linear_nam([1.0, 0.0], [1.0, 1.0])
        data = np.array([[-2.0, 5.0], [2.0, -5.0]])
        report = contribution_scores(model, data, "c", ["g1", "g2"])
        assert report.scores[0] == 2.0
        assert report.scores[1] == 0.0
        assert report.ranking == [0, 1]
        assert report.rank_of("g1") == 1

    def test_output_weight_scaling_scales_score(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            model = build_nam(3, BINARY, hidden_layers=1, hidden_units=5, rng=seed)
            data = rng.normal(size=(40, 3))
            base = contribution_scores(model, data, "c", ["a", "b", "c"])
            boosted = model.copy()
            tensors = boosted.param_tensors()
            w = tensors[-2].copy()
            w[0, 1] *= 10.0
            tensors[-2] = w
            boosted.set_param_tensors(tensors)
            after = contribution_scores(boosted, data, "c", ["a", "b", "c"])
            assert after.scores[1] == pytest.approx(10.0 * base.scores[1], rel=1e-12)
            assert after.rank_of("b") <= base.rank_of("b")

    def test_empty_data_rejected(self):
        model = linear_nam([1.0], [1.0])
        with pytest.raises(DataError):
            contribution_scores(model, np.empty((0, 1)), "c", ["a"])


class TestGlobalInterpret:
    def make_clients(self, n_clients=3, identical=False):
        clients = []
        x = np.random.default_rng(0).normal(size=(30, 2))
        y = (x.sum(axis=1) > 0).astype(int)
        for cid in range(n_clients):
            model = build_nam(2, BINARY, hidden_layers=1, hidden_units=5,
                              rng=0 if identical else cid)
            clients.append(
                ClientState(cid, x, y, model, OptimizerState(learning_rate=0.01),
                            np.arange(27), np.arange(27, 30))
            )
        return clients, x

    def test_identical_clients_global_equals_client(self):
        clients, x = self.make_clients(identical=True)
        bundle = global_interpret(clients, clients[0].model, x, ["a", "b"])
        [client_report] = [r for r in bundle.contributions if r.owner == "client1"]
        assert np.allclose(bundle.global_contribution.scores, client_report.scores, atol=1e-12)
        per_feature = {(c.feature_index, c.class_index): c
                       for c in bundle.curves if c.owner == GLOBAL_OWNER}
        for curve in [c for c in bundle.curves if c.owner == "client1"]:
            merged = per_feature[(curve.feature_index, curve.class_index)]
            assert np.allclose(merged.values, curve.values, atol=1e-15)

    def test_counts(self):
        """Both lists run in owner order: the clients in client order, then global."""
        clients, x = self.make_clients()
        bundle = global_interpret(clients, clients[0].model, x, ["a", "b"])
        owners = ["client1", "client2", "client3", GLOBAL_OWNER]
        assert [r.owner for r in bundle.contributions] == owners
        assert bundle.global_contribution is bundle.contributions[-1]
        # owners x features (binary: 1 class)
        assert [c.owner for c in bundle.curves] == [owner for owner in owners for _ in range(2)]
        assert [c.feature_index for c in bundle.curves] == [0, 1] * len(owners)

    def test_global_curves_are_the_global_models_own(self):
        """The global rows describe the global predictor, here a model no client
        holds, not the mean of the client curves."""
        clients, x = self.make_clients()
        global_model = build_nam(2, BINARY, hidden_layers=1, hidden_units=5, rng=9)
        bundle = global_interpret(clients, global_model, x, ["a", "b"])
        got = [c for c in bundle.curves if c.owner == GLOBAL_OWNER]
        want = model_curves(global_model, interpret.training_feature_ranges(x), GLOBAL_OWNER)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g.grid, w.grid) and np.array_equal(g.values, w.values)

    def test_ensemble_curves_are_the_member_curves_mean(self):
        ranges = [(-2.0, 2.0), (0.0, 1.0), (-1.0, 1.0)]
        models = [build_nam(3, MULTICLASS, 3, hidden_layers=1, hidden_units=6, rng=seed)
                  for seed in range(3)]
        got = model_curves(EnsembleModel(models), ranges, GLOBAL_OWNER)
        want = average_shape_functions(
            [model_curves(m, ranges, f"client{i + 1}") for i, m in enumerate(models)])
        assert len(got) == len(want) == 9
        for g, w in zip(got, want):
            assert (g.feature_index, g.class_index, g.owner) == (w.feature_index, w.class_index,
                                                                 GLOBAL_OWNER)
            assert np.array_equal(g.grid, w.grid) and np.array_equal(g.values, w.values)


def test_contribution_scores_keep_no_activations():
    """An inference pass over many rows holds one block's activations at a time,
    and the scores take the absolute terms in place."""
    model = build_nam(11, BINARY, rng=0)
    x = np.random.default_rng(0).normal(size=(50_000, 11))
    tracemalloc.start()
    try:
        contribution_scores(model, x, GLOBAL_OWNER, [f"f{k}" for k in range(11)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"


@st.composite
def term_tables(draw):
    """A NAM with its parameters moved off the kinks, and a table whose
    column k holds 1 to `rows` distinct values."""
    task = draw(st.sampled_from([BINARY, MULTICLASS]))
    model = build_nam(
        n_features=draw(st.integers(1, 4)),
        task=task,
        n_classes=3,
        hidden_layers=draw(st.integers(1, 3)),
        hidden_units=draw(st.integers(1, 12)),
        hidden_activation=draw(st.sampled_from([RELU, EXU])),
        rng=draw(st.integers(0, 10_000)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    model.set_params(model.params + rng.normal(scale=0.3, size=model.params.shape))
    rows = draw(st.sampled_from([1, 5, 273, 1023, 1025, 5000]))
    columns = []
    for _ in range(model.n_features):
        distinct = draw(st.one_of(st.integers(1, min(rows, 4)), st.integers(1, rows)))
        columns.append(rng.normal(size=distinct)[rng.integers(distinct, size=rows)])
    return model, np.column_stack(columns)


@given(term_tables())
@settings(max_examples=60, deadline=None)
def test_table_terms_depend_on_the_value_alone(case):
    model, x = case
    terms = _per_feature_terms(model, x)
    # rows holding one value get the bits of that value's first row
    for k in range(x.shape[1]):
        _, first, inverse = np.unique(x[:, k], return_index=True, return_inverse=True)
        assert terms[first[inverse], :, k].tobytes() == terms[:, :, k].tobytes()
    # one pass over every row sums in other orders: it agrees to a few ulps of
    # the largest magnitude the last layer adds up into each term
    _, want, cache = nam_forward(model, x, TRAIN)
    summed = np.abs(cache.inputs[-1] * model.weights[-1]).sum(axis=2) + np.abs(model.biases[-1])
    scale = np.abs(model.output_weights)[None] * summed.T[:, None, :]
    assert np.all(np.abs(terms - want) <= 4 * np.spacing(scale))
    # members share the distinct values; their mean is summed in member order
    other = model.copy()
    other.set_params(model.params * 0.5 + 1e-3)
    ensemble = EnsembleModel([model, other])
    want = (terms + _per_feature_terms(other, x)) / 2
    assert _per_feature_terms(ensemble, x).tobytes() == want.tobytes()


def test_terms_of_a_dense_model_are_rejected():
    """Curves and scores read a model's additive terms, which a dense model has not."""
    dnn = build_dnn(3, BINARY, rng=0)
    x = np.random.default_rng(0).normal(size=(20, 3))
    for model in (dnn, EnsembleModel([dnn, dnn])):
        with pytest.raises(ShapeMismatchError, match="cannot decompose terms of DnnModel"):
            contribution_scores(model, x, "c", ["a", "b", "c"])
        with pytest.raises(ShapeMismatchError, match="cannot decompose terms of DnnModel"):
            model_curves(model, [(-1.0, 1.0)] * 3, "c")


class TestAttributions:
    def test_linear_model_closed_form(self):
        # logit = sum w_k x_k has constant gradient w, so grad*input averages
        # to w_k * mean(x_k) over the rows
        rng = np.random.default_rng(1)
        w = np.array([[0.7, -1.3, 0.4]])
        model = one_layer(w, np.zeros(1), IDENTITY)
        x = rng.normal(size=(200, 3))
        attributions = input_gradient_attributions(model, x)
        expected = w[0] * x.mean(axis=0)
        assert np.allclose(attributions, expected, atol=1e-12)

    def test_zero_network_zero_attributions(self):
        model = one_layer(np.zeros((1, 3)), np.zeros(1), IDENTITY)
        attributions = input_gradient_attributions(model, np.ones((10, 3)))
        assert attributions.shape == (3,) and np.all(attributions == 0.0)

    def test_input_gradients_match_finite_differences(self):
        model = build_dnn(4, BINARY, hidden_layers=2, hidden_units=10, rng=5)
        x = np.random.default_rng(5).normal(size=(3, 4))

        def logit_sum():
            logits, _ = model.forward_batch(x)
            return float(logits.sum())

        grads = input_gradients(model, x, np.ones((3, 1)))
        numeric = finite_diff_grads(logit_sum, [x])
        assert max_rel_err([grads], numeric) < 1e-4

    def test_each_net_runs_forward_once_for_all_classes(self, monkeypatch):
        import fednam.nn.bank as bank

        runs = []
        run_layers = bank._run_layers

        def counted(net, x, masks, cache=None):
            runs.append(x.shape)
            return run_layers(net, x, masks, cache)

        monkeypatch.setattr(bank, "_run_layers", counted)
        members = [build_dnn(5, MULTICLASS, n_classes=3, hidden_units=12, rng=seed) for seed in (1, 2)]
        x = np.random.default_rng(3).normal(size=(50, 5))
        single = input_gradient_attributions(members[0], x)
        assert runs == [(1, 50, 5)]
        runs.clear()
        ensemble = input_gradient_attributions(EnsembleModel(members), x)
        assert runs == [(1, 50, 5)] * 2

        # the mean over classes of mean(dlogit_c/dx * x), one class at a time
        per_class = []
        for c in range(3):
            onehot = np.zeros((50, 3))
            onehot[:, c] = 1.0
            grads = [input_gradients(m, x, onehot) for m in members]
            per_class.append([(g * x).mean(axis=0) for g in (grads[0], (grads[0] + grads[1]) / 2)])
        want = np.array(per_class).mean(axis=0)
        assert single.tobytes() == want[0].tobytes()
        assert ensemble.tobytes() == want[1].tobytes()

    def test_federated_baseline_pipeline(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", HEART_COLUMNS, synthetic_heart_rows(160))
        dataset = load_dataset(path, HEART, SplitSpec(seed=0))
        cfg = FederationConfig(num_clients=2, rounds=2, local_epochs=1, seed=0)
        model, attributions, stats = baseline_attributions(
            dataset, cfg, lambda: OptimizerState(learning_rate=0.01),
            batch_size=16,
        )
        assert attributions.shape == (len(dataset.feature_names),) == (13,)
        assert np.all(np.isfinite(attributions))
        assert 0.0 <= stats["accuracy"] <= 1.0

    def test_test_set_evaluation_goes_through_the_federation_module(self, tmp_path, monkeypatch):
        """A wrapper set on federation.evaluate_model sees every evaluation,
        the DNN's test-set one too."""
        import fednam.federation as federation_module

        path = write_csv(tmp_path / "h.csv", HEART_COLUMNS, synthetic_heart_rows(160))
        dataset = load_dataset(path, HEART, SplitSpec(seed=0))
        seen = []
        real = federation_module.evaluate_model

        def counting(model, x, *args, **kwargs):
            seen.append(x)
            return real(model, x, *args, **kwargs)

        monkeypatch.setattr(federation_module, "evaluate_model", counting)
        cfg = FederationConfig(num_clients=2, rounds=2, local_epochs=1, seed=0)
        baseline_attributions(dataset, cfg, lambda: OptimizerState(learning_rate=0.01),
                              batch_size=16)
        assert len(seen) == cfg.rounds + 1  # one per round, then the test split
        assert np.array_equal(seen[-1], dataset.X_test)


class TestExport:
    SCALER = Scaler(mean=np.array([1.0, -2.0]), std=np.array([0.5, 3.0]))

    def build_bundle(self):
        clients, x = TestGlobalInterpret().make_clients()
        return global_interpret(clients, clients[0].model, x, ["a", "b"]), x

    def test_contribution_row_count(self, tmp_path):
        bundle, _ = self.build_bundle()
        export_reports(bundle, tmp_path, self.SCALER)
        with open(tmp_path / "contributions.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * (3 + 1)  # features x (clients + global)
        owners = {r["owner"] for r in rows}
        assert owners == {"client1", "client2", "client3", "global"}

    def test_shapes_roundtrip_full_precision(self, tmp_path):
        bundle, _ = self.build_bundle()
        export_reports(bundle, tmp_path, self.SCALER)
        by_key = {}
        with open(tmp_path / "shapes.csv") as f:
            for row in csv.DictReader(f):
                by_key.setdefault(
                    (row["owner"], row["feature"], int(row["class"])), []
                ).append(float(row["value"]))
        for curve in [c for c in bundle.curves if c.owner == GLOBAL_OWNER]:
            name = bundle.feature_names[curve.feature_index]
            parsed = np.array(by_key[(GLOBAL_OWNER, name, curve.class_index)])
            assert np.array_equal(parsed, curve.values)
        with open(tmp_path / "shapes_raw_units.csv") as f:
            x_raw = [float(r["x_raw"]) for r in csv.DictReader(f)
                     if (r["owner"], r["feature"], r["class"]) == (GLOBAL_OWNER, "b", "0")]
        [curve] = [c for c in bundle.curves
                   if (c.owner, c.feature_index, c.class_index) == (GLOBAL_OWNER, 1, 0)]
        assert np.array_equal(x_raw, curve.grid * 3.0 - 2.0)

    def test_svg_renders(self, tmp_path):
        bundle, _ = self.build_bundle()
        export_reports(bundle, tmp_path, self.SCALER, svg=True)
        text = (tmp_path / "shapes.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert render_shapes_svg(bundle).startswith("<svg")

    def test_svg_escapes_feature_names(self):
        bundle, _ = self.build_bundle()
        bundle = dataclasses.replace(bundle, feature_names=["R&D", "x<y>"])
        root = ElementTree.fromstring(render_shapes_svg(bundle))
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels == ["R&D", "x<y>"]

    def test_synthetic_heart_emits_52_contribution_rows(self, tmp_path, synthetic_heart_csv):
        dataset = load_dataset(synthetic_heart_csv, HEART, SplitSpec(seed=0))
        from fednam.federation import run_federation
        from fednam.nam import build_nam as bn

        cfg = FederationConfig(num_clients=3, rounds=2, local_epochs=1, seed=0)
        result = run_federation(
            dataset, cfg,
            lambda rng: bn(13, BINARY, hidden_layers=1, hidden_units=6, rng=rng),
            lambda: OptimizerState(learning_rate=0.01), batch_size=32,
        )
        bundle = global_interpret(result.clients, result.global_model,
                                  dataset.X_train, dataset.feature_names)
        export_reports(bundle, tmp_path, dataset.scaler)
        with open(tmp_path / "contributions.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == 13 * 4
