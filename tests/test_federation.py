import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import weighted_mean_tensors
from conftest import HEART_COLUMNS, synthetic_heart_rows, write_csv
import fednam.tune as tune
from fednam.config import ModelConfig, RunConfig
from fednam.control import ControlConfig
from fednam.data import HEART, IRIS, SplitSpec, load_dataset
from fednam.errors import ConfigError, DataError, ShapeMismatchError, TrainingError
from fednam.federation import (
    BOTH,
    SHAPE_AVERAGE,
    ClientState,
    EnsembleModel,
    FederationConfig,
    FederationSection,
    evaluate_model,
    fed_avg,
    local_train,
    partition_clients,
    run_federation,
    train_centralized,
    _carve_validation,
    _loss_and_accuracy,
)
from fednam.nam import build_nam
from fednam.nn.bank import GRAD_BLOCK_ROWS
from fednam.nn import ADAM, BINARY, EXU, MULTICLASS, RELU, TRAIN, OptimizerState, SGD


def make_client(cid, x, y, model, lr=0.01, kind="adam", val_fraction=0.0):
    n = len(x)
    n_val = int(round(n * val_fraction))
    rows = np.arange(n)
    return ClientState(
        client_id=cid,
        x=np.asarray(x, dtype=float),
        y=np.asarray(y),
        model=model,
        optimizer=OptimizerState(kind=kind, learning_rate=lr),
        train_rows=rows[n_val:],
        val_rows=rows[:n_val],
    )


def toy_separable(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


def small_nam(rng_seed=0, k=2):
    return build_nam(k, BINARY, hidden_layers=1, hidden_units=8, rng=rng_seed)


def toy_three_class(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.digitize(x[:, 0] + x[:, 1], [-0.5, 0.5])
    return x, y


# min_delta 1e9 keeps the first epoch: only an improvement on inf exceeds it
ROUND_CONTROLS = {
    "default": ControlConfig(),
    "first_epoch_kept": ControlConfig(min_delta=1e9),
    "stopped_early": ControlConfig(early_stop_patience=1, min_delta=1e9),
}


class TestPartition:
    def test_equal_split(self):
        y = np.array([0, 1] * 450)
        shards = partition_clients(y, 3, seed=0)
        assert [len(s) for s in shards] == [300, 300, 300]

    def test_remainder_distribution(self):
        y = np.array([0, 1] * 5)
        shards = partition_clients(y, 3, seed=0)
        assert sorted(len(s) for s in shards) == [3, 3, 4]

    def test_disjoint_exhaustive(self):
        y = np.random.default_rng(0).integers(0, 3, size=101)
        shards = partition_clients(y, 4, seed=1)
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(101))

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=200)
        shards = partition_clients(y, 3, seed=3)
        global_ratio = y.mean()
        for shard in shards:
            expected = len(shard) * global_ratio
            actual = y[shard].sum()
            assert abs(actual - expected) <= 1.0

    def test_deterministic(self):
        y = np.random.default_rng(4).integers(0, 2, size=57)
        a = partition_clients(y, 3, seed=9)
        b = partition_clients(y, 3, seed=9)
        assert all(np.array_equal(s, t) for s, t in zip(a, b))

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            partition_clients(np.array([0, 1]), 3, seed=0)

    @pytest.mark.parametrize("n_rows, n_val", [(1, 0), (2, 1), (10, 1)])
    def test_validation_carve_leaves_a_training_row(self, n_rows, n_val):
        """At val_fraction 0.1 a shard of two or more rows validates on at
        least one row and trains on the rest; a 1-row shard validates on none."""
        train_rows, val_rows = _carve_validation(n_rows, 0.1, seed=0, client_id=0)
        assert (len(train_rows), len(val_rows)) == (n_rows - n_val, n_val)
        assert np.array_equal(np.sort(np.concatenate([train_rows, val_rows])), np.arange(n_rows))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_shards_disjoint_exhaustive_and_balanced(self, data):
        n = data.draw(st.integers(1, 300))
        num_clients = data.draw(st.integers(1, min(n, 12)))
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        stratified = data.draw(st.booleans())
        shards = partition_clients(labels, num_clients, data.draw(st.integers(0, 2**32 - 1)),
                                   stratified)
        assert len(shards) == num_clients
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(n))
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        if stratified:
            for c in np.unique(labels):
                counts = [np.count_nonzero(labels[shard] == c) for shard in shards]
                assert max(counts) - min(counts) <= 1


class TestLocalTrain:
    def test_tiny_lr_leaves_params_nearly_unchanged(self):
        x, y = toy_separable()
        model = small_nam()
        before = [t.copy() for t in model.param_tensors()]
        client = make_client(0, x, y, model, lr=1e-300, kind=SGD)
        local_train(client, epochs=2, batch_size=16, control=ControlConfig(), rng=0)
        for a, b in zip(before, client.model.param_tensors()):
            assert np.allclose(a, b, atol=1e-12)

    def test_separable_toy_reaches_full_accuracy(self):
        x, y = toy_separable(n=60, seed=1)
        model = small_nam(rng_seed=1)
        client = make_client(0, x, y, model, lr=0.01)
        for _ in range(200):
            log = local_train(client, epochs=1, batch_size=16, control=ControlConfig(), rng=0)
            stats = evaluate_model(client.model, client.x, client.y)
            if stats["accuracy"] == 1.0:
                break
        assert stats["accuracy"] == 1.0

    def test_loss_decreases_over_training(self):
        x, y = toy_separable(n=100, seed=2)
        model = small_nam(rng_seed=2)
        client = make_client(0, x, y, model, lr=0.01)
        first, _ = _loss_and_accuracy(client.model, x, y, 0.5)
        for r in range(10):
            local_train(client, epochs=5, batch_size=16, control=ControlConfig(), rng=r)
        assert _loss_and_accuracy(client.model, x, y, 0.5)[0] < first

    @pytest.mark.parametrize("task", [BINARY, MULTICLASS])
    @pytest.mark.parametrize("setting", sorted(ROUND_CONTROLS))
    def test_round_record_scores_the_restored_parameters(self, task, setting):
        """The record's validation loss and accuracy are those of a fresh pass
        of the restored parameters over the monitor rows, bit for bit."""
        x, y = toy_separable(n=40) if task == BINARY else toy_three_class(n=40)
        model = build_nam(2, task, n_classes=3, hidden_layers=1, hidden_units=8, rng=0)
        client = make_client(0, x, y, model, val_fraction=0.25)
        entry = local_train(client, epochs=4, batch_size=8, control=ROUND_CONTROLS[setting], rng=0,
                            threshold=0.3)
        assert (entry.val_loss, entry.val_acc) == _loss_and_accuracy(
            client.model, client.monitor_x, client.monitor_y, 0.3)
        assert entry.stopped_early == (setting == "stopped_early")
        assert len(entry.val_losses) == (2 if setting == "stopped_early" else 4)
        if setting != "default":  # the restored epoch is the first, not the last
            assert entry.val_loss == entry.val_losses[0] != entry.val_losses[-1]

    # the finite checks report a diverged run; NumPy warns of nothing first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_loss_reports_client(self):
        x, y = toy_separable(n=8)
        model = small_nam()
        poisoned = model.param_tensors()
        poisoned[0] = np.full_like(poisoned[0], np.nan)
        model.set_param_tensors(poisoned)
        client = make_client(3, x, y, model, kind=SGD)
        with pytest.raises(TrainingError, match="client 3"):
            local_train(client, epochs=1, batch_size=4, control=ControlConfig(), rng=0)

    @staticmethod
    def nan_validation_client():
        """A client whose one NaN sits in a validation row, so training stays finite."""
        x, y = toy_separable(n=40)
        x[0, 0] = np.nan  # rows[:n_val] validate
        return make_client(2, x, y, small_nam(), val_fraction=0.25)

    def test_nan_validation_row_raises_training_error(self):
        with pytest.raises(TrainingError, match="client 2: non-finite validation loss"):
            local_train(self.nan_validation_client(), epochs=3, batch_size=8,
                        control=ControlConfig(), rng=0)

    def test_hooks_see_only_finite_losses(self, monkeypatch):
        """local_train checks each validation loss before either control hook reads it."""
        import fednam.federation as federation_module

        seen = []
        # each hook and the position of the loss among its arguments
        for name, at in (("schedule_lr", 2), ("early_stop_update", 1)):
            def record(*args, _real=getattr(federation_module, name), _at=at):
                seen.append(args[_at])
                return _real(*args)
            monkeypatch.setattr(federation_module, name, record)
        x, y = toy_separable(n=40)
        local_train(make_client(0, x, y, small_nam(), val_fraction=0.25), epochs=3, batch_size=8,
                    control=ControlConfig(), rng=0)
        assert len(seen) == 6  # the wrappers are live: both hooks, three epochs
        with pytest.raises(TrainingError, match="non-finite validation loss"):
            local_train(self.nan_validation_client(), epochs=3, batch_size=8,
                        control=ControlConfig(), rng=0)
        assert len(seen) == 6 and all(np.isfinite(seen))


class TestFedAvg:
    def test_two_client_scalar_example(self):
        # single shared weight: clients hold 2.0 (n=100) and 4.0 (n=300)
        def constant_model(value):
            model = small_nam()
            tensors = model.param_tensors()
            tensors = [np.full_like(t, value) for t in tensors]
            model.set_param_tensors(tensors)
            return model

        a = make_client(0, np.zeros((100, 2)), np.zeros(100, dtype=int), constant_model(2.0))
        b = make_client(1, np.zeros((300, 2)), np.zeros(300, dtype=int), constant_model(4.0))
        merged = fed_avg([a, b])
        for t in merged.param_tensors():
            assert np.allclose(t, 3.5, atol=1e-12)

    def test_idempotent_on_identical_clients(self):
        model = small_nam(rng_seed=5)
        a = make_client(0, np.zeros((10, 2)), np.zeros(10, dtype=int), model.copy())
        b = make_client(1, np.zeros((30, 2)), np.zeros(30, dtype=int), model.copy())
        merged = fed_avg([a, b])
        for t, ref in zip(merged.param_tensors(), model.param_tensors()):
            assert np.array_equal(t, ref)

    def test_matches_weighted_mean_oracle(self):
        rng = np.random.default_rng(6)
        counts = [5, 7, 11]
        clients = []
        for cid, n in enumerate(counts):
            model = small_nam(rng_seed=cid + 10)
            clients.append(make_client(cid, np.zeros((n, 2)), np.zeros(n, dtype=int), model))
        merged = fed_avg(clients)
        oracle = weighted_mean_tensors(
            [c.model.param_tensors() for c in clients], counts
        )
        for got, want in zip(merged.param_tensors(), oracle):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_convexity_coordinatewise(self):
        clients = [
            make_client(cid, np.zeros((n, 2)), np.zeros(n, dtype=int), small_nam(rng_seed=cid))
            for cid, n in enumerate([3, 9, 4])
        ]
        merged = fed_avg(clients)
        stacks = [c.model.param_tensors() for c in clients]
        for j, t in enumerate(merged.param_tensors()):
            lo = np.minimum.reduce([s[j] for s in stacks])
            hi = np.maximum.reduce([s[j] for s in stacks])
            assert np.all(t >= lo - 1e-15) and np.all(t <= hi + 1e-15)

    def test_architecture_mismatch_rejected(self):
        a = make_client(0, np.zeros((5, 2)), np.zeros(5, dtype=int), small_nam())
        b = make_client(
            1, np.zeros((5, 2)), np.zeros(5, dtype=int),
            build_nam(2, BINARY, hidden_layers=2, hidden_units=8, rng=0),
        )
        with pytest.raises(ShapeMismatchError):
            fed_avg([a, b])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_weight_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 50, size=int(rng.integers(2, 6)))
        coeffs = counts / counts.sum()
        assert abs(coeffs.sum() - 1.0) <= 1e-12


def tiny_dataset(tmp_path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a, b = rng.normal(), rng.normal()
        rows.append([a, b, int(a + b > 0)])
    path = write_csv(tmp_path / "toy.csv", ["f1", "f2", "target"], rows)
    return load_dataset(path, HEART, SplitSpec(test_fraction=0.2, seed=seed))


def nam_factory(dataset):
    def factory(rng):
        return build_nam(len(dataset.feature_names), dataset.task, n_classes=dataset.n_classes,
                         hidden_layers=1, hidden_units=8, rng=rng)
    return factory


def adam_factory():
    return OptimizerState(kind="adam", learning_rate=0.01)


@pytest.mark.parametrize("call,error,message", [
    (lambda: EnsembleModel([]), ShapeMismatchError, "^an ensemble needs at least one member$"),
    (lambda: fed_avg([]), ShapeMismatchError, "^fed_avg needs at least one client$"),
    (lambda: partition_clients(np.zeros(4), 0, seed=0), ConfigError, "^num_clients must be >= 1, got 0$"),
    (lambda: local_train(make_client(4, *toy_separable(8), small_nam()), 0, 4, ControlConfig(), 0),
     TrainingError, "^client 4: epochs must be >= 1$"),
    (lambda: local_train(make_client(4, *toy_separable(8), small_nam()), 1, 0, ControlConfig(), 0),
     TrainingError, "^client 4: batch_size must be >= 1$"),
], ids=["empty_ensemble", "fed_avg_no_clients", "no_clients", "no_epochs", "no_batch"])
def test_empty_or_zero_inputs_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestRunFederation:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            FederationConfig(local_epochs=0)
        with pytest.raises(ConfigError):
            FederationConfig(num_clients=0)
        with pytest.raises(ConfigError):
            FederationConfig(aggregation="median")

    def test_run_is_deterministic(self, tmp_path):
        dataset = tiny_dataset(tmp_path)
        cfg = FederationConfig(num_clients=3, rounds=3, local_epochs=2, seed=5)
        rounds = [[], []]
        results = [
            run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8,
                           on_round=logs.append)
            for logs in rounds
        ]
        for a, b in zip(results[0].global_model.param_tensors(),
                        results[1].global_model.param_tensors()):
            assert np.array_equal(a, b)
        assert rounds[0][-1].global_val_acc == rounds[1][-1].global_val_acc

    def test_round_logs_complete(self, tmp_path):
        dataset = tiny_dataset(tmp_path)
        cfg = FederationConfig(num_clients=3, rounds=4, local_epochs=1, seed=1)
        logs = []
        run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8,
                       on_round=logs.append)
        assert [log.round_index for log in logs] == [1, 2, 3, 4]
        for log in logs:
            assert [e.client_id for e in log.clients] == [0, 1, 2]
            for e in log.clients:  # one loss each per epoch run, then the round-end score
                assert len(e.train_losses) == len(e.val_losses) == 1 and not e.stopped_early
                assert np.isfinite(e.val_loss) and 0.0 <= e.val_acc <= 1.0

    def test_round_scores_use_the_run_threshold(self, tmp_path):
        """The last round's client scores are the clients' final models scored
        on their monitor rows at the run's threshold."""
        dataset = tiny_dataset(tmp_path)
        cfg = FederationConfig(num_clients=3, rounds=2, local_epochs=2, seed=1)
        logs = []
        result = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8,
                                val_fraction=0.5, threshold=0.3, on_round=logs.append)
        scores = {t: [_loss_and_accuracy(c.model, c.monitor_x, c.monitor_y, t) for c in result.clients]
                  for t in (0.3, 0.5)}
        assert [(e.val_loss, e.val_acc) for e in logs[-1].clients] == scores[0.3]
        assert scores[0.3] != scores[0.5]  # the threshold decides some row

    def test_single_client_matches_centralized_bitwise(self, tmp_path):
        dataset = tiny_dataset(tmp_path, n=50, seed=3)
        cfg = FederationConfig(num_clients=1, rounds=4, local_epochs=3, seed=11)
        fed = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        central = train_centralized(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        for a, b in zip(fed.global_model.param_tensors(), central.param_tensors()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stratified", [True, False])
    def test_clients_are_dealt_by_the_config_rule(self, tmp_path, stratified):
        dataset = tiny_dataset(tmp_path, n=60, seed=4)
        assert FederationSection().to_config(5).stratified  # the default deals each label in turn
        cfg = FederationSection(num_clients=3, rounds=1, local_epochs=1).to_config(5, stratified)
        result = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        shards = partition_clients(dataset.y_train, 3, 5, stratified)
        other = partition_clients(dataset.y_train, 3, 5, not stratified)
        assert not all(map(np.array_equal, shards, other))  # the two rules deal apart here
        for client, shard in zip(result.clients, shards):
            assert np.array_equal(client.x, dataset.X_train[shard])

    def test_shape_average_mode_trains_independently(self, tmp_path):
        dataset = tiny_dataset(tmp_path, n=60, seed=4)
        cfg = FederationConfig(num_clients=2, rounds=2, local_epochs=2,
                               aggregation=SHAPE_AVERAGE, seed=2)
        result = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        assert result.global_model is None
        assert isinstance(result.global_predictor, EnsembleModel)
        x = dataset.X_test[:4]
        mean_logits = np.mean(
            [m.forward_batch(x)[0] for m in result.global_predictor.members], axis=0
        )
        got, _ = result.global_predictor.forward_batch(x)
        assert np.allclose(got, mean_logits, atol=1e-15)

    def test_validation_accuracy_not_collapsing(self, tmp_path):
        dataset = tiny_dataset(tmp_path, n=120, seed=6)
        cfg = FederationConfig(num_clients=3, rounds=8, local_epochs=3, seed=6)
        logs = []
        run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8,
                       on_round=logs.append)
        assert logs[-1].global_val_acc >= logs[0].global_val_acc

    @pytest.mark.filterwarnings("ignore")
    def test_client_failure_preserves_partial_logs(self, tmp_path, monkeypatch):
        import fednam.federation as federation_module

        dataset = tiny_dataset(tmp_path, n=60, seed=7)
        cfg = FederationConfig(num_clients=2, rounds=10, local_epochs=2, seed=7)
        real_local_train = federation_module.local_train
        calls = {"n": 0}

        def flaky_local_train(client, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 5:  # first client of round 3
                raise TrainingError(f"client {client.client_id}: injected failure")
            return real_local_train(client, *args, **kwargs)

        monkeypatch.setattr(federation_module, "local_train", flaky_local_train)
        logs = []
        with pytest.raises(TrainingError, match="round 3"):
            run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8,
                           on_round=logs.append)
        assert [log.round_index for log in logs] == [1, 2]


@pytest.mark.parametrize("aggregation", [BOTH, SHAPE_AVERAGE])
@pytest.mark.parametrize("kind", [ADAM, SGD])
def test_a_run_holds_the_vectors_its_bound_counts(iris_csv, kind, aggregation):
    """`check_pass_memory` counts a run's parameter vectors: per client, the
    parameters and, under Adam, its two moments; and the training client's
    gradient buffer, early-stop snapshot and optimizer result. The global
    model is dropped once broadcast, so it is never held beside those. The
    run's peak stays within that count, and once it returns only the clients'
    vectors and the global model remain."""
    dataset = load_dataset(iris_csv, IRIS)

    def factory(rng):
        return build_nam(len(dataset.feature_names), dataset.task, dataset.n_classes, hidden_layers=3,
                         hidden_units=256, rng=rng)

    clients = 3 * (3 if kind == ADAM else 1)
    counted = clients + 3  # the training client's gradient buffer, snapshot and optimizer result
    kept = clients + (aggregation == BOTH)
    cfg = FederationConfig(num_clients=3, rounds=3, local_epochs=3, aggregation=aggregation, seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_federation(dataset, cfg, factory, lambda: OptimizerState(kind=kind, learning_rate=0.01),
                                batch_size=16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vector = result.clients[0].model.params.nbytes
    assert (peak - start) / vector < counted + 0.5
    assert (held - start) / vector < kept + 0.5


def counted_pass_bytes(dataset, model: ModelConfig, batch_size: int) -> int:
    """The bytes `check_pass_memory` counts for one training pass, read from
    the line it refuses the config with under a bound of 0 bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tune, "MAX_PASS_BYTES", 0)
        with pytest.raises(ConfigError, match="training pass of") as refused:
            tune.check_pass_memory(dataset, RunConfig(model=model, batch_size=batch_size))
    return int(re.search(r"pass of (\d+) bytes", str(refused.value)).group(1))


@pytest.mark.parametrize("rows,units", [(1024, 64), (300, 300), (32, 512)])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("activation", [RELU, EXU])
@pytest.mark.parametrize("layers", [1, 2, 3, 5])
def test_a_training_pass_holds_what_its_bound_counts(layers, activation, dropout, rows, units):
    """`check_pass_memory` counts, per hidden layer, its output and, under
    dropout, its mask, four working arrays, the block product above
    GRAD_BLOCK_ROWS rows and, in an ExU net of two or more hidden layers, one
    exp(W) stack. One training forward+backward of 13 feature nets into given
    gradient views peaks within that count."""
    model_config = ModelConfig(hidden_layers=layers, hidden_units=units, unit_kind=activation, dropout=dropout)
    dataset = SimpleNamespace(feature_names=[f"f{k}" for k in range(13)], y_train=np.zeros(rows), task=BINARY,
                              n_classes=2)
    counted = counted_pass_bytes(dataset, model_config, rows)
    model = build_nam(13, BINARY, hidden_layers=layers, hidden_units=units, hidden_activation=activation,
                      dropout_rate=dropout, rng=0)
    rng = np.random.default_rng(1)
    x, dlogits = rng.normal(size=(rows, 13)), rng.normal(size=(rows, 1))
    out = model.split(np.empty_like(model.params))
    model.backward_batch(model.forward_batch(x, TRAIN, 2)[1], dlogits, out)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, cache = model.forward_batch(x, TRAIN, 2)
        model.backward_batch(cache, dlogits, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= counted


@pytest.mark.parametrize("kind", [ADAM, SGD])
def test_a_large_batch_run_holds_what_its_bounds_count(tmp_path, kind):
    """Above GRAD_BLOCK_ROWS rows, backward adds each block's product to a
    weight gradient through a temporary of that gradient's size, which
    `check_pass_memory` counts beside the pass's layer arrays. With 300-unit
    layers, wider than the 260-row batch, the run's peak stays within the
    pass that bound counts and the vectors it counts."""
    table = write_csv(tmp_path / "heart.csv", HEART_COLUMNS, synthetic_heart_rows(1500))
    dataset = load_dataset(table, HEART)
    features, layers, units, batch = len(dataset.feature_names), 2, 300, 260
    assert batch > GRAD_BLOCK_ROWS

    def factory(rng):
        return build_nam(features, dataset.task, dataset.n_classes, hidden_layers=layers,
                         hidden_units=units, rng=rng)

    counted = (3 if kind == ADAM else 1) + 3
    pass_bytes = counted_pass_bytes(dataset, ModelConfig(hidden_layers=layers, hidden_units=units), batch)
    cfg = FederationConfig(num_clients=1, rounds=2, local_epochs=1, seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_federation(dataset, cfg, factory, lambda: OptimizerState(kind=kind, learning_rate=0.01),
                                batch_size=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.clients[0].train_rows) > batch
    assert peak - start < counted * result.clients[0].model.params.nbytes + pass_bytes
