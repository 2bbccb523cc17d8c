import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import weighted_mean_tensors
from conftest import write_csv
from fednam.control import ControlConfig
from fednam.data import HEART, SplitSpec, load_dataset
from fednam.errors import ConfigError, DataError, ShapeMismatchError, TrainingError
from fednam.federation import (
    SHAPE_AVERAGE,
    ClientState,
    EnsembleModel,
    FederationConfig,
    evaluate_model,
    fed_avg,
    local_train,
    partition_clients,
    run_federation,
    train_centralized,
)
from fednam.nam import build_nam
from fednam.nn import BINARY, OptimizerState, SGD


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
        first = evaluate_model(client.model, x, y)["loss"]
        for r in range(10):
            local_train(client, epochs=5, batch_size=16, control=ControlConfig(), rng=r)
        assert evaluate_model(client.model, x, y)["loss"] < first

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
        return build_nam(dataset.X.shape[1], dataset.task, n_classes=dataset.n_classes,
                         hidden_layers=1, hidden_units=8, rng=rng)
    return factory


def adam_factory():
    return OptimizerState(kind="adam", learning_rate=0.01)


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
        results = [
            run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
            for _ in range(2)
        ]
        for a, b in zip(results[0].global_model.param_tensors(),
                        results[1].global_model.param_tensors()):
            assert np.array_equal(a, b)
        assert results[0].round_logs[-1].global_val_acc == results[1].round_logs[-1].global_val_acc

    def test_round_logs_complete(self, tmp_path):
        dataset = tiny_dataset(tmp_path)
        cfg = FederationConfig(num_clients=3, rounds=4, local_epochs=1, seed=1)
        result = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        assert [log.round_index for log in result.round_logs] == [1, 2, 3, 4]
        for log in result.round_logs:
            assert [e.client_id for e in log.clients] == [0, 1, 2]

    def test_single_client_matches_centralized_bitwise(self, tmp_path):
        dataset = tiny_dataset(tmp_path, n=50, seed=3)
        cfg = FederationConfig(num_clients=1, rounds=4, local_epochs=3, seed=11)
        fed = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        central = train_centralized(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        for a, b in zip(fed.global_model.param_tensors(), central.param_tensors()):
            assert np.array_equal(a, b)

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
        result = run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        assert result.round_logs[-1].global_val_acc >= result.round_logs[0].global_val_acc

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
        with pytest.raises(TrainingError, match="round 3") as excinfo:
            run_federation(dataset, cfg, nam_factory(dataset), adam_factory, batch_size=8)
        logs = excinfo.value.partial_logs
        assert [log.round_index for log in logs] == [1, 2]
