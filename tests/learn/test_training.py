"""Tests for repro.learn.training — datasets, trainer, early stopping."""

import numpy as np
import pytest

from repro.learn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.learn.network import MLP
from repro.learn.optim import Adam
from repro.learn.training import Dataset, Trainer


def toy_classification(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return Dataset(x, y)


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), np.ones(2))

    def test_subset(self):
        ds = Dataset(np.arange(10).reshape(5, 2), np.arange(5), np.ones(5))
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.targets, [0, 2])

    def test_split_sizes(self):
        ds = toy_classification(100)
        train, val = ds.split(0.25, np.random.default_rng(0))
        assert len(train) == 75
        assert len(val) == 25

    def test_split_disjoint_and_complete(self):
        ds = Dataset(np.arange(20).reshape(10, 2), np.arange(10))
        train, val = ds.split(0.3, np.random.default_rng(1))
        combined = sorted(list(train.targets) + list(val.targets))
        assert combined == list(range(10))

    def test_split_invalid_fraction(self):
        ds = toy_classification(10)
        with pytest.raises(ValueError):
            ds.split(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ds.split(1.0, np.random.default_rng(0))

    def test_concatenate(self):
        a = toy_classification(10, seed=0)
        b = toy_classification(20, seed=1)
        merged = Dataset.concatenate([a, b])
        assert len(merged) == 30

    def test_concatenate_mixed_weights(self):
        a = Dataset(np.zeros((2, 1)), np.zeros(2), np.full(2, 0.5))
        b = Dataset(np.zeros((3, 1)), np.zeros(3))  # no weights -> 1.0
        merged = Dataset.concatenate([a, b])
        np.testing.assert_array_equal(merged.weights, [0.5, 0.5, 1, 1, 1])

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset.concatenate([])


class TestTrainer:
    def test_learns_linearly_separable_problem(self):
        ds = toy_classification(300)
        net = MLP(2, [16], 2, rng=np.random.default_rng(0))
        trainer = Trainer(
            net,
            SoftmaxCrossEntropy(),
            optimizer=Adam(net, lr=1e-2),
            epochs=30,
            seed=0,
        )
        report = trainer.fit(ds)
        predictions = net.predict_proba(ds.features).argmax(axis=1)
        accuracy = (predictions == ds.targets).mean()
        assert accuracy > 0.95
        assert report.train_losses[-1] < report.train_losses[0]

    def test_early_stopping_triggers(self):
        ds = toy_classification(120)
        train, val = ds.split(0.25, np.random.default_rng(0))
        net = MLP(2, [8], 2, rng=np.random.default_rng(0))
        trainer = Trainer(
            net,
            SoftmaxCrossEntropy(),
            optimizer=Adam(net, lr=1e-2),
            epochs=200,
            patience=3,
            seed=0,
        )
        report = trainer.fit(train, validation=val)
        assert report.epochs_run < 200
        assert report.stopped_early

    def test_best_validation_weights_restored(self):
        ds = toy_classification(120)
        train, val = ds.split(0.25, np.random.default_rng(0))
        net = MLP(2, [8], 2, rng=np.random.default_rng(0))
        trainer = Trainer(
            net, SoftmaxCrossEntropy(), epochs=60, patience=5, seed=0
        )
        report = trainer.fit(train, validation=val)
        final_val = trainer.evaluate(val)
        assert final_val <= min(report.validation_losses) + 1e-9

    def test_sample_weighting_shifts_fit(self):
        # Two clusters with contradictory labels; weights decide which wins.
        x = np.array([[1.0, 0.0]] * 20 + [[1.0, 0.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        weights = np.array([10.0] * 20 + [0.1] * 20)
        ds = Dataset(x, y, weights)
        net = MLP(2, [8], 2, rng=np.random.default_rng(0))
        Trainer(
            net,
            SoftmaxCrossEntropy(),
            optimizer=Adam(net, lr=1e-2),
            epochs=40,
            seed=0,
        ).fit(ds)
        predicted = net.predict_proba(np.array([[1.0, 0.0]]))[0].argmax()
        assert predicted == 0

    def test_regression_with_mse(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 1))
        y = 3 * x + 1
        net = MLP(1, [], 1, rng=rng)
        trainer = Trainer(
            net,
            MeanSquaredError(),
            optimizer=Adam(net, lr=5e-2),
            epochs=100,
            seed=0,
        )
        trainer.fit(Dataset(x, y))
        pred = net.predict(np.array([[2.0]]))
        assert abs(pred[0, 0] - 7.0) < 0.3

    def test_invalid_hyperparameters(self):
        net = MLP(2, [], 2)
        with pytest.raises(ValueError):
            Trainer(net, SoftmaxCrossEntropy(), batch_size=0)
        with pytest.raises(ValueError):
            Trainer(net, SoftmaxCrossEntropy(), epochs=0)

    def test_deterministic_given_seed(self):
        def train_once():
            ds = toy_classification(100, seed=7)
            net = MLP(2, [8], 2, rng=np.random.default_rng(3))
            Trainer(net, SoftmaxCrossEntropy(), epochs=5, seed=11).fit(ds)
            return net.predict(np.ones((1, 2)))

        np.testing.assert_array_equal(train_once(), train_once())


class TestBadDatasetLeavesTheModelUntouched:
    """Targets and weights are checked once per fit, before the first step:
    a bad row in a late batch must not leave the earlier batches' steps in
    the model."""

    def data(self, rng, n=300):
        return rng.normal(size=(n, 4)), rng.integers(0, 3, n)

    def test_a_late_label_out_of_range(self):
        rng = np.random.default_rng(0)
        net = MLP(4, [8], 3, rng=rng)
        x, y = self.data(rng)
        y[-1] = 7
        before = net.state_dict()
        with pytest.raises(ValueError, match=r"training dataset 0: targets "
                           r"must lie in \[0, 3\)"):
            Trainer(net, SoftmaxCrossEntropy(), batch_size=32).fit(
                Dataset(x, y)
            )
        assert net.state_dict() == before

    @pytest.mark.parametrize("fault", ["label", "weight", "validation"])
    def test_a_stack_keeps_its_parameter_bytes(self, fault):
        from repro.learn.network import MLPStack

        rng = np.random.default_rng(1)
        stack = MLPStack([MLP(4, [8], 3, rng=rng) for _ in range(3)])
        datasets = [Dataset(*self.data(rng), np.ones(300)) for _ in range(3)]
        validation = [Dataset(*self.data(rng, 40)) for _ in range(3)]
        if fault == "label":
            datasets[2].targets[-1] = -1
            match = "training dataset 2: targets must lie"
        elif fault == "weight":
            datasets[1].weights[-1] = -0.5
            match = "training dataset 1: sample weights must be non-negative"
        else:
            validation[0].targets[0] = 3
            match = "validation dataset 0: targets must lie"
        before = stack.params.tobytes()
        trainer = Trainer(stack, SoftmaxCrossEntropy(), batch_size=32,
                          seed=[0, 1, 2])
        with pytest.raises(ValueError, match=match):
            trainer.fit(datasets, validation=validation)
        assert stack.params.tobytes() == before
