"""Tests for repro.learn.optim — SGD and Adam behaviour."""

import numpy as np
import pytest

from repro.learn.layers import Linear, ReLU, Sequential
from repro.learn.losses import MeanSquaredError
from repro.learn.optim import SGD, Adam

from tests.learn.train_reference import (
    ReferenceAdam,
    ReferenceNetwork,
    ReferenceSGD,
)


def quadratic_step(optimizer, layer, target):
    """One optimization step on ||Wx - target||^2 with x = ones."""
    x = np.ones((1, layer.in_features))
    out = layer.forward(x)
    _, grad = MeanSquaredError()(out, target)
    optimizer.zero_grad()
    layer.backward(grad)
    optimizer.step()
    return float(((out - target) ** 2).mean())


class TestSGD:
    def test_reduces_loss_on_quadratic(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        opt = SGD(layer, lr=0.1)
        target = np.array([[3.0]])
        losses = [quadratic_step(opt, layer, target) for _ in range(50)]
        assert losses[-1] < losses[0] * 0.01

    def test_momentum_converges(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        opt = SGD(layer, lr=0.05, momentum=0.9)
        target = np.array([[3.0]])
        losses = [quadratic_step(opt, layer, target) for _ in range(80)]
        assert losses[-1] < 1e-3

    def test_weight_decay_shrinks_weights(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight[...] = 10.0
        opt = SGD(layer, lr=0.1, weight_decay=0.5)
        # No data gradient: only decay acts.
        opt.zero_grad()
        opt.step()
        assert np.all(np.abs(layer.weight) < 10.0)

    def test_invalid_hyperparameters_rejected(self):
        layer = Linear(2, 2)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.0)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.1, weight_decay=-1.0)

    def test_step_without_gradient_is_noop(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        before = layer.weight.copy()
        opt = SGD(layer, lr=0.1)
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(layer.weight, before)


class TestAdam:
    def test_reduces_loss_on_quadratic(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        opt = Adam(layer, lr=0.1)
        target = np.array([[3.0]])
        losses = [quadratic_step(opt, layer, target) for _ in range(100)]
        assert losses[-1] < losses[0] * 0.01

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is ~lr in each coord.
        layer = Linear(1, 1, rng=np.random.default_rng(0))
        before = layer.weight.copy()
        opt = Adam(layer, lr=0.01)
        layer.forward(np.ones((1, 1)))
        layer.backward(np.ones((1, 1)))
        opt.step()
        delta = np.abs(layer.weight - before)
        np.testing.assert_allclose(delta, 0.01, rtol=1e-3)

    def test_invalid_betas_rejected(self):
        layer = Linear(2, 2)
        with pytest.raises(ValueError):
            Adam(layer, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(layer, beta2=-0.1)

    def test_handles_multi_layer_model(self):
        from repro.learn.layers import ReLU

        rng = np.random.default_rng(1)
        model = Sequential([Linear(3, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng)])
        opt = Adam(model, lr=0.01)
        x = rng.normal(size=(16, 3))
        y = (x.sum(axis=1, keepdims=True) > 0).astype(float)
        losses = []
        for _ in range(150):
            out = model.forward(x)
            value, grad = MeanSquaredError()(out, y)
            opt.zero_grad()
            model.backward(grad)
            opt.step()
            losses.append(value)
        assert losses[-1] < losses[0] * 0.2


class TestStateIsAllocatedOnce:
    """The per-model path (Pensieve's actor and critic optimizers): state
    arrays are made on a parameter's first step and updated in place from
    then on, and the updates are the old ones bit for bit."""

    @pytest.mark.parametrize(
        "live, frozen, hyper",
        [
            (Adam, ReferenceAdam, {"lr": 0.01}),
            (Adam, ReferenceAdam, {"lr": 0.01, "weight_decay": 0.1}),
            (SGD, ReferenceSGD, {"lr": 0.05, "momentum": 0.9}),
            (
                SGD,
                ReferenceSGD,
                {"lr": 0.05, "momentum": 0.5, "weight_decay": 0.1},
            ),
            (SGD, ReferenceSGD, {"lr": 0.05}),
        ],
    )
    def test_ten_steps(self, live, frozen, hyper):
        rng = np.random.default_rng(2)
        model = Sequential(
            [Linear(3, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng)]
        )
        twin = ReferenceNetwork(
            [(model.layers[0].weight, model.layers[0].bias),
             (model.layers[2].weight, model.layers[2].bias)]
        )
        opt, ref = live(model, **hyper), frozen(twin, **hyper)
        state = None
        for _ in range(10):
            x, grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
            for network, optimizer in ((model, opt), (twin, ref)):
                network.forward(x)
                optimizer.zero_grad()
                network.backward(grad)
                optimizer.step()
            arrays = [
                id(slot) for name in sorted(opt._state)
                for slot in opt._state[name]
            ]
            assert state is None or arrays == state
            state = arrays
        assert len(state) == 4 * {Adam: 4, SGD: bool(hyper.get("momentum"))}[live]
        for (_, value, _grad), (_, old, _old_grad) in zip(
            model.parameters(), twin.parameters()
        ):
            assert value.shape == old.shape
            assert np.array_equal(value.view(np.uint64), old.view(np.uint64))

    def test_no_state_before_the_first_step(self):
        layer = Linear(2, 2)
        assert Adam(layer)._state == {}
        assert SGD(layer, momentum=0.9)._state == {}
