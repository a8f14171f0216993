"""Tests for repro.learn.network.MLPStack — same-architecture networks
behind one parameter buffer, one gradient buffer and one batched pass."""

import copy
import pickle

import numpy as np
import pytest

from repro.learn.layers import Linear
from repro.learn.losses import SoftmaxCrossEntropy
from repro.learn.network import MLP, MLPStack
from repro.learn.optim import SGD, Adam
from repro.learn.training import Dataset, Trainer


def make_stack(hidden=(8, 8), n=4, seed=0):
    rng = np.random.default_rng(seed)
    return MLPStack([MLP(5, list(hidden), 3, rng=rng) for _ in range(n)])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def member_logits(stack, x, counts, first=0):
    rows, start = [], 0
    for i, n in enumerate(counts):
        rows.append(stack.models[first + i].predict(x[start : start + n]))
        start += n
    return np.concatenate(rows)


class TestParameterBlocks:
    def test_members_keep_their_values_and_become_views(self):
        rng = np.random.default_rng(1)
        models = [MLP(5, [8], 3, rng=rng) for _ in range(3)]
        before = [m.state_dict() for m in models]
        stack = MLPStack(models)
        assert stack.models == tuple(models)
        assert [m.state_dict() for m in models] == before
        # 5·8 + 8 + 8·3 + 3 parameters a member, one member a row.
        assert stack.params.shape == stack.grads.shape == (3, 75)
        for position in (0, 2):
            weight, bias, grad_weight, grad_bias = stack.blocks[position]
            assert weight.shape == (3,) + models[0].layers[position].weight.shape
            assert bias.shape == (3, 1, weight.shape[2])
            assert grad_weight.shape == weight.shape
            assert grad_bias.shape == bias.shape
            for block, buffer in (
                (weight, stack.params),
                (bias, stack.params),
                (grad_weight, stack.grads),
                (grad_bias, stack.grads),
            ):
                assert np.shares_memory(block, buffer)
            for k, model in enumerate(models):
                layer = model.layers[position]
                assert isinstance(layer, Linear)
                assert np.shares_memory(layer.weight, weight[k])
                assert np.shares_memory(layer.bias, bias[k])
                assert np.shares_memory(layer.grad_weight, grad_weight[k])
                assert np.shares_memory(layer.grad_bias, grad_bias[k])
                assert layer.bias.shape == layer.grad_bias.shape
                assert layer.bias.shape == (weight.shape[2],)
                # Member-major: a member's every array lies in its own row.
                for array in (layer.weight, layer.grad_weight):
                    assert not np.shares_memory(array, stack.params[k - 1])
                    assert not np.shares_memory(array, stack.grads[k - 1])
        assert stack.blocks[1] is models[0].layers[1]  # the ReLU between

    def test_members_keep_their_gradients(self):
        rng = np.random.default_rng(9)
        models = [MLP(5, [8], 3, rng=rng) for _ in range(2)]
        for model in models:
            model.forward(rng.normal(size=(4, 5)))
            model.backward(rng.normal(size=(4, 3)))
        before = [
            [grad.copy() for _, _value, grad in m.parameters()] for m in models
        ]
        MLPStack(models)
        for model, grads in zip(models, before):
            for (_, _value, grad), old in zip(model.parameters(), grads):
                assert same_bits(grad, old)

    def test_a_lone_network_is_a_stack_of_one(self):
        model = MLP(5, [8], 3, rng=np.random.default_rng(10))
        for stacked in (False, True):
            if stacked:
                MLPStack([MLP(5, [8], 3), model])
            linear, relu, head = model.blocks
            assert relu is model.layers[1]
            for block, layer in ((linear, model.layers[0]), (head, model.layers[2])):
                weight, bias, grad_weight, grad_bias = block
                assert weight.shape == (1,) + layer.weight.shape
                assert bias.shape == (1, 1) + layer.bias.shape
                assert np.shares_memory(weight, layer.weight)
                assert np.shares_memory(bias, layer.bias)
                assert np.shares_memory(grad_weight, layer.grad_weight)
                assert np.shares_memory(grad_bias, layer.grad_bias)

    def test_rejects_mixed_architectures_and_nothing(self):
        with pytest.raises(ValueError, match="one architecture"):
            MLPStack([MLP(5, [8], 3), MLP(5, [9], 3)])
        with pytest.raises(ValueError, match="one architecture"):
            MLPStack([MLP(5, [8], 3), MLP(5, [8, 8], 3)])
        with pytest.raises(ValueError, match="at least one"):
            MLPStack([])

    def test_models_is_a_tuple(self):
        stack = make_stack()
        with pytest.raises(TypeError):
            stack.models[0] = MLP(5, [8, 8], 3)


@pytest.mark.parametrize("hidden", [(), (8,), (8, 8)])
class TestBatchedPass:
    @pytest.mark.parametrize(
        "counts, first",
        [
            ([6, 6, 6, 6], 0),  # rectangular: one product per layer
            ([6, 6], 1),  # a shorter horizon, not from the first member
            ([1, 1, 1], 0),  # single rows take BLAS's vector path
            ([2, 7, 3, 5], 0),  # ragged: one product per member
            ([4, 4, 2, 2], 0),  # runs of equal counts
            ([3], 3),
        ],
    )
    def test_rows_are_each_members_own(self, hidden, counts, first):
        stack = make_stack(hidden)
        x = np.random.default_rng(2).normal(size=(sum(counts), 5))
        logits = stack.predict(x, counts, first)
        assert same_bits(logits, member_logits(stack, x, counts, first))
        probs = stack.predict_proba(x, counts, first)
        start = 0
        for i, n in enumerate(counts):
            own = stack.models[first + i].predict_proba(x[start : start + n])
            assert same_bits(probs[start : start + n], own)
            start += n

    def test_shape_errors(self, hidden):
        stack = make_stack(hidden)
        x = np.zeros((6, 5))
        with pytest.raises(ValueError, match="input width"):
            stack.predict(np.zeros((6, 4)), [3, 3])
        with pytest.raises(ValueError, match="add up"):
            stack.predict(x, [3, 2])
        with pytest.raises(ValueError, match="outside the stack"):
            stack.predict(x, [3, 3], first=3)
        with pytest.raises(ValueError, match="outside the stack"):
            stack.predict(x, [3, 3], first=-1)
        with pytest.raises(ValueError, match="outside the stack"):
            stack.predict(x, [1, 1, 1, 1, 2])


class TestWriteThrough:
    """Whatever changes a member's parameters does so in place, so the
    block the batched pass reads is never behind."""

    X = np.random.default_rng(3).normal(size=(8, 5))
    COUNTS = [2, 2, 2, 2]

    def assert_current(self, stack):
        assert same_bits(
            stack.predict(self.X, self.COUNTS),
            member_logits(stack, self.X, self.COUNTS),
        )

    @pytest.mark.parametrize(
        "optimizer",
        [
            lambda m: SGD(m, lr=0.1, momentum=0.5, weight_decay=0.01),
            lambda m: Adam(m, lr=0.01, weight_decay=0.01),
        ],
        ids=["sgd", "adam"],
    )
    def test_trainer_fit(self, optimizer):
        stack = make_stack()
        before = stack.predict(self.X, self.COUNTS)
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(40, 5)), rng.integers(0, 3, 40))
        model = stack.models[2]
        Trainer(
            model, SoftmaxCrossEntropy(), optimizer=optimizer(model), epochs=3
        ).fit(data, validation=data)
        self.assert_current(stack)
        after = stack.predict(self.X, self.COUNTS)
        assert same_bits(after[:4], before[:4])
        assert not same_bits(after[4:6], before[4:6])
        assert same_bits(after[6:], before[6:])

    @pytest.mark.parametrize(
        "optimizer",
        [
            lambda m: SGD(m, lr=0.1, momentum=0.5),
            lambda m: Adam(m, lr=0.01),
        ],
        ids=["sgd", "adam"],
    )
    def test_optimizer_on_a_member_reads_the_gradient_block(self, optimizer):
        # Pensieve's per-model loop: forward, zero_grad, backward, step on
        # one member. Its gradients land in the stack's gradient buffer and
        # its update in the parameter buffer, and only in its own row.
        stack = make_stack()
        model = stack.models[1]
        opt = optimizer(model)
        params, grads = stack.params.copy(), stack.grads.copy()
        rng = np.random.default_rng(11)
        for _ in range(3):
            model.forward(rng.normal(size=(6, 5)))
            opt.zero_grad()
            model.backward(rng.normal(size=(6, 3)))
            opt.step()
        self.assert_current(stack)
        changed = np.arange(len(stack.models)) == 1
        for now, before in ((stack.params, params), (stack.grads, grads)):
            for k, moved in enumerate(changed):
                assert same_bits(now[k], before[k]) != moved
        flat = np.concatenate(
            [grad.ravel() for _, _value, grad in model.parameters()]
        )
        assert same_bits(flat, stack.grads[1])

    def test_optimizer_on_the_stack_steps_a_run_of_members(self):
        stack = make_stack()
        rng = np.random.default_rng(12)
        stack.grads[...] = rng.normal(size=stack.grads.shape)
        grads = stack.grads.copy()
        twin = make_stack()
        opt = Adam(stack, lr=0.01)
        for members in (slice(0, 4), slice(1, 3), slice(1, 3), slice(3, 4)):
            opt.step(members)
        assert opt._t == [1, 3, 3, 2]
        self.assert_current(stack)
        # Each member moved as under an optimizer of its own, stepped as
        # many times as it was.
        for k, steps in enumerate(opt._t):
            model = twin.models[k]
            own = Adam(model, lr=0.01)
            for _ in range(steps):
                for (_, _value, grad), peer in zip(
                    model.parameters(), stack.models[k].parameters()
                ):
                    grad[...] = peer[2]
                own.step()
            assert same_bits(twin.params[k], stack.params[k])
        assert same_bits(stack.grads, grads)
        opt.zero_grad()
        assert not stack.grads.any()

    def test_load_state_dict(self):
        stack = make_stack(seed=5)
        donor = MLP(5, [8, 8], 3, rng=np.random.default_rng(6))
        stack.models[1].load_state_dict(donor.state_dict())
        self.assert_current(stack)
        assert same_bits(
            stack.predict(self.X, self.COUNTS)[2:4], donor.predict(self.X[2:4])
        )

    def test_a_members_copy_is_detached(self):
        stack = make_stack(seed=7)
        before = stack.predict(self.X, self.COUNTS)
        clone = stack.models[0].copy()
        for _, value, _grad in clone.parameters():
            value += 1.0
        assert same_bits(stack.predict(self.X, self.COUNTS), before)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda stack: pickle.loads(pickle.dumps(stack))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_duplicate_is_rebuilt_around_its_own_block(self, duplicate):
        stack = make_stack(seed=8)
        before = stack.predict(self.X, self.COUNTS)
        twin = duplicate(stack)
        assert same_bits(twin.predict(self.X, self.COUNTS), before)
        for _, value, _grad in twin.models[3].parameters():
            value -= 0.25
        self.assert_current(twin)
        assert not same_bits(twin.predict(self.X, self.COUNTS), before)
        assert same_bits(stack.predict(self.X, self.COUNTS), before)
