"""The stacked training loop against its frozen per-model predecessor.

``Trainer`` runs every member of an ``MLPStack`` in lockstep — one batched
forward pass, one loss, one backward pass into the gradient block and one
optimizer step per minibatch index. That must change *when* arithmetic
happens and never *which*: every member ends on the float64 bits, and
reports the losses, it would have trained to alone under the old loop
(``tests/learn/train_reference.py``). No tolerance anywhere in this file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fugu import make_fugu_variant
from repro.core.train import TtpTrainer
from repro.learn.layers import ReLU
from repro.learn.losses import SoftmaxCrossEntropy
from repro.learn.network import MLP, MLPStack
from repro.learn.optim import SGD, Adam
from repro.learn.training import Dataset, Trainer

from tests.learn.train_reference import (
    ReferenceAdam,
    ReferenceNetwork,
    ReferenceReLU,
    ReferenceSGD,
    reference_cross_entropy,
    reference_fit,
)

IN, OUT = 4, 3


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def make_data(rng, n, weights, in_features=IN, out_features=OUT):
    """``(features, targets, weights)`` of ``n`` rows."""
    w = None
    if weights == "recency":
        w = rng.choice([1.0, 0.9, 0.81, 0.9**13], size=n)
    elif weights == "some_zero":
        w = rng.choice([0.0, 0.0, 1.0, 0.9, 0.5], size=n)
    return (
        rng.normal(size=(n, in_features)),
        rng.integers(0, out_features, n),
        w,
    )


def assert_same_training(models, twins, reports, references):
    for k, (model, twin) in enumerate(zip(models, twins)):
        live = [value for _, value, _grad in model.parameters()]
        frozen = [value for _, value, _grad in twin.parameters()]
        assert len(live) == len(frozen)
        for a, b in zip(live, frozen):
            assert same_bits(a, b), f"member {k}: parameters differ"
        report, reference = reports[k], references[k]
        assert same_bits(report.train_losses, reference["train_losses"])
        assert same_bits(
            report.validation_losses, reference["validation_losses"]
        )
        assert report.epochs_run == reference["epochs_run"]
        assert report.stopped_early == reference["stopped_early"]


def train_both(
    models,
    fit,
    data,
    validation,
    seeds,
    *,
    lr,
    weight_decay=0.0,
    batch_size,
    epochs,
    patience,
):
    """One day of training, live (``fit(datasets, validation)``: the caller
    binds trainer and optimizer) and frozen, compared bit for bit. When the
    old loop rejects a member's data (a batch whose weights are all zero),
    the new one must reject the call too."""
    twins = [ReferenceNetwork.of(model) for model in models]
    try:
        references = [
            reference_fit(
                twin,
                ReferenceAdam(twin, lr=lr, weight_decay=weight_decay),
                *rows,
                validation=None if validation is None else validation[k],
                batch_size=batch_size,
                epochs=epochs,
                patience=patience,
                seed=seeds[k],
            )
            for k, (twin, rows) in enumerate(zip(twins, data))
        ]
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            fit(
                [Dataset(*rows) for rows in data],
                None
                if validation is None
                else [Dataset(*rows) for rows in validation],
            )
        return
    reports = fit(
        [Dataset(*rows) for rows in data],
        None if validation is None else [Dataset(*rows) for rows in validation],
    )
    assert_same_training(models, twins, reports, references)


def sizes_for(draw, shape, n, batch_size):
    """Row counts per member. Different counts mean different numbers of
    batches, so the members' optimizer step counts drift apart and the
    late minibatch indices find only some of them still running."""
    if shape == "equal":
        return [draw(st.integers(1, 3 * batch_size))] * n
    if shape == "sub_batch":
        return [draw(st.integers(1, batch_size - 1)) for _ in range(n)]
    if shape == "straddle":
        # A row either side of a multiple of the batch size: a full last
        # batch, a one-row last batch, or one batch fewer.
        multiple = draw(st.integers(1, 3)) * batch_size
        return [multiple + draw(st.integers(-1, 1)) for _ in range(n)]
    if shape == "late_empty":
        # One member is out of batches (or has none at all) while the
        # others still have several to go.
        sizes = [
            draw(st.integers(2 * batch_size + 1, 4 * batch_size))
            for _ in range(n)
        ]
        sizes[draw(st.integers(0, n - 1))] = draw(st.integers(0, batch_size))
        return sizes
    return [draw(st.integers(1, 4 * batch_size)) for _ in range(n)]


@st.composite
def trainings(draw):
    n = draw(st.integers(1, 5))
    batch_size = draw(st.integers(2, 6))
    shape = draw(
        st.sampled_from(
            ["equal", "ragged", "sub_batch", "straddle", "late_empty"]
        )
    )
    return {
        "n": n,
        "hidden": draw(st.sampled_from([(), (6,), (7, 5)])),
        "batch_size": batch_size,
        "sizes": sizes_for(draw, shape, n, batch_size),
        "weights": draw(st.sampled_from(["uniform", "recency", "some_zero"])),
        "validate": draw(st.booleans()),
        "patience": draw(st.sampled_from([None, 1, 2])),
        "epochs": draw(st.integers(1, 5)),
        "weight_decay": draw(st.sampled_from([0.0, 0.0, 0.01])),
        "seed": draw(st.integers(0, 2**16)),
    }


def stack_trainer(stack, *, lr, weight_decay, seeds, **kwargs):
    return Trainer(
        stack,
        SoftmaxCrossEntropy(),
        optimizer=Adam(stack, lr=lr, weight_decay=weight_decay),
        seed=seeds,
        **kwargs,
    )


class TestStackAgainstThePerModelLoop:
    @given(case=trainings())
    @settings(max_examples=120, deadline=None)
    def test_two_warm_started_days(self, case):
        rng = np.random.default_rng(case["seed"])
        n = case["n"]
        stack = MLPStack(
            [MLP(IN, list(case["hidden"]), OUT, rng=rng) for _ in range(n)]
        )
        # A learning rate that moves the validation loss both ways within a
        # few epochs, so members stop early in different epochs.
        options = {
            "lr": 0.05,
            "weight_decay": case["weight_decay"],
            "batch_size": case["batch_size"],
            "epochs": case["epochs"],
            "patience": case["patience"],
        }
        for day in range(2):
            # The retrainer's shape: a new trainer, new optimizer state and
            # new seeds every day, yesterday's weights.
            seeds = [case["seed"] + 31 * day + k for k in range(n)]
            data = [
                make_data(rng, size + day, case["weights"])
                for size in case["sizes"]
            ]
            validation = (
                [make_data(rng, 9, "recency") for _ in range(n)]
                if case["validate"]
                else None
            )
            train_both(
                stack.models,
                stack_trainer(stack, seeds=seeds, **options).fit,
                data,
                validation,
                seeds,
                **options,
            )

    @given(case=trainings())
    @settings(max_examples=30, deadline=None)
    def test_a_lone_network_and_a_stack_member(self, case):
        """``Trainer(model)`` is the stack of one, whether ``model`` owns
        its arrays or is a member of a stack (whose other members must not
        move)."""
        rng = np.random.default_rng(case["seed"])
        options = {
            "lr": 0.05,
            "weight_decay": case["weight_decay"],
            "batch_size": case["batch_size"],
            "epochs": case["epochs"],
            "patience": case["patience"],
        }
        lone = MLP(IN, list(case["hidden"]), OUT, rng=rng)
        stack = MLPStack(
            [MLP(IN, list(case["hidden"]), OUT, rng=rng) for _ in range(3)]
        )
        others = stack.params[[0, 2]].copy()
        for model in (lone, stack.models[1]):
            data = make_data(rng, case["sizes"][0], case["weights"])
            validation = (
                make_data(rng, 9, "uniform") if case["validate"] else None
            )
            trainer = Trainer(
                model,
                SoftmaxCrossEntropy(),
                optimizer=Adam(
                    model, lr=0.05, weight_decay=case["weight_decay"]
                ),
                batch_size=case["batch_size"],
                epochs=case["epochs"],
                patience=case["patience"],
                seed=case["seed"],
            )

            def fit(datasets, held):
                return [
                    trainer.fit(
                        datasets[0], None if held is None else held[0]
                    )
                ]

            train_both(
                [model],
                fit,
                [data],
                None if validation is None else [validation],
                [case["seed"]],
                **options,
            )
        assert same_bits(stack.params[[0, 2]], others)

    def test_sgd_on_a_member(self):
        rng = np.random.default_rng(5)
        stack = MLPStack([MLP(IN, [6], OUT, rng=rng) for _ in range(2)])
        model = stack.models[0]
        twin = ReferenceNetwork.of(model)
        data = make_data(rng, 23, "recency")
        hyper = {"lr": 0.1, "momentum": 0.5, "weight_decay": 0.01}
        reference = reference_fit(
            twin, ReferenceSGD(twin, **hyper), *data,
            batch_size=5, epochs=3, seed=8,
        )
        report = Trainer(
            model, SoftmaxCrossEntropy(), optimizer=SGD(model, **hyper),
            batch_size=5, epochs=3, seed=8,
        ).fit(Dataset(*data))
        assert_same_training([model], [twin], [report], [reference])


@pytest.mark.parametrize("variant", ["full", "shallow", "linear", "throughput"])
def test_ttp_trainer_trains_the_variants_to_the_same_bits(variant):
    """``TtpTrainer.train`` — one ``fit`` over the predictor's stack,
    member ``k`` seeded ``seed + k`` — on the real architectures: 22 inputs,
    64-wide hidden layers, none (``linear``) or one (``shallow``)."""
    ttp, _ = make_fugu_variant(variant, seed=3, horizon=3)
    rng = np.random.default_rng(4)
    bins = ttp.config.n_output_bins
    for day, sizes in enumerate([(70, 64, 33), (97, 96, 95)]):
        twins = [ReferenceNetwork.of(model) for model in ttp.models]
        data = [make_data(rng, size, "recency", 22, bins) for size in sizes]
        references = [
            reference_fit(
                twin, ReferenceAdam(twin, lr=1e-3), *rows,
                batch_size=32, epochs=3, seed=11 + day + k,
            )
            for k, (twin, rows) in enumerate(zip(twins, data))
        ]
        reports = TtpTrainer(
            ttp, epochs=3, batch_size=32, seed=11 + day
        ).train([Dataset(*rows) for rows in data])
        assert_same_training(ttp.models, twins, reports, references)


class TestTrainerArguments:
    def test_a_stack_needs_a_seed_and_a_dataset_per_member(self):
        stack = MLPStack([MLP(IN, [], OUT) for _ in range(2)])
        with pytest.raises(ValueError, match="one seed per"):
            Trainer(stack, SoftmaxCrossEntropy(), seed=0)
        with pytest.raises(ValueError, match="one seed per"):
            Trainer(stack.models[0], SoftmaxCrossEntropy(), seed=[0, 1])
        trainer = Trainer(stack, SoftmaxCrossEntropy(), seed=[0, 1])
        data = Dataset(*make_data(np.random.default_rng(0), 6, "uniform"))
        with pytest.raises(ValueError, match="one dataset per"):
            trainer.fit([data])
        with pytest.raises(ValueError, match="one dataset per"):
            trainer.fit([data, data], validation=[data])

    def test_the_optimizer_must_be_bound_to_the_trained_model(self):
        stack = MLPStack([MLP(IN, [], OUT) for _ in range(2)])
        with pytest.raises(ValueError, match="bound to"):
            Trainer(
                stack,
                SoftmaxCrossEntropy(),
                optimizer=Adam(stack.models[0]),
                seed=[0, 1],
            )


SPECIAL = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5]
)


class TestBranchFreeReLU:
    """``fmax`` + 0.0 and the integer mask against ``np.where``, on every
    pairing of the values where they could differ."""

    def test_forward_and_infer(self):
        live, frozen = ReLU(), ReferenceReLU()
        for x in (SPECIAL, SPECIAL.reshape(3, 3), SPECIAL[None, :, None]):
            assert same_bits(live.infer(x), frozen.infer(x))
            assert same_bits(live.forward(x), frozen.forward(x))
            assert np.array_equal(live._mask, frozen._mask)

    def test_backward(self):
        x, grad = (a.ravel() for a in np.meshgrid(SPECIAL, SPECIAL))
        live, frozen = ReLU(), ReferenceReLU()
        live.forward(x)
        frozen.forward(x)
        with np.errstate(invalid="ignore"):
            assert same_bits(live.backward(grad), frozen.backward(grad))
        # As np.where did, the mask broadcasts against the gradient.
        stacked = np.stack([grad, -grad])
        assert same_bits(live.backward(stacked), frozen.backward(stacked))

    @given(seed=st.integers(0, 2**16), rows=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_on_activations(self, seed, rows):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, rows, 7)) * rng.choice([1e-310, 1.0, 1e300])
        grad = rng.normal(size=x.shape)
        live, frozen = ReLU(), ReferenceReLU()
        assert same_bits(live.infer(x), frozen.infer(x))
        assert same_bits(live.forward(x), frozen.forward(x))
        assert same_bits(live.backward(grad), frozen.backward(grad))


class TestCrossEntropy:
    @given(
        seed=st.integers(0, 2**16),
        members=st.integers(1, 4),
        n=st.integers(1, 150),
        weights=st.sampled_from(["uniform", "recency", "some_zero"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_and_stacked_match_the_two_pass_loss(
        self, seed, members, n, weights
    ):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(members, n, 21)) * rng.choice([1.0, 30.0])
        rows = [make_data(rng, n, weights, out_features=21) for _ in range(members)]
        targets = np.stack([target for _, target, _ in rows])
        loss = SoftmaxCrossEntropy()
        try:
            frozen = [
                reference_cross_entropy(logits[k], targets[k], rows[k][2])
                for k in range(members)
            ]
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                for k in range(members):
                    loss(logits[k], targets[k], rows[k][2])
            return
        for k, (value, grad) in enumerate(frozen):
            live_value, live_grad = loss(logits[k], targets[k], rows[k][2])
            assert isinstance(live_value, float)
            assert same_bits(live_value, value)
            assert same_bits(live_grad, grad)
        stacked = np.stack(
            [np.ones(n) if w is None else w for _, _, w in rows]
        )
        before = logits.copy()
        values, grads = loss.stacked(logits, targets, stacked)
        assert same_bits(logits, before)  # the caller's logits are not scratch
        assert same_bits(values, [value for value, _ in frozen])
        assert same_bits(grads, np.stack([grad for _, grad in frozen]))
