"""Supervised-learning trainer.

Implements the training procedure from §4.3: minibatch stochastic gradient
descent on a loss, with shuffling ("we shuffle the sampled data to remove
correlation in the sequence of inputs"), per-sample weights ("we weight more
recent days more heavily"), an optional validation split with early stopping,
and warm starts from an existing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.learn.layers import Layer
from repro.learn.losses import Loss, first_bad_row
from repro.learn.network import MLP, Block, MLPStack
from repro.learn.optim import Adam, Optimizer

Array = np.ndarray


@dataclass
class Dataset:
    """A supervised dataset: feature matrix, targets, optional weights."""

    features: Array
    targets: Array
    weights: Optional[Array] = None

    def __post_init__(self) -> None:
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.targets = np.asarray(self.targets)
        if len(self.targets) != len(self.features):
            raise ValueError("features and targets must have equal length")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if len(self.weights) != len(self.features):
                raise ValueError("weights must match dataset length")

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, index: Array) -> "Dataset":
        return Dataset(
            self.features[index],
            self.targets[index],
            None if self.weights is None else self.weights[index],
        )

    def split(
        self, validation_fraction: float, rng: np.random.Generator
    ) -> "tuple[Dataset, Dataset]":
        """Random train/validation split."""
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        n = len(self)
        perm = rng.permutation(n)
        n_val = max(1, int(round(n * validation_fraction)))
        if n_val >= n:
            raise ValueError("dataset too small for requested validation split")
        return self.subset(perm[n_val:]), self.subset(perm[:n_val])

    @staticmethod
    def concatenate(datasets: "List[Dataset]") -> "Dataset":
        """Stack several datasets (e.g., one per day of telemetry)."""
        if not datasets:
            raise ValueError("cannot concatenate zero datasets")
        feats = np.concatenate([d.features for d in datasets])
        targs = np.concatenate([d.targets for d in datasets])
        if any(d.weights is not None for d in datasets):
            weights = np.concatenate(
                [
                    d.weights if d.weights is not None else np.ones(len(d))
                    for d in datasets
                ]
            )
        else:
            weights = None
        return Dataset(feats, targs, weights)


@dataclass
class TrainingReport:
    """Per-epoch training history."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False


class Trainer:
    """Minibatch trainer for an :class:`MLP` or, in lockstep, for every
    member of an :class:`MLPStack`.

    There is one loop. Per minibatch index it runs one batched forward
    pass, one loss, one backward pass written straight into the gradient
    block and one optimizer step for all members that still have a batch
    at that index; a lone network is the stack of one. Members stay
    independent — own dataset, own seeded shuffle, own optimizer step
    count, own early stopping — and each ends with the float64 bits it
    would have trained to alone: the batched products are the same
    ``(rows, in)·(in, out)`` products slice by slice, sums over a batch run
    in row order, and the rest is elementwise. As in
    :meth:`MLPStack.predict`, members whose batches differ in row count
    (ragged dataset tails) are grouped into runs of equal counts, never
    padded.

    Parameters
    ----------
    model:
        Network, or stack of networks, to train (possibly warm-started
        from a previous day).
    loss:
        Loss object from :mod:`repro.learn.losses`.
    optimizer:
        Bound to ``model``. Defaults to Adam with ``lr=1e-3``.
    batch_size, epochs:
        Minibatch size and maximum epoch count.
    patience:
        If a validation set is used, stop after this many epochs without
        improvement. ``None`` disables early stopping.
    seed:
        Seed of the shuffle generator; for a stack, one per member.
    """

    def __init__(
        self,
        model: Union[MLP, MLPStack],
        loss: Loss,
        optimizer: Optional[Optimizer] = None,
        batch_size: int = 64,
        epochs: int = 50,
        patience: Optional[int] = 5,
        seed: Union[int, Sequence[int]] = 0,
    ) -> None:
        if batch_size <= 0 or epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        self.model = model
        self._members: Tuple[MLP, ...] = (
            model.models if isinstance(model, MLPStack) else (model,)
        )
        seeds = [seed] if isinstance(seed, int) else list(seed)
        if len(seeds) != len(self._members):
            raise ValueError("need one seed per stacked model")
        if optimizer is not None and optimizer.model is not model:
            # One bound to a member would step that member on every
            # member's gradients.
            raise ValueError("the optimizer must be bound to the trained model")
        self.loss = loss
        self.optimizer = optimizer if optimizer is not None else Adam(model)
        self.batch_size = batch_size
        self.epochs = epochs
        self.patience = patience
        self.rngs = [np.random.default_rng(s) for s in seeds]

    @property
    def rng(self) -> np.random.Generator:
        """The shuffle generator (of a stack's first member)."""
        return self.rngs[0]

    def evaluate(self, dataset: Dataset, member: int = 0) -> float:
        """Loss of one network over a dataset without updating parameters."""
        output = self._members[member].forward(dataset.features)
        value, _ = self.loss(output, dataset.targets, dataset.weights)
        return value

    def fit(
        self,
        dataset: Union[Dataset, Sequence[Dataset]],
        validation: Union[None, Dataset, Sequence[Dataset]] = None,
    ) -> Union[TrainingReport, List[TrainingReport]]:
        """Train the model, returning the epoch-by-epoch history: for a
        stack, from one dataset (and validation set) per member, one
        report per member."""
        if isinstance(self.model, MLPStack):
            return self._fit(dataset, validation)
        reports = self._fit(
            [dataset], None if validation is None else [validation]
        )
        return reports[0]

    def _fit(
        self,
        datasets: Sequence[Dataset],
        validation: Optional[Sequence[Dataset]],
    ) -> List[TrainingReport]:
        members = range(len(self._members))
        if len(datasets) != len(members) or (
            validation is not None and len(validation) != len(members)
        ):
            raise ValueError("need one dataset per stacked model")
        width = self._members[0].out_features
        for kind, sets in (("training", datasets), ("validation", validation)):
            for k, dataset in enumerate(sets or ()):
                try:
                    finite = np.isfinite(dataset.features).all(axis=1)
                    first_bad_row(~finite, "features must be finite")
                    self.loss.validate(dataset.targets, dataset.weights, width)
                except ValueError as exc:
                    raise ValueError(f"{kind} dataset {k}: {exc}") from None
        blocks = self.model.blocks
        # The members' rows one after another, one array per column, so a
        # batch of several members is one gather per column. Absent
        # weights are ones: normalized, they are ones again, bit for bit.
        columns = [
            np.concatenate(column)
            for column in zip(
                *(
                    (
                        dataset.features,
                        dataset.targets,
                        dataset.weights
                        if dataset.weights is not None
                        else np.ones(len(dataset)),
                    )
                    for dataset in datasets
                )
            )
        ]
        offsets = np.cumsum([0] + [len(dataset) for dataset in datasets])
        reports = [TrainingReport() for _ in members]
        best_val = [float("inf") for _ in members]
        best_state: List[Optional[dict]] = [None for _ in members]
        stale_epochs = [0 for _ in members]
        running = [True for _ in members]
        for _ in range(self.epochs):
            if not any(running):
                break
            # A stopped member draws no further shuffle and has no batch;
            # a running one's permutation indexes its rows of ``columns``.
            perms = [
                self.rngs[k].permutation(len(datasets[k])) + offsets[k]
                if running[k]
                else np.empty(0, dtype=int)
                for k in members
            ]
            epoch_loss = [0.0 for _ in members]
            batches = [0 for _ in members]
            for start in range(0, max(map(len, perms)), self.batch_size):
                stop = start + self.batch_size
                first = 0
                for rows, run in groupby(
                    len(perm[start:stop]) for perm in perms
                ):
                    span = slice(first, first + len(list(run)))
                    first = span.stop
                    if not rows:
                        continue
                    index = np.concatenate(
                        [perm[start:stop] for perm in perms[span]]
                    )
                    lead = (span.stop - span.start, rows)
                    # One gather per column, then members along axis 0:
                    # (members, rows, ...) each.
                    features, targets, weights = (
                        np.take(column, index, axis=0).reshape(
                            lead + column.shape[1:]
                        )
                        for column in columns
                    )
                    output, inputs = _forward(blocks, features, span)
                    values, grad = self.loss.stacked(output, targets, weights)
                    _backward(blocks, inputs, grad, span)
                    self.optimizer.step(span)
                    for k, value in zip(members[span], values.tolist()):
                        epoch_loss[k] += value
                        batches[k] += 1
            for k in members:
                if not running[k]:
                    continue
                report = reports[k]
                report.train_losses.append(epoch_loss[k] / max(batches[k], 1))
                report.epochs_run += 1
                if validation is None:
                    continue
                val = self.evaluate(validation[k], member=k)
                report.validation_losses.append(val)
                if val < best_val[k] - 1e-9:
                    best_val[k] = val
                    best_state[k] = self._members[k].state_dict()
                    stale_epochs[k] = 0
                else:
                    stale_epochs[k] += 1
                    if (
                        self.patience is not None
                        and stale_epochs[k] >= self.patience
                    ):
                        report.stopped_early = True
                        running[k] = False
        for model, state in zip(self._members, best_state):
            if state is not None:
                model.load_state_dict(state)
        return reports


def _forward(
    blocks: Sequence[Block], h: Array, span: slice
) -> Tuple[Array, List[Array]]:
    """The training pass of the stacked members ``span`` over their batches
    ``h (members, rows, in)``: the logits, and each Linear's input."""
    inputs = []
    for block in blocks:
        if isinstance(block, Layer):
            h = block.forward(h)
        else:
            inputs.append(h)
            h = np.matmul(h, block[0][span])
            h += block[1][span]
    return h, inputs


def _backward(
    blocks: Sequence[Block], inputs: List[Array], grad: Array, span: slice
) -> None:
    """Overwrite the gradient blocks of members ``span`` with the gradients
    of one batch each (nothing accumulates, so nothing is zeroed first)."""
    for position in reversed(range(len(blocks))):
        block = blocks[position]
        if isinstance(block, Layer):
            grad = block.backward(grad)
            continue
        weight, _, grad_weight, grad_bias = block
        np.matmul(
            inputs.pop().transpose(0, 2, 1), grad, out=grad_weight[span]
        )
        np.sum(grad, axis=1, keepdims=True, out=grad_bias[span])
        if position:  # nothing reads the gradient of the features
            grad = np.matmul(grad, weight[span].transpose(0, 2, 1))
