"""Multi-layer perceptron with JSON serialization.

The paper's TTP is "a fully-connected neural network, with two hidden layers
with 64 neurons each" (§4.5); ``MLP`` generalizes that shape so the ablation
study (shallow/linear variants) reuses the same machinery.
"""

from __future__ import annotations

import json
from pathlib import Path
from itertools import groupby
from typing import List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.learn.layers import (
    DEFAULT_INIT_SEED,
    Layer,
    Linear,
    ReLU,
    Sequential,
)
from repro.learn.losses import softmax

Array = np.ndarray

Block = Union[Layer, Tuple[Array, Array, Array, Array]]
"""One layer position of one or more same-architecture networks: a Linear's
``(weight (n, in, out), bias (n, 1, out), grad_weight, grad_bias)`` with the
members along axis 0, or the parameter-free layer itself (a ReLU is
elementwise, so it takes a stacked input as it is)."""


class MLP(Sequential):
    """Fully-connected network: Linear(+ReLU) stacks ending in a linear head.

    ``hidden`` may be empty, producing a plain linear model — the paper's
    "Linear" TTP ablation ("equivalent to a single-layer neural network").
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = DEFAULT_INIT_SEED,
    ) -> None:
        self.in_features = in_features
        self.hidden = list(hidden)
        self.out_features = out_features
        if rng is None:
            # One seeded generator shared by every layer: deterministic,
            # but each layer still draws distinct weights (a per-layer
            # seeded fallback would initialize same-shaped layers
            # identically and break symmetry).
            rng = np.random.default_rng(seed)
        layers: List[Layer] = []
        width = in_features
        for h in self.hidden:
            layers.append(Linear(width, h, rng=rng))
            layers.append(ReLU())
            width = h
        layers.append(Linear(width, out_features, rng=rng))
        super().__init__(layers)

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------
    def predict(self, x: Array) -> Array:
        """The network's output for call sites that never backprop: the same
        values as ``forward``, with no backward cache written."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {x.shape[1]}"
            )
        return self.infer(x)

    def predict_proba(self, x: Array) -> Array:
        """Softmax over the output head — the TTP's probability distribution
        over transmission-time bins."""
        return softmax(self.predict(x))

    @property
    def blocks(self) -> List[Block]:
        """This network as a stack of one: its own arrays under a leading
        member axis. Views, wherever the arrays live — nothing is re-homed,
        so a member of an :class:`MLPStack` stays one."""
        blocks: List[Block] = []
        for layer in self.layers:
            if isinstance(layer, Linear):
                blocks.append(
                    (
                        layer.weight[None],
                        layer.bias[None, None],
                        layer.grad_weight[None],
                        layer.grad_bias[None, None],
                    )
                )
            else:
                blocks.append(layer)
        return blocks

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Return a JSON-serializable snapshot of architecture + weights."""
        weights = {
            name: value.tolist() for name, value, _ in self.parameters()
        }
        return {
            "in_features": self.in_features,
            "hidden": self.hidden,
            "out_features": self.out_features,
            "weights": weights,
        }

    def load_state_dict(self, state: dict) -> None:
        """Load weights saved by :meth:`state_dict` into this network.

        The architecture recorded in ``state`` must match; this is how the
        daily-retraining pipeline warm-starts from yesterday's model (§4.3).
        """
        if (
            state["in_features"] != self.in_features
            or list(state["hidden"]) != self.hidden
            or state["out_features"] != self.out_features
        ):
            raise ValueError("architecture mismatch while loading state dict")
        saved = state["weights"]
        for name, value, _ in self.parameters():
            if name not in saved:
                raise ValueError(f"missing parameter {name!r} in state dict")
            arr = np.asarray(saved[name], dtype=float)
            if arr.shape != value.shape:
                raise ValueError(f"shape mismatch for parameter {name!r}")
            value[...] = arr

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.state_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MLP":
        state = json.loads(Path(path).read_text())
        model = cls(state["in_features"], state["hidden"], state["out_features"])
        model.load_state_dict(state)
        return model

    def copy(self) -> "MLP":
        """Deep copy — used to snapshot 'out-of-date' TTPs for the staleness
        ablation (§4.6)."""
        clone = MLP(self.in_features, self.hidden, self.out_features)
        clone.load_state_dict(self.state_dict())
        return clone


class MLPStack:
    """Same-architecture MLPs behind one parameter buffer, evaluated and
    trained in batched passes.

    Every parameter of every member lives in ``params``, one ``(n, P)``
    float64 buffer with a member per row (per Linear position the weight,
    then the bias), and every gradient in ``grads``, laid out the same. The
    per-position :data:`Block` arrays in ``blocks`` and each member's
    ``Linear.weight`` / ``.bias`` / ``.grad_weight`` / ``.grad_bias`` are
    *views* of the two buffers. Optimizers, :meth:`MLP.load_state_dict` and
    ``Linear.backward`` update those arrays in place, so training or
    reloading a member writes through: there is no copy to refresh and none
    that can go stale. Rebinding a member's arrays would break that, which
    is why ``models`` is a tuple and nothing in the package rebinds them.
    """

    def __init__(self, models: Sequence[MLP]) -> None:
        self.models: Tuple[MLP, ...] = tuple(models)
        if not self.models:
            raise ValueError("need at least one model to stack")
        first = self.models[0]
        shape = (first.in_features, first.hidden, first.out_features)
        if any(
            (m.in_features, m.hidden, m.out_features) != shape
            for m in self.models
        ):
            raise ValueError("stacked models must share one architecture")
        self.in_features = first.in_features
        n = len(self.models)
        width = sum(
            value.size for _, value, _grad in first.parameters()
        )
        self.params = np.empty((n, width))
        self.grads = np.empty((n, width))
        self.blocks: List[Block] = []
        start = 0
        for position, layer in enumerate(first.layers):
            if not isinstance(layer, Linear):
                self.blocks.append(layer)
                continue
            rows, cols = layer.in_features, layer.out_features
            stop = start + rows * cols
            weight, grad_weight = (
                buffer[:, start:stop].reshape(n, rows, cols)
                for buffer in (self.params, self.grads)
            )
            bias, grad_bias = (
                buffer[:, stop : stop + cols].reshape(n, 1, cols)
                for buffer in (self.params, self.grads)
            )
            start = stop + cols
            for k, model in enumerate(self.models):
                peer = cast(Linear, model.layers[position])
                weight[k], bias[k, 0] = peer.weight, peer.bias
                grad_weight[k] = peer.grad_weight
                grad_bias[k, 0] = peer.grad_bias
                peer.weight, peer.bias = weight[k], bias[k, 0]
                peer.grad_weight, peer.grad_bias = grad_weight[k], grad_bias[k, 0]
            self.blocks.append((weight, bias, grad_weight, grad_bias))

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[MLP, ...]]]:
        # Pickle and deepcopy restore each array on its own, which would
        # sever the views; rebuilding from the members re-homes them.
        return (type(self), (self.models,))

    def predict(
        self, x: Array, counts: Sequence[int], first: int = 0
    ) -> Array:
        """Logits of ``x``'s rows: member ``first + i`` reads the next
        ``counts[i]`` of them. Each run of equal counts is one batched
        product per layer — the same ``(rows, in)·(in, out)`` products the
        members would issue one by one, hence the same float64 bits. Runs
        are never padded to a common row count: a row of a BLAS product is
        not independent of how many rows the product has.
        """
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {x.shape}"
            )
        if first < 0 or first + len(counts) > len(self.models):
            raise ValueError("rows for a model outside the stack")
        if sum(counts) != len(x):
            raise ValueError("counts must add up to the number of rows")
        outputs = []
        start = 0
        for rows, run in groupby(counts):
            members = len(list(run))
            stop = start + members * rows
            h = x[start:stop].reshape(members, rows, self.in_features)
            for block in self.blocks:
                if isinstance(block, Layer):
                    h = block.infer(h)
                else:
                    h = np.matmul(h, block[0][first : first + members])
                    h += block[1][first : first + members]
            outputs.append(h.reshape(members * rows, -1))
            first += members
            start = stop
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def predict_proba(
        self, x: Array, counts: Sequence[int], first: int = 0
    ) -> Array:
        """Softmax over :meth:`predict`'s logits, row by row."""
        return softmax(self.predict(x, counts, first))
