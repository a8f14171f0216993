"""Multi-layer perceptron with JSON serialization.

The paper's TTP is "a fully-connected neural network, with two hidden layers
with 64 neurons each" (§4.5); ``MLP`` generalizes that shape so the ablation
study (shallow/linear variants) reuses the same machinery.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.learn.layers import DEFAULT_INIT_SEED, Linear, ReLU, Sequential
from repro.learn.losses import softmax

Array = np.ndarray


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
        layers: List = []
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
