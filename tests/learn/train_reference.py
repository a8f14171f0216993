"""Supervised training as it was before the stacked loop, frozen.

``tests/learn/test_train_differential.py`` holds the live ``Trainer`` —
one lockstep loop over an ``MLPStack`` — to these functions bit for bit.
They are the per-model procedure written out in full: one network at a
time, a ``Dataset``-style subset per batch, ``np.where`` ReLU,
``Linear.backward`` accumulating into zeroed gradients, the softmax
computed twice, and Adam parameter by parameter with temporaries. Nothing
here imports ``repro.learn``, so a later change to ``src/`` cannot move
the reference along with the code under test.
"""

import numpy as np


class ReferenceLinear:
    def __init__(self, weight, bias):
        self.weight = np.array(weight, dtype=float)
        self.bias = np.array(bias, dtype=float)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input = None

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_out):
        grad_out = np.atleast_2d(grad_out)
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def parameters(self):
        yield "weight", self.weight, self.grad_weight
        yield "bias", self.bias, self.grad_bias


class ReferenceReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def infer(self, x):
        return np.where(x > 0, x, 0.0)

    def backward(self, grad_out):
        return np.where(self._mask, grad_out, 0.0)

    def parameters(self):
        return iter(())


class ReferenceNetwork:
    """A Linear(+ReLU) chain over *copies* of ``(weight, bias)`` pairs."""

    def __init__(self, pairs):
        self.layers = []
        for i, (weight, bias) in enumerate(pairs):
            if i:
                self.layers.append(ReferenceReLU())
            self.layers.append(ReferenceLinear(weight, bias))

    @classmethod
    def of(cls, model):
        """Frozen twin of a live ``MLP``, read through its public arrays."""
        return cls(
            [
                (layer.weight, layer.bias)
                for layer in model.layers
                if hasattr(layer, "weight")
            ]
        )

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, value, grad in layer.parameters():
                yield f"{i}.{name}", value, grad

    def zero_grad(self):
        for _, __, grad in self.parameters():
            grad.fill(0.0)

    def state(self):
        return {name: value.copy() for name, value, _ in self.parameters()}

    def load_state(self, state):
        for name, value, _ in self.parameters():
            value[...] = state[name]


class ReferenceAdam:
    def __init__(
        self, model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
        weight_decay=0.0,
    ):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {}
        self._v = {}
        self._t = 0

    def zero_grad(self):
        self.model.zero_grad()

    def step(self):
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for name, value, grad in self.model.parameters():
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            m = self._m.setdefault(name, np.zeros_like(value))
            v = self._v.setdefault(name, np.zeros_like(value))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class ReferenceSGD:
    def __init__(self, model, lr=1e-2, momentum=0.0, weight_decay=0.0):
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {}

    def zero_grad(self):
        self.model.zero_grad()

    def step(self):
        for name, value, grad in self.model.parameters():
            update = grad
            if self.weight_decay:
                update = update + self.weight_decay * value
            if self.momentum:
                vel = self._velocity.setdefault(name, np.zeros_like(value))
                vel *= self.momentum
                vel += update
                update = vel
            value -= self.lr * update


def _normalize_weights(weights, n):
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"expected {n} sample weights, got shape {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("sample weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("sample weights must not all be zero")
    return weights * (n / total)


def _log_softmax(logits):
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_cross_entropy(output, target, weights=None):
    """The old ``SoftmaxCrossEntropy.__call__``: log-softmax for the loss,
    then softmax — a second log-softmax — for the gradient."""
    logits = np.atleast_2d(output)
    target = np.asarray(target, dtype=int).ravel()
    n, k = logits.shape
    if target.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {target.shape}")
    if target.min() < 0 or target.max() >= k:
        raise ValueError(f"targets must lie in [0, {k})")
    w = _normalize_weights(weights, n)
    logp = _log_softmax(logits)
    loss = float(-(w * logp[np.arange(n), target]).mean())
    grad = np.exp(_log_softmax(logits))
    grad[np.arange(n), target] -= 1.0
    grad *= (w / n)[:, None]
    return loss, grad


def reference_fit(
    model,
    optimizer,
    features,
    targets,
    weights=None,
    validation=None,
    *,
    batch_size=64,
    epochs=50,
    patience=5,
    seed=0,
):
    """The old ``Trainer.fit`` on one network. ``validation`` is a
    ``(features, targets, weights)`` triple or ``None``. Returns the report
    as a dict of the old ``TrainingReport``'s fields."""
    rng = np.random.default_rng(seed)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)

    def evaluate(held):
        value, _ = reference_cross_entropy(model.forward(held[0]), *held[1:])
        return value

    report = {
        "train_losses": [],
        "validation_losses": [],
        "epochs_run": 0,
        "stopped_early": False,
    }
    best_val = float("inf")
    best_state = None
    stale_epochs = 0
    n = len(features)
    for _ in range(epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            index = perm[start : start + batch_size]
            output = model.forward(features[index])
            value, grad = reference_cross_entropy(
                output,
                targets[index],
                None if weights is None else weights[index],
            )
            optimizer.zero_grad()
            model.backward(grad)
            optimizer.step()
            epoch_loss += value
            batches += 1
        report["train_losses"].append(epoch_loss / max(batches, 1))
        report["epochs_run"] += 1
        if validation is not None:
            val = evaluate(validation)
            report["validation_losses"].append(val)
            if val < best_val - 1e-9:
                best_val = val
                best_state = model.state()
                stale_epochs = 0
            else:
                stale_epochs += 1
                if patience is not None and stale_epochs >= patience:
                    report["stopped_early"] = True
                    break
    if best_state is not None:
        model.load_state(best_state)
    return report
