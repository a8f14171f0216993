"""Neural-network substrate built from scratch on numpy.

The paper trains its Transmission Time Predictor (TTP) with PyTorch; this
package provides the minimal equivalent needed by the reproduction: dense
layers, activations, softmax cross-entropy, SGD/Adam optimizers, and a
``Trainer`` supporting minibatching, per-sample weights (the paper weights
recent days more heavily), validation splits, and warm starts.

Everything operates on ``float64`` numpy arrays with samples along axis 0.
"""

from repro.learn.layers import Layer, Linear, ReLU, Sequential
from repro.learn.losses import Loss, MeanSquaredError, SoftmaxCrossEntropy, HuberLoss
from repro.learn.network import MLP, MLPStack
from repro.learn.optim import SGD, Adam, Optimizer
from repro.learn.training import Dataset, Trainer, TrainingReport

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Sequential",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "HuberLoss",
    "MLP",
    "MLPStack",
    "Optimizer",
    "SGD",
    "Adam",
    "Dataset",
    "Trainer",
    "TrainingReport",
]
