"""Neural-network substrate built from scratch on numpy.

The paper trains its Transmission Time Predictor (TTP) with PyTorch; this
package provides the minimal equivalent needed by the reproduction: dense
layers, activations, softmax cross-entropy, SGD/Adam optimizers, and a
``Trainer`` supporting minibatching, per-sample weights (the paper weights
recent days more heavily), validation splits, and warm starts.

Everything operates on ``float64`` numpy arrays with samples along axis 0.
"""
