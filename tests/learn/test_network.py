"""Tests for repro.learn.network — MLP architecture and serialization."""

import numpy as np
import pytest

from repro.learn.network import MLP


class TestArchitecture:
    def test_two_hidden_layer_shape(self):
        # The TTP's architecture: 22 -> 64 -> 64 -> 21 (§4.5).
        net = MLP(22, [64, 64], 21, rng=np.random.default_rng(0))
        out = net.predict(np.zeros((3, 22)))
        assert out.shape == (3, 21)

    def test_linear_model_when_no_hidden(self):
        net = MLP(4, [], 2, rng=np.random.default_rng(0))
        # A purely linear model: f(a+b) = f(a) + f(b) - f(0).
        a = np.array([[1.0, 2.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 3.0, -1.0]])
        zero = np.zeros((1, 4))
        np.testing.assert_allclose(
            net.predict(a + b), net.predict(a) + net.predict(b) - net.predict(zero)
        )

    def test_predict_proba_normalized(self):
        net = MLP(5, [8], 4, rng=np.random.default_rng(1))
        p = net.predict_proba(np.random.default_rng(2).normal(size=(6, 5)))
        assert p.shape == (6, 4)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_inference_is_forward_without_the_backward_caches(self):
        from repro.learn.losses import softmax

        x = np.random.default_rng(3).normal(size=(7, 5))
        net = MLP(5, [8, 8], 4, rng=np.random.default_rng(1))
        probs = net.predict_proba(x)
        # Nothing was kept for a backward pass...
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.ones((7, 4)))
        # ...and the values are the training pass's, to the bit.
        np.testing.assert_array_equal(net.predict(x), net.forward(x))
        np.testing.assert_array_equal(probs, softmax(net.forward(x)))

    def test_inference_rejects_wrong_width(self):
        net = MLP(5, [8], 4)
        with pytest.raises(ValueError, match="input width"):
            net.predict_proba(np.zeros((2, 6)))

    def test_parameter_count(self):
        net = MLP(22, [64, 64], 21)
        n_params = sum(v.size for _, v, __ in net.parameters())
        expected = 22 * 64 + 64 + 64 * 64 + 64 + 64 * 21 + 21
        assert n_params == expected


class TestSerialization:
    def test_round_trip_preserves_outputs(self, tmp_path):
        net = MLP(6, [16], 3, rng=np.random.default_rng(0))
        path = tmp_path / "model.json"
        net.save(path)
        loaded = MLP.load(path)
        x = np.random.default_rng(1).normal(size=(4, 6))
        np.testing.assert_allclose(loaded.predict(x), net.predict(x))

    def test_load_state_dict_architecture_mismatch(self):
        a = MLP(4, [8], 2)
        b = MLP(4, [16], 2)
        with pytest.raises(ValueError, match="architecture mismatch"):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_shape_check(self):
        a = MLP(4, [8], 2)
        state = a.state_dict()
        state["weights"]["0.weight"] = [[0.0]]
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)

    def test_missing_parameter_rejected(self):
        a = MLP(4, [8], 2)
        state = a.state_dict()
        del state["weights"]["0.bias"]
        with pytest.raises(ValueError, match="missing parameter"):
            a.load_state_dict(state)

    def test_copy_is_independent(self):
        net = MLP(3, [4], 2, rng=np.random.default_rng(0))
        clone = net.copy()
        x = np.ones((1, 3))
        np.testing.assert_allclose(clone.predict(x), net.predict(x))
        # Mutating the original must not affect the copy (the staleness
        # ablation relies on frozen snapshots, §4.6).
        for _, value, __ in net.parameters():
            value += 1.0
        assert not np.allclose(clone.predict(x), net.predict(x))

    def test_state_dict_is_json_serializable(self):
        import json

        net = MLP(3, [4], 2)
        json.dumps(net.state_dict())  # must not raise
