"""Unit tests for the Module/layer system."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def _tiny_net(rng=None):
    rng = rng or np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.Conv2d(4, 4, 2, stride=2, rng=rng),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 2, rng=rng),
    )


class TestModuleRegistration:
    def test_parameters_discovered_recursively(self):
        net = _tiny_net()
        names = [name for name, _ in net.named_parameters()]
        assert "0.weight" in names
        assert "1.gamma" in names
        assert "5.bias" in names

    def test_buffers_discovered(self):
        net = _tiny_net()
        buffer_names = [name for name, _ in net.named_buffers()]
        assert "1.running_mean" in buffer_names
        assert "1.running_var" in buffer_names

    def test_num_parameters(self):
        lin = nn.Linear(3, 2, rng=np.random.default_rng(0))
        assert lin.num_parameters() == 3 * 2 + 2

    def test_modules_iteration(self):
        net = _tiny_net()
        kinds = {type(m).__name__ for m in net.modules()}
        assert {"Sequential", "Conv2d", "BatchNorm2d"} <= kinds

    def test_zero_grad(self):
        net = _tiny_net()
        x = Tensor(np.random.default_rng(0).random((2, 1, 8, 8)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestTrainEvalModes:
    def test_mode_propagates(self):
        net = _tiny_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_batchnorm_differs_between_modes(self):
        rng = np.random.default_rng(3)
        bn = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(5.0, 2.0, size=(8, 2, 4, 4)))
        train_out = bn(x).data.copy()
        bn.eval()
        eval_out = bn(x).data
        assert not np.allclose(train_out, eval_out)

    def test_dropout_identity_in_eval(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = Tensor(np.ones((4, 4)))
        drop.eval()
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_dropout_scales_in_train(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        # Keep rate should be near 50%.
        assert 0.4 < (out > 0).mean() < 0.6

    def test_dropout_validates_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestStateDict:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        net_a = _tiny_net(np.random.default_rng(1))
        net_b = _tiny_net(np.random.default_rng(2))
        x = Tensor(rng.random((2, 1, 8, 8)))
        net_a.eval(), net_b.eval()
        assert not np.allclose(net_a(x).data, net_b(x).data)
        net_b.load_state_dict(net_a.state_dict())
        np.testing.assert_allclose(net_a(x).data, net_b(x).data)

    def test_state_dict_copies(self):
        net = _tiny_net()
        state = net.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.allclose(dict(net.named_parameters())["0.weight"].data, 99.0)

    def test_missing_key_raises(self):
        net = _tiny_net()
        state = net.state_dict()
        del state["0.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self):
        net = _tiny_net()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = _tiny_net()
        state = net.state_dict()
        state["0.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestLayers:
    def test_linear_shapes(self, rng):
        lin = nn.Linear(5, 3, rng=rng)
        out = lin(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_linear_no_bias(self, rng):
        lin = nn.Linear(5, 3, bias=False, rng=rng)
        assert lin.bias is None
        assert lin(Tensor(np.zeros((1, 5)))).data.sum() == 0.0

    def test_conv_layer_shapes(self, rng):
        conv = nn.Conv2d(2, 6, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(np.ones((1, 2, 8, 8))))
        assert out.shape == (1, 6, 4, 4)

    def test_deconv_layer_shapes(self, rng):
        deconv = nn.ConvTranspose2d(6, 2, 4, stride=2, padding=1, rng=rng)
        out = deconv(Tensor(np.ones((1, 6, 4, 4))))
        assert out.shape == (1, 2, 8, 8)

    def test_activation_layers(self):
        x = Tensor(np.array([-1.0, 2.0]))
        assert nn.ReLU()(x).data.tolist() == [0.0, 2.0]
        np.testing.assert_allclose(nn.LeakyReLU(0.5)(x).data, [-0.5, 2.0])
        assert 0 < nn.Sigmoid()(x).data[0] < 0.5
        np.testing.assert_allclose(nn.Tanh()(x).data, np.tanh([-1.0, 2.0]))

    def test_sequential_indexing(self):
        net = _tiny_net()
        assert isinstance(net[0], nn.Conv2d)
        assert len(net) == 6
        assert isinstance(list(net)[1], nn.BatchNorm2d)

    def test_upsample_layer(self):
        up = nn.UpsampleNearest2d(3)
        assert up(Tensor(np.ones((1, 1, 2, 2)))).shape == (1, 1, 6, 6)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor([1.0]))


class TestEndToEndTraining:
    def test_small_classifier_overfits(self, rng):
        """Network + optimizer must drive BCE near zero on a tiny set —
        an integration check that all layer gradients cooperate."""
        net = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4), nn.ReLU(),
            nn.Conv2d(4, 4, 2, stride=2, rng=rng), nn.Flatten(),
            nn.Linear(4 * 8 * 8, 1, rng=rng), nn.Sigmoid())
        opt = nn.Adam(net.parameters(), lr=1e-2)
        x = Tensor(rng.random((8, 1, 16, 16)))
        y = Tensor((rng.random((8, 1)) > 0.5).astype(float))
        first = last = None
        for _ in range(40):
            opt.zero_grad()
            loss = nn.bce_loss(net(x), y)
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.data)
            last = float(loss.data)
        assert last < first * 0.2
