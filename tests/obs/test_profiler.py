"""Profiler tests: exact FLOP/byte accounting on known shapes."""

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.obs import profiler
from repro.obs.profiler import (Profiler, conv2d_flops,
                                conv_transpose2d_flops, matmul_flops)


class TestFlopFormulas:
    def test_conv2d_closed_form(self):
        # (N, C, F, OH, OW, KH, KW) = (2, 3, 4, 5, 6, 3, 3)
        assert conv2d_flops(2, 3, 4, 5, 6, 3, 3) == \
            2 * 2 * 4 * 5 * 6 * 3 * 3 * 3
        assert conv2d_flops(2, 3, 4, 5, 6, 3, 3, bias=True) == \
            2 * 2 * 4 * 5 * 6 * 3 * 3 * 3 + 2 * 4 * 5 * 6

    def test_conv_transpose2d_closed_form(self):
        # (N, C, H, W, F, KH, KW) = (1, 3, 4, 4, 2, 3, 3), output 8x8
        assert conv_transpose2d_flops(1, 3, 4, 4, 2, 3, 3) == \
            2 * 1 * 3 * 4 * 4 * 2 * 3 * 3
        assert conv_transpose2d_flops(1, 3, 4, 4, 2, 3, 3, oh=8, ow=8,
                                      bias=True) == \
            2 * 1 * 3 * 4 * 4 * 2 * 3 * 3 + 1 * 2 * 8 * 8

    def test_matmul_2d(self):
        assert matmul_flops((2, 3), (3, 4)) == 2 * 2 * 3 * 4

    def test_matmul_1d_promotion(self):
        assert matmul_flops((3,), (3,)) == 2 * 3
        assert matmul_flops((2, 3), (3,)) == 2 * 2 * 3
        assert matmul_flops((3,), (3, 4)) == 2 * 3 * 4

    def test_matmul_batched_broadcast(self):
        assert matmul_flops((5, 2, 3), (3, 4)) == 2 * 5 * 2 * 3 * 4
        assert matmul_flops((1, 7, 2, 3), (4, 1, 3, 5)) == \
            2 * (4 * 7) * 2 * 3 * 5


class TestOpAccounting:
    def test_conv2d_records_exact_flops_and_bytes(self):
        x = nn.Tensor(np.random.default_rng(0).random((2, 3, 8, 8)))
        w = nn.Parameter(np.random.default_rng(1).random((4, 3, 3, 3)))
        b = nn.Parameter(np.zeros(4))
        with Profiler() as prof:
            out = F.conv2d(x, w, b, stride=1, padding=1)
        stats = prof.op_stats()["conv2d"]
        assert stats["count"] == 1
        # Output is (2, 4, 8, 8); padding keeps the spatial size.
        assert stats["flops"] == conv2d_flops(2, 3, 4, 8, 8, 3, 3,
                                              bias=True)
        assert stats["nbytes"] == out.data.nbytes == 2 * 4 * 8 * 8 * 8
        assert stats["seconds"] > 0.0

    def test_conv_transpose2d_records_as_deconv2d(self):
        x = nn.Tensor(np.random.default_rng(0).random((1, 3, 4, 4)))
        w = nn.Parameter(np.random.default_rng(1).random((3, 2, 3, 3)))
        b = nn.Parameter(np.zeros(2))
        with Profiler() as prof:
            out = F.conv_transpose2d(x, w, b, stride=2, padding=1,
                                     output_padding=1)
        assert out.shape == (1, 2, 8, 8)
        stats = prof.op_stats()["deconv2d"]
        assert stats["count"] == 1
        assert stats["flops"] == conv_transpose2d_flops(
            1, 3, 4, 4, 2, 3, 3, oh=8, ow=8, bias=True)
        assert stats["nbytes"] == out.data.nbytes

    def test_matmul_records_exact_flops(self):
        a = nn.Tensor(np.ones((4, 5)), requires_grad=True)
        b = nn.Tensor(np.ones((5, 6)), requires_grad=True)
        with Profiler() as prof:
            out = a @ b
        stats = prof.op_stats()["matmul"]
        assert stats["count"] == 1
        assert stats["flops"] == 2 * 4 * 5 * 6
        assert stats["nbytes"] == out.data.nbytes == 4 * 6 * 8

    def test_batch_norm_records_forward_and_backward(self):
        x = nn.Tensor(np.random.default_rng(0).random((2, 3, 4, 4)),
                      requires_grad=True)
        bn = nn.BatchNorm2d(3, negative_slope=0.2)
        with Profiler() as prof:
            out = bn(x)
            out.sum().backward()
        stats = prof.op_stats()["batch_norm"]
        assert stats["count"] == 1
        assert stats["backward_count"] == 1
        assert stats["nbytes"] == out.data.nbytes
        assert stats["seconds"] > 0.0

    def test_backward_time_attributed(self):
        a = nn.Tensor(np.ones((4, 5)), requires_grad=True)
        b = nn.Tensor(np.ones((5, 6)), requires_grad=True)
        with Profiler() as prof:
            (a @ b).sum().backward()
        stats = prof.op_stats()["matmul"]
        assert stats["backward_count"] == 1
        assert stats["backward_seconds"] >= 0.0

    def test_disabled_records_nothing(self):
        assert profiler.ACTIVE is None
        a = nn.Tensor(np.ones((2, 2)))
        _ = a @ a  # must not raise and must not record anywhere
        prof = Profiler()
        assert prof.op_stats() == {}


class TestModuleTiming:
    def test_self_time_excludes_children(self):
        model = nn.Sequential(
            nn.Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(0)),
            nn.ReLU())
        x = nn.Tensor(np.random.default_rng(2).random((1, 1, 8, 8)))
        with Profiler() as prof:
            model(x)
        modules = prof.module_stats()
        assert modules["Sequential"]["count"] == 1
        assert modules["Conv2d"]["count"] == 1
        assert modules["ReLU"]["count"] == 1
        children = (modules["Conv2d"]["seconds"]
                    + modules["ReLU"]["seconds"])
        sequential = modules["Sequential"]
        assert sequential["seconds"] >= children - 1e-9
        expected_self = sequential["seconds"] - children
        assert abs(sequential["self_seconds"] - expected_self) < 1e-9

    def test_uninstrumented_call_path_when_disabled(self):
        model = nn.ReLU()
        x = nn.Tensor(np.ones((2, 2)))
        assert profiler.ACTIVE is None
        out = model(x)  # plain forward, no profiler interaction
        np.testing.assert_array_equal(out.data, np.ones((2, 2)))


class TestRendering:
    def _profiled(self):
        a = nn.Tensor(np.ones((4, 5)), requires_grad=True)
        b = nn.Tensor(np.ones((5, 6)), requires_grad=True)
        with Profiler() as prof:
            (a @ b).sum().backward()
        return prof

    def test_op_table_renders(self):
        table = self._profiled().table()
        assert "matmul" in table
        assert "GFLOP" in table

    def test_module_table_renders(self):
        model = nn.Sequential(nn.ReLU())
        with Profiler() as prof:
            model(nn.Tensor(np.ones((2, 2))))
        table = prof.module_table()
        assert "Sequential" in table and "ReLU" in table
        assert "self ms" in table

    def test_totals(self):
        prof = self._profiled()
        assert prof.total_flops() == 2 * 4 * 5 * 6
        assert prof.total_seconds() >= 0.0


class TestEnableDisableStack:
    def test_nested_enable_restores_previous(self):
        outer = profiler.enable()
        try:
            inner = profiler.enable()
            assert profiler.active() is inner
            assert profiler.disable() is inner
            assert profiler.active() is outer
        finally:
            profiler.disable()
        assert profiler.active() is None
