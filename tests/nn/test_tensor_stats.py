"""Tests for the optional allocation/FLOP counters behind REPRO_TENSOR_STATS."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


@pytest.fixture
def stats_on():
    previous = nn.set_tensor_stats(True)
    nn.reset_tensor_stats()
    yield
    nn.set_tensor_stats(previous)
    nn.reset_tensor_stats()


class TestDisabledByDefault:
    def test_off_unless_env_set(self):
        # The test environment does not export REPRO_TENSOR_STATS.
        assert nn.tensor_stats_enabled() is False

    def test_no_counting_when_disabled(self):
        nn.reset_tensor_stats()
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        _ = a @ a
        stats = nn.tensor_stats()
        assert stats["graph_tensors"] == 0
        assert stats["matmul_flops"] == 0


class TestCounting:
    def test_graph_tensor_allocation_counted(self, stats_on):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a + a
        stats = nn.tensor_stats()
        assert stats["graph_tensors"] >= 1
        assert stats["graph_bytes"] >= out.data.nbytes

    def test_matmul_flops_exact_2d(self, stats_on):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 5)), requires_grad=True)
        _ = a @ b
        assert nn.tensor_stats()["matmul_flops"] == 2 * 3 * 5 * 4

    def test_matmul_flops_matrix_vector(self, stats_on):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        v = Tensor(np.ones(4), requires_grad=True)
        _ = a @ v
        assert nn.tensor_stats()["matmul_flops"] == 2 * 3 * 4

    def test_linear_relu_flops_counted(self, stats_on):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        b = Tensor(np.zeros(6), requires_grad=True)
        _ = nn.functional.linear_relu(x, w, b)
        # one (4, 8) @ (8, 6) forward GEMM
        assert nn.tensor_stats()["matmul_flops"] == 2 * 4 * 6 * 8

    def test_conv_bank_flops_counted(self, stats_on):
        conv = nn.TextConv(embed_dim=5, num_filters=3, kernel_sizes=(2, 3),
                           rng=np.random.default_rng(1), pooling="max_mean")
        x = Tensor(np.random.default_rng(2).normal(size=(2, 7, 5)), requires_grad=True)
        _ = conv(x)
        # One wide GEMM over the right-padded input: kernel_max = 3,
        # t_out_pad = 7 + 1 - 3 + 1 = 6, so (2 * 6, 3 * 5) @ (15, 2 * 3).
        assert nn.tensor_stats()["matmul_flops"] == 2 * (2 * 6) * 6 * 15

    def test_counters_accumulate_and_reset(self, stats_on):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        _ = a @ a
        _ = a @ a
        assert nn.tensor_stats()["matmul_flops"] == 2 * (2 * 2 * 2 * 2)
        nn.reset_tensor_stats()
        assert nn.tensor_stats()["matmul_flops"] == 0

    def test_set_tensor_stats_returns_previous(self):
        previous = nn.set_tensor_stats(False)
        try:
            assert nn.set_tensor_stats(previous) is False
        finally:
            nn.set_tensor_stats(previous)

    def test_snapshot_is_a_copy(self, stats_on):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        _ = a + a
        snap = nn.tensor_stats()
        snap["graph_tensors"] = -1
        assert nn.tensor_stats()["graph_tensors"] >= 1


class TestNewCounters:
    def test_all_keys_present(self):
        stats = nn.tensor_stats()
        for key in ("graph_tensors", "graph_bytes", "matmul_flops",
                    "backward_bytes", "peak_bytes", "arena_hits",
                    "arena_misses", "fused_ops"):
            assert key in stats

    def test_no_grad_tensors_not_counted(self, stats_on):
        a = Tensor(np.ones((8, 8)), requires_grad=True)
        with nn.no_grad():
            _ = (a @ a).relu()
        stats = nn.tensor_stats()
        assert stats["graph_tensors"] == 0
        assert stats["graph_bytes"] == 0
        # FLOPs still count: inference work is real work.
        assert stats["matmul_flops"] > 0

    def test_backward_bytes_counted_on_backward(self, stats_on):
        a = Tensor(np.ones((16, 16)), requires_grad=True)
        (a @ a).sum().backward()
        stats = nn.tensor_stats()
        assert stats["backward_bytes"] >= a.data.nbytes

    def test_peak_bytes_set_at_step_boundary(self, stats_on):
        lin = nn.Linear(8, 8, np.random.default_rng(0))
        optimizer = nn.SGD(lin.parameters(), lr=0.1)
        optimizer.zero_grad()
        loss = lin(Tensor(np.ones((4, 8)))).sum()
        loss.backward()
        optimizer.step()  # marks the step boundary
        stats = nn.tensor_stats()
        assert stats["peak_bytes"] > 0
        assert stats["peak_bytes"] <= stats["graph_bytes"] + stats["backward_bytes"]


class TestTrainingUnaffected:
    def test_forward_backward_values_identical(self, stats_on):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 3))
        weight = rng.normal(size=(3, 2))

        def run():
            a = Tensor(data.copy(), requires_grad=True)
            w = Tensor(weight.copy(), requires_grad=True)
            out = (a @ w).sum()
            out.backward()
            return out.data.copy(), a.grad.copy()

        with_stats = run()
        nn.set_tensor_stats(False)
        without_stats = run()
        np.testing.assert_array_equal(with_stats[0], without_stats[0])
        np.testing.assert_array_equal(with_stats[1], without_stats[1])
