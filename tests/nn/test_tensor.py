"""Unit tests for the autograd tensor engine."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack

from . import reference


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_from_scalar(self):
        t = Tensor(2.5)
        assert t.item() == 2.5
        assert t.size == 1

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_coerces_scalar(self):
        assert isinstance(as_tensor(3.0), Tensor)

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_transpose_property(self):
        t = Tensor(np.ones((2, 3)))
        assert t.T.shape == (3, 2)


class TestArithmeticGradients:
    def _grad(self, fn, x_data):
        x = Tensor(x_data, requires_grad=True)
        fn(x).sum().backward()
        return x.grad

    def test_add_grad(self):
        g = self._grad(lambda x: x + 2.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_radd_grad(self):
        g = self._grad(lambda x: 2.0 + x, np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_sub_grad(self):
        g = self._grad(lambda x: x - 3.0, np.array([1.0]))
        np.testing.assert_allclose(g, [1.0])

    def test_rsub_grad(self):
        g = self._grad(lambda x: 3.0 - x, np.array([1.0]))
        np.testing.assert_allclose(g, [-1.0])

    def test_mul_grad(self):
        g = self._grad(lambda x: x * 4.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [4.0, 4.0])

    def test_div_grad(self):
        g = self._grad(lambda x: x / 2.0, np.array([3.0]))
        np.testing.assert_allclose(g, [0.5])

    def test_rdiv_grad(self):
        g = self._grad(lambda x: 6.0 / x, np.array([2.0]))
        np.testing.assert_allclose(g, [-1.5])

    def test_neg_grad(self):
        g = self._grad(lambda x: -x, np.array([1.0]))
        np.testing.assert_allclose(g, [-1.0])

    def test_pow_grad(self):
        g = self._grad(lambda x: x**3, np.array([2.0]))
        np.testing.assert_allclose(g, [12.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0], requires_grad=True) ** Tensor([2.0])

    def test_diamond_graph_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_tensor_times_tensor_grads_both(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])
        np.testing.assert_allclose(b.grad, [2.0])


class TestBroadcasting:
    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert x.grad.shape == (4, 3)
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_broadcast_mul_column(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        c = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, [[3.0], [3.0]])

    def test_broadcast_scalar_tensor(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.ones((2, 2)))
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)


class TestMatmul:
    def test_matmul_2d_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, np.array([[19, 22], [43, 50]]))

    def test_matmul_grads(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_matvec(self):
        a = Tensor(np.eye(3), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]))
        out = a @ v
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])
        out.sum().backward()
        assert a.grad.shape == (3, 3)


class TestNonlinearities:
    @pytest.mark.parametrize(
        "name,fn,dfn",
        [
            ("exp", np.exp, np.exp),
            ("tanh", np.tanh, lambda x: 1 - np.tanh(x) ** 2),
            ("sigmoid", lambda x: 1 / (1 + np.exp(-x)), None),
        ],
    )
    def test_unary_values(self, name, fn, dfn):
        x_data = np.array([-1.0, 0.5, 2.0])
        x = Tensor(x_data, requires_grad=True)
        out = getattr(x, name)()
        np.testing.assert_allclose(out.data, fn(x_data), rtol=1e-12)

    def test_relu_forward_backward(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_log_grad(self):
        x = Tensor([2.0], requires_grad=True)
        x.log().backward()
        np.testing.assert_allclose(x.grad, [0.5])

    def test_sqrt_grad(self):
        x = Tensor([4.0], requires_grad=True)
        x.sqrt().backward()
        np.testing.assert_allclose(x.grad, [0.25])

    def test_abs_grad(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0])


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        x = Tensor(np.ones(4), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_mean_axis_tuple(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))

    def test_max_grad_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        # Tie-splitting is the reference oracle's behavior; Tensor.max routes
        # the whole gradient to the first argmax (both are valid subgradients).
        x = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        reference.tensor_max(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])

    def test_max_ties_route_gradient_to_first_argmax(self):
        x = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, 0.0]])

    def test_min(self):
        x = Tensor(np.array([[4.0, 1.0]]), requires_grad=True)
        out = x.min(axis=1)
        np.testing.assert_allclose(out.data, [1.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0]])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_reshape_accepts_tuple(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_transpose_grad(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        x.transpose((2, 0, 1)).sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_getitem_grad_scatters(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_take_rows_embedding_gather(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([[0, 1], [1, 3]])
        out = table.take_rows(idx)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        np.testing.assert_allclose(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])

    def test_concat_grad_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_concat_axis0(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.zeros((3, 2)))
        assert concat([a, b], axis=0).shape == (4, 2)

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))


class TestBackwardSemantics:
    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_without_grad_flag_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nests(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_deep_chain_backward(self):
        # iterative topo-sort must handle long chains without recursion limits
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(500):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_comparison_returns_array(self):
        x = Tensor([1.0, 3.0])
        assert (x > 2.0).tolist() == [False, True]
        assert (x < 2.0).tolist() == [True, False]
