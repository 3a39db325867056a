"""Exhaustive gradcheck of the fused kernels and gather/reduce backwards.

The fused training kernels (``softmax_cross_entropy``, ``linear_relu``,
``conv_bank_pool``, the argmax ``Tensor.max``) carry hand-written
closed-form backwards; this file is their acceptance gate, together with
the reference compositions in :mod:`tests.nn.reference` they are compared
against. Every check runs in float64 via
:func:`tests.nn.gradcheck.gradcheck`; a final class confirms the float32
mode produces the same gradients to float32-level tolerance and that fused
and composed formulations agree exactly on values and gradients.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F

from . import reference
from .gradcheck import gradcheck


@pytest.fixture(params=["fused", "composed"])
def variant(request):
    """Which formulation a two-armed test checks: the hand-written kernel
    or its composition from autograd primitives (:mod:`tests.nn.reference`)."""
    return request.param


@pytest.fixture
def conv(variant):
    """The tensordot convolution oracle (hand-written backward, ReLU fused
    into the node) or the same convolution composed tap by tap."""
    return reference.conv1d_text if variant == "fused" else reference.conv1d_composed


#: The argmax ``Tensor.max`` and the tie-splitting reference.
TENSOR_MAX = {"fused": nn.Tensor.max, "composed": reference.tensor_max}


def tensor(rng, shape, scale=1.0):
    return nn.Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestFusedKernels:
    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = tensor(rng, (4, 5))
        labels = rng.integers(0, 5, size=4)
        gradcheck(lambda t: nn.softmax_cross_entropy(t, labels), [logits])

    def test_cross_entropy_dispatch(self, variant):
        rng = np.random.default_rng(1)
        logits = tensor(rng, (4, 5))
        labels = rng.integers(0, 5, size=4)
        loss = nn.cross_entropy if variant == "fused" else reference.cross_entropy
        gradcheck(lambda t: loss(t, labels), [logits])

    def test_linear_relu(self):
        rng = np.random.default_rng(2)
        # Keep pre-activations away from the ReLU kink, where central
        # differences straddle the non-differentiable point.
        x = tensor(rng, (3, 4))
        weight = tensor(rng, (5, 4))
        bias = nn.Tensor(rng.normal(size=5) + 3.0, requires_grad=True)
        gradcheck(F.linear_relu, [x, weight, bias])

    def test_linear_relu_without_bias(self):
        rng = np.random.default_rng(3)
        x = nn.Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        weight = nn.Tensor(np.abs(rng.normal(size=(5, 4))) + 0.1, requires_grad=True)
        gradcheck(lambda a, w: F.linear_relu(a, w), [x, weight])

    def test_conv1d_text(self, conv):
        rng = np.random.default_rng(4)
        x = tensor(rng, (2, 6, 3))
        weight = tensor(rng, (4, 2, 3))
        gradcheck(lambda a, w: conv(a, w), [x, weight])

    def test_conv1d_text_with_bias(self, conv):
        rng = np.random.default_rng(5)
        x = tensor(rng, (2, 5, 3))
        weight = tensor(rng, (3, 2, 3))
        bias = tensor(rng, (3,))
        gradcheck(conv, [x, weight, bias])

    def test_conv1d_text_fused_relu(self, conv):
        rng = np.random.default_rng(19)
        x = tensor(rng, (2, 5, 3))
        weight = tensor(rng, (3, 2, 3))
        bias = tensor(rng, (3,))
        gradcheck(lambda a, w, b: conv(a, w, b, relu=True), [x, weight, bias])

    def test_conv_relu_fused_matches_composed(self, conv):
        rng = np.random.default_rng(20)
        x = nn.Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        fused = conv(x, w, relu=True)
        composed = reference.conv1d_text(
            nn.Tensor(x.data.copy(), requires_grad=True),
            nn.Tensor(w.data.copy(), requires_grad=True),
        ).relu()
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12)


class TestGatherReduceBackwards:
    def test_take_rows_repeated_indices(self):
        rng = np.random.default_rng(6)
        table = tensor(rng, (5, 3))
        indices = np.array([0, 2, 2, 4, 0, 0])
        gradcheck(lambda t: (t.take_rows(indices) * 1.5).sum(), [table])

    def test_take_rows_2d_indices(self):
        rng = np.random.default_rng(7)
        table = tensor(rng, (6, 2))
        indices = np.array([[0, 1, 1], [5, 0, 3]])
        gradcheck(lambda t: t.take_rows(indices).tanh(), [table])

    def test_getitem_fancy_rows(self):
        rng = np.random.default_rng(8)
        x = tensor(rng, (5, 4))
        index = np.array([1, 1, 3, 0])
        gradcheck(lambda t: (t[index] ** 2).sum(), [x])

    def test_max_over_axis(self, variant):
        rng = np.random.default_rng(9)
        x = tensor(rng, (3, 7))
        tensor_max = TENSOR_MAX[variant]
        gradcheck(lambda t: tensor_max(t, axis=1), [x])

    def test_max_keepdims(self, variant):
        rng = np.random.default_rng(10)
        x = tensor(rng, (2, 4, 3))
        tensor_max = TENSOR_MAX[variant]
        gradcheck(lambda t: tensor_max(t, axis=1, keepdims=True).tanh(), [x])

    def test_mean_over_time_weighted(self, variant):
        rng = np.random.default_rng(18)
        weights = np.abs(rng.normal(size=(2, 5))) + 0.1
        if variant == "composed":
            x = tensor(rng, (2, 5, 3))
            gradcheck(lambda t: reference.mean_over_time(t, weights), [x])
            return
        # The fused weighted mean lives inside the conv bank: a 1-tap
        # kernel makes the feature map a per-frame projection of ``x``, and
        # the bias keeps the ReLU away from its kink.
        x = tensor(rng, (2, 5, 3))
        weight = tensor(rng, (4, 1, 3), scale=0.3)
        bias = nn.Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        gradcheck(
            lambda a, w, b: nn.conv_bank_pool(
                a, [w], [b], pooling="mean", window_weights=[weights]
            ),
            [x, weight, bias],
        )

    def test_conv_bank_pool_gradcheck(self):
        rng = np.random.default_rng(24)
        x = tensor(rng, (2, 8, 3))
        w2 = tensor(rng, (2, 2, 3))
        w3 = tensor(rng, (2, 3, 3))
        b2 = tensor(rng, (2,))
        b3 = tensor(rng, (2,))
        wts = [np.abs(rng.normal(size=(2, 8 - k + 1))) + 0.1 for k in (2, 3)]
        gradcheck(
            lambda a, u, v, p, q: nn.conv_bank_pool(
                a, [u, v], [p, q], pooling="max_mean", window_weights=wts
            ).tanh(),
            [x, w2, w3, b2, b3],
        )

    @pytest.mark.parametrize("pooling", ["max", "mean", "max_mean"])
    def test_conv_bank_pool_matches_composed(self, pooling):
        rng = np.random.default_rng(25)
        data = rng.normal(size=(3, 9, 4))
        kernels = (2, 4)
        mask = (rng.random(size=(3, 9)) < 0.8).astype(np.float64)
        arrays = [data] + [rng.normal(size=(2, k, 4)) for k in kernels] + [
            rng.normal(size=2) for _ in kernels
        ]

        wts = [reference.window_weights(mask, k) for k in kernels]

        def bank(a, u, v, p, q):
            return nn.conv_bank_pool(
                a, [u, v], [p, q], pooling=pooling, window_weights=wts
            )

        def composed(a, u, v, p, q):
            return reference.conv_pool(a, [u, v], [p, q], pooling, wts)

        grads = {}
        values = {}
        for name, fn in (("bank", bank), ("composed", composed)):
            tensors = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*tensors)
            values[name] = out.data
            out.sum().backward()
            grads[name] = [t.grad for t in tensors]
        np.testing.assert_allclose(values["bank"], values["composed"], rtol=1e-9, atol=1e-12)
        for bank_grad, composed_grad in zip(grads["bank"], grads["composed"]):
            np.testing.assert_allclose(bank_grad, composed_grad, rtol=1e-8, atol=1e-11)

    def test_concat(self):
        rng = np.random.default_rng(11)
        a = tensor(rng, (2, 3))
        b = tensor(rng, (2, 4))
        gradcheck(lambda u, v: (nn.concat([u, v], axis=1) ** 2).sum(), [a, b])


class TestFusedComposedEquivalence:
    """Fused kernels must match their composed formulations bit-for-bit in
    values and to float tolerance in gradients."""

    def _grads(self, fn, arrays):
        tensors = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*tensors)
        if out.data.ndim != 0:
            out = out.sum()
        out.backward()
        return float(out.data), [t.grad for t in tensors]

    def test_cross_entropy_fused_matches_composed(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        fused_val, (fused_grad,) = self._grads(
            lambda t: nn.cross_entropy(t, labels), [logits]
        )
        composed_val, (composed_grad,) = self._grads(
            lambda t: reference.cross_entropy(t, labels), [logits]
        )
        np.testing.assert_allclose(fused_val, composed_val, rtol=1e-12)
        np.testing.assert_allclose(fused_grad, composed_grad, rtol=1e-10, atol=1e-12)

    def test_linear_relu_matches_composed(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        fused_val, fused_grads = self._grads(F.linear_relu, [x, w, b])
        composed_val, composed_grads = self._grads(
            lambda a, wt, bt: F.relu(a @ wt.T + bt), [x, w, b]
        )
        np.testing.assert_allclose(fused_val, composed_val, rtol=1e-12)
        for fused, composed in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)

    def test_conv_fast_matches_legacy(self):
        # The single-kernel bank (im2col GEMM, argmax max) against the
        # tensordot convolution and tie-splitting max of the reference.
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 8, 4))
        w = rng.normal(size=(5, 3, 4))
        fast_val, fast_grads = self._grads(
            lambda a, wt: nn.conv_bank_pool(a, [wt], [None], pooling="max_mean"),
            [x, w],
        )
        legacy_val, legacy_grads = self._grads(
            lambda a, wt: reference.conv_pool(a, [wt], [None], "max_mean"), [x, w]
        )
        np.testing.assert_allclose(fast_val, legacy_val, rtol=1e-10)
        for fast, legacy in zip(fast_grads, legacy_grads):
            np.testing.assert_allclose(fast, legacy, rtol=1e-9, atol=1e-11)


class TestFloat32Mode:
    """float32 graphs produce the float64 gradients to float32 tolerance."""

    def _float32_vs_float64(self, fn, arrays, rtol=2e-3, atol=2e-4):
        grads = {}
        for dtype in (np.float64, np.float32):
            tensors = [
                nn.Tensor(a.astype(dtype), requires_grad=True) for a in arrays
            ]
            out = fn(*tensors)
            if out.data.ndim != 0:
                out = out.sum()
            assert out.data.dtype == dtype
            out.backward()
            grads[dtype] = [t.grad for t in tensors]
        for g32, g64 in zip(grads[np.float32], grads[np.float64]):
            assert g32.dtype == np.float32
            np.testing.assert_allclose(g32, g64, rtol=rtol, atol=atol)

    def test_softmax_cross_entropy_float32(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        self._float32_vs_float64(
            lambda t: nn.softmax_cross_entropy(t, labels), [logits]
        )

    def test_linear_relu_float32(self):
        rng = np.random.default_rng(16)
        arrays = [rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)]
        self._float32_vs_float64(F.linear_relu, arrays)

    def test_conv1d_text_float32(self):
        rng = np.random.default_rng(17)
        arrays = [rng.normal(size=(2, 9, 4)), rng.normal(size=(3, 4, 4))]
        self._float32_vs_float64(lambda a, w: reference.conv1d_text(a, w), arrays)
