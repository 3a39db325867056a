"""Unit tests for the text convolution bank and its reference oracles.

``TestConv1dText`` and ``TestPooling`` pin the per-kernel reference
formulation (:mod:`tests.nn.reference`) to naive loops; ``TestTextConv``
checks the production bank against that reference.
"""

import numpy as np
import pytest

import repro.nn as nn

from .reference import (
    conv1d_text,
    conv_pool,
    max_over_time,
    mean_over_time,
    text_conv,
    window_weights,
)


RNG = lambda seed=0: np.random.default_rng(seed)


def naive_conv(x, weight, bias=None):
    batch, seq, emb = x.shape
    f, k, _ = weight.shape
    out = np.zeros((batch, seq - k + 1, f))
    for b in range(batch):
        for t in range(seq - k + 1):
            for j in range(f):
                out[b, t, j] = (x[b, t : t + k] * weight[j]).sum()
    if bias is not None:
        out += bias
    return out


class TestConv1dText:
    def test_matches_naive_implementation(self):
        rng = RNG()
        x = rng.normal(size=(3, 9, 4))
        w = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=5)
        out = conv1d_text(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv(x, w, b), atol=1e-12)

    def test_output_length(self):
        out = conv1d_text(nn.Tensor(np.zeros((1, 10, 2))), nn.Tensor(np.zeros((3, 4, 2))))
        assert out.shape == (1, 7, 3)

    def test_kernel_longer_than_sequence_raises(self):
        with pytest.raises(ValueError):
            conv1d_text(nn.Tensor(np.zeros((1, 3, 2))), nn.Tensor(np.zeros((1, 5, 2))))

    def test_embedding_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv1d_text(nn.Tensor(np.zeros((1, 5, 2))), nn.Tensor(np.zeros((1, 3, 4))))

    def test_input_gradient_shape(self):
        x = nn.Tensor(RNG().normal(size=(2, 8, 3)), requires_grad=True)
        w = nn.Parameter(RNG(1).normal(size=(4, 3, 3)))
        conv1d_text(x, w).sum().backward()
        assert x.grad.shape == (2, 8, 3)
        assert w.grad.shape == (4, 3, 3)

    def test_bias_gradient(self):
        x = nn.Tensor(np.zeros((2, 6, 3)))
        w = nn.Parameter(np.zeros((4, 3, 3)))
        b = nn.Parameter(np.zeros(4))
        conv1d_text(x, w, b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(4, 2 * 4.0))  # batch * T


class TestPooling:
    def test_max_over_time(self):
        x = nn.Tensor(np.array([[[1.0, 5.0], [3.0, 2.0]]]))
        np.testing.assert_allclose(max_over_time(x).data, [[3.0, 5.0]])

    def test_mean_over_time_unweighted(self):
        x = nn.Tensor(np.array([[[2.0], [4.0]]]))
        np.testing.assert_allclose(mean_over_time(x).data, [[3.0]])

    def test_mean_over_time_weighted_ignores_masked(self):
        x = nn.Tensor(np.array([[[2.0], [100.0]]]))
        weights = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(mean_over_time(x, weights).data, [[2.0]])

    def test_mean_over_time_all_masked_is_finite(self):
        x = nn.Tensor(np.ones((1, 3, 2)))
        out = mean_over_time(x, np.zeros((1, 3))).data
        assert np.isfinite(out).all()

    def test_mean_weight_shape_validated(self):
        with pytest.raises(ValueError):
            mean_over_time(nn.Tensor(np.ones((1, 3, 2))), np.ones((2, 3)))


class TestTextConv:
    def test_output_dim_max(self):
        conv = nn.TextConv(8, 5, (3, 4, 5), RNG(), pooling="max")
        assert conv.output_dim == 15

    def test_output_dim_max_mean(self):
        conv = nn.TextConv(8, 5, (3, 4), RNG(), pooling="max_mean")
        assert conv.output_dim == 20

    def test_forward_shape(self):
        conv = nn.TextConv(6, 4, (2, 3), RNG(), pooling="max_mean")
        out = conv(nn.Tensor(np.zeros((3, 10, 6))))
        assert out.shape == (3, conv.output_dim)

    def test_invalid_pooling_raises(self):
        with pytest.raises(ValueError):
            nn.TextConv(4, 2, (3,), RNG(), pooling="sum")

    def test_empty_kernel_sizes_raises(self):
        with pytest.raises(ValueError):
            nn.TextConv(4, 2, (), RNG())

    def test_token_mask_changes_mean_pool(self):
        conv = nn.TextConv(4, 2, (2,), RNG(), pooling="mean")
        x = nn.Tensor(RNG(3).normal(size=(1, 6, 4)))
        full = conv(x, token_mask=np.ones((1, 6), dtype=bool)).data
        half = conv(x, token_mask=np.array([[1, 1, 1, 0, 0, 0]], dtype=bool)).data
        assert not np.allclose(full, half)

    def test_gradients_reach_all_kernels(self):
        conv = nn.TextConv(4, 2, (2, 3), RNG())
        conv(nn.Tensor(RNG(1).normal(size=(2, 7, 4)))).sum().backward()
        for k in (2, 3):
            assert getattr(conv, f"weight_k{k}").grad is not None

    def test_window_weights_fraction(self):
        mask = np.array([[1, 1, 0, 0]], dtype=np.float64)
        w = window_weights(mask, 2)
        np.testing.assert_allclose(w, [[1.0, 0.5, 0.0]])

    def test_interleaved_same_shape_convs_grads_match_legacy(self):
        """Two same-shaped banks share a workspace pool; the second forward
        clobbers the first's columns, forcing the stamped-buffer refill in
        backward. Gradients must match the reference regardless."""
        rng = RNG(22)
        x1 = rng.normal(size=(2, 9, 4))
        x2 = rng.normal(size=(2, 9, 4))
        w1 = rng.normal(size=(3, 3, 4))
        w2 = rng.normal(size=(3, 3, 4))
        grads = {}
        for name, bank in (
            ("fast", lambda x, w: nn.conv_bank_pool(x, [w], [None], pooling="max_mean")),
            ("reference", lambda x, w: conv_pool(x, [w], [None], "max_mean")),
        ):
            nn.clear_conv_workspace()
            tensors = [nn.Tensor(a.copy(), requires_grad=True) for a in (x1, x2, w1, w2)]
            t_x1, t_x2, t_w1, t_w2 = tensors
            out = (bank(t_x1, t_w1) + bank(t_x2, t_w2)).sum()
            out.backward()
            grads[name] = [t.grad for t in tensors]
        for fast_grad, legacy_grad in zip(grads["fast"], grads["reference"]):
            np.testing.assert_allclose(fast_grad, legacy_grad, rtol=1e-9, atol=1e-11)

    def test_matches_reference_composition(self):
        conv = nn.TextConv(4, 3, (2, 3), RNG(5), pooling="max_mean")
        data = RNG(6).normal(size=(2, 9, 4))
        mask = RNG(7).random(size=(2, 9)) < 0.7
        outputs = {}
        for name, forward in (("bank", conv), ("reference", lambda x, m: text_conv(conv, x, m))):
            conv.zero_grad()
            x = nn.Tensor(data.copy(), requires_grad=True)
            out = forward(x, mask)
            out.sum().backward()
            outputs[name] = [out.data, x.grad] + [p.grad.copy() for p in conv.parameters()]
        for bank, ref in zip(outputs["bank"], outputs["reference"]):
            np.testing.assert_allclose(bank, ref, rtol=1e-9, atol=1e-11)

    def test_window_weights_from_cumsum_matches_reference(self):
        mask = (RNG(21).random(size=(3, 11)) < 0.6).astype(np.float32)
        cumsum = mask.cumsum(axis=1)
        for k in (1, 2, 3, 5):
            reference = window_weights(mask, k)
            fast = nn.TextConv._window_weights_from_cumsum(cumsum, k)
            np.testing.assert_array_equal(fast, reference)

    def test_translation_of_pad_does_not_change_max(self):
        """Max pooling over a detected n-gram is position-invariant."""
        conv = nn.TextConv(3, 2, (2,), RNG(7), pooling="max")
        signal = RNG(8).normal(size=(2, 3))
        doc1 = np.zeros((1, 8, 3))
        doc1[0, 1:3] = signal
        doc2 = np.zeros((1, 8, 3))
        doc2[0, 5:7] = signal
        out1 = conv(nn.Tensor(doc1)).data
        out2 = conv(nn.Tensor(doc2)).data
        # the max over positions sees the same windows (zeros + signal)
        np.testing.assert_allclose(out1, out2, atol=1e-12)
