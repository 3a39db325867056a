"""Property-based finite-difference gradient verification.

Hypothesis generates random inputs; every analytic gradient produced by the
autograd tape must match the central finite difference to tight tolerance.
This is the correctness backbone of the whole ``repro.nn`` substrate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.nn import functional as F

from . import reference
from .gradcheck import gradcheck

SETTLE = dict(max_examples=25, deadline=None)


def finite_diff(fn, x_data, index, eps=1e-6):
    x_plus = x_data.copy()
    x_plus[index] += eps
    x_minus = x_data.copy()
    x_minus[index] -= eps
    return (fn(x_plus) - fn(x_minus)) / (2 * eps)


def check_gradient(fn_tensor, fn_numpy, x_data, atol=1e-6):
    """Compare analytic gradient of sum(fn(x)) against finite differences."""
    x = nn.Tensor(x_data, requires_grad=True)
    fn_tensor(x).sum().backward()
    analytic = x.grad
    rng = np.random.default_rng(0)
    flat_indices = rng.choice(x_data.size, size=min(5, x_data.size), replace=False)
    for flat in flat_indices:
        index = np.unravel_index(flat, x_data.shape)
        numeric = finite_diff(lambda d: fn_numpy(d).sum(), x_data, index)
        assert abs(analytic[index] - numeric) < atol, (
            f"grad mismatch at {index}: {analytic[index]} vs {numeric}"
        )


arrays_1d = st.integers(2, 8).map(
    lambda n: np.random.default_rng(n).normal(size=n) + 0.0
)
arrays_2d = st.tuples(st.integers(2, 5), st.integers(2, 5)).map(
    lambda s: np.random.default_rng(s[0] * 7 + s[1]).normal(size=s)
)


class TestElementwiseGradients:
    @given(arrays_1d)
    @settings(**SETTLE)
    def test_exp(self, x):
        check_gradient(lambda t: t.exp(), np.exp, x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_tanh(self, x):
        check_gradient(lambda t: t.tanh(), np.tanh, x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_sigmoid(self, x):
        check_gradient(lambda t: t.sigmoid(), lambda d: 1 / (1 + np.exp(-d)), x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_log_of_positive(self, x):
        x = np.abs(x) + 0.5
        check_gradient(lambda t: t.log(), np.log, x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_sqrt_of_positive(self, x):
        x = np.abs(x) + 0.5
        check_gradient(lambda t: t.sqrt(), np.sqrt, x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_square(self, x):
        check_gradient(lambda t: t**2, lambda d: d**2, x)

    @given(arrays_1d)
    @settings(**SETTLE)
    def test_reciprocal(self, x):
        x = np.abs(x) + 1.0
        check_gradient(lambda t: 1.0 / t, lambda d: 1.0 / d, x)


class TestCompositeGradients:
    @given(arrays_2d)
    @settings(**SETTLE)
    def test_softmax_cross_entropy_like(self, x):
        labels = np.zeros(x.shape[0], dtype=np.int64)

        def tensor_fn(t):
            return nn.cross_entropy(t, labels)

        def numpy_fn(d):
            shifted = d - d.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return np.array(-logp[np.arange(d.shape[0]), labels].mean())

        check_gradient(tensor_fn, numpy_fn, x, atol=1e-5)

    @given(arrays_2d)
    @settings(**SETTLE)
    def test_l2_normalize(self, x):
        def numpy_fn(d):
            return d / np.sqrt((d**2).sum(axis=-1, keepdims=True) + 1e-12)

        check_gradient(lambda t: F.l2_normalize(t), numpy_fn, x, atol=1e-5)

    @given(arrays_2d)
    @settings(**SETTLE)
    def test_logsumexp(self, x):
        def numpy_fn(d):
            m = d.max(axis=-1, keepdims=True)
            return (np.log(np.exp(d - m).sum(axis=-1, keepdims=True)) + m).squeeze(-1)

        check_gradient(lambda t: F.logsumexp(t, axis=-1), numpy_fn, x, atol=1e-5)

    @given(st.integers(0, 100))
    @settings(**SETTLE)
    def test_linear_layer(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Linear(4, 3, rng)
        x_data = rng.normal(size=(5, 4))

        def tensor_fn(t):
            return layer(t)

        def numpy_fn(d):
            return d @ layer.weight.data.T + layer.bias.data

        check_gradient(tensor_fn, numpy_fn, x_data, atol=1e-5)

    @given(st.integers(0, 100))
    @settings(**SETTLE)
    def test_conv1d_against_naive(self, seed):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(2, 7, 3))
        weight = nn.Parameter(rng.normal(size=(4, 3, 3)))

        def naive(d):
            batch, seq, emb = d.shape
            f, k, _ = weight.data.shape
            out = np.zeros((batch, seq - k + 1, f))
            for b in range(batch):
                for t in range(seq - k + 1):
                    for j in range(f):
                        out[b, t, j] = (d[b, t : t + k] * weight.data[j]).sum()
            return out

        check_gradient(
            lambda t: reference.conv1d_text(t, weight), naive, x_data, atol=1e-5
        )

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_supcon_loss_gradient(self, seed):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)

        x = nn.Tensor(x_data, requires_grad=True)
        nn.supcon_loss(x, labels).backward()
        analytic = x.grad

        def numpy_loss(d):
            t = nn.Tensor(d)
            return nn.supcon_loss(t, labels).item()

        for flat in [0, 7, 13]:
            index = np.unravel_index(flat, x_data.shape)
            numeric = finite_diff(lambda d: np.array(numpy_loss(d)), x_data, index)
            assert abs(analytic[index] - numeric) < 1e-5


class TestSharedNodeGradients:
    """One activation feeding several consumers: the tape must sum every
    consumer's contribution at the junction before backpropagating past
    it (exhaustive finite differences, float64)."""

    def test_residual(self):
        lin = nn.Linear(4, 4, np.random.default_rng(6))
        x = nn.Tensor(np.random.default_rng(7).normal(size=(3, 4)),
                      requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda t: (t + lin(t).relu()).tanh(), [x])

    def test_three_way_fan_out(self):
        x = nn.Tensor(np.random.default_rng(9).normal(size=(4, 4)),
                      requires_grad=True, dtype=np.float64)

        def fan_out(t):
            h = (t * 3.0).tanh()
            return (h.exp().sum() + (h * h).sum()) - (h / 2.0).sum()

        assert gradcheck(fan_out, [x])
