"""Bit-identity and gradcheck suite for the tape-level graph optimizer.

Every auto-fused pattern must match the unfused reference tape *exactly*
(float32 bitwise), because `repro.nn.graph` promises replay-equivalence,
not tolerance-equivalence: the absorbed closures run with the same
gradients in the same order the composed reversed-postorder pass would
have used. Model-level tests extend the guarantee to the OmniMatch tower
(both extractors, all cold-inference modes), the BERT-ablation
transformer extractor, and two neural baselines.
"""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor

from . import reference
from .gradcheck import gradcheck


@pytest.fixture
def float32():
    previous = nn.set_default_dtype("float32")
    yield
    nn.set_default_dtype(previous)


class _Fused:
    """The library's fused kernels."""

    cross_entropy = staticmethod(nn.cross_entropy)

    @staticmethod
    def text_conv(conv, x):
        return conv(x)


class _Reference:
    """The op-by-op compositions from :mod:`tests.nn.reference` — long
    chains of small nodes, which is what the fusion pass exists to absorb."""

    cross_entropy = staticmethod(reference.cross_entropy)
    text_conv = staticmethod(reference.text_conv)


@pytest.fixture(params=[_Reference, _Fused], ids=["reference", "fast_math"])
def fast(request):
    return request.param


def run_twice(build, steps=1):
    """Losses + grads of ``build`` with the graph optimizer off, then on."""

    def one(graph_on):
        graph = nn.GraphOptimizer() if graph_on else None
        previous = nn.set_graph_optimizer(graph)
        try:
            return build()
        finally:
            nn.set_graph_optimizer(previous)

    return one(False), one(True)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b), f"max diff {np.abs(a - b).max()}"


class TestPatternBitIdentity:
    """Each auto-fused pattern: forward values and input/param gradients
    must be bitwise equal to the unfused tape (float32)."""

    def _check(self, make_inputs, fn):
        def build():
            inputs = make_inputs()
            out = fn(*inputs)
            loss = out.sum() if out.data.ndim else out
            loss.backward()
            return (
                out.data.copy(),
                [t.grad.copy() for t in inputs if t.grad is not None],
            )

        (val_a, grads_a), (val_b, grads_b) = run_twice(build)
        assert_bitwise(val_a, val_b)
        assert len(grads_a) == len(grads_b)
        for ga, gb in zip(grads_a, grads_b):
            assert_bitwise(ga, gb)

    def test_linear_relu(self, float32, fast):
        lin = nn.Linear(24, 16, np.random.default_rng(0))

        def make():
            lin.weight.grad = None
            lin.bias.grad = None
            rng = np.random.default_rng(1)
            return (Tensor(rng.normal(size=(8, 24)).astype(np.float32),
                           requires_grad=True),)

        self._check(make, lambda x: lin(x).relu())

    def test_conv_relu_maxpool(self, float32, fast):
        conv = nn.TextConv(
            embed_dim=12, num_filters=6, kernel_sizes=(2, 3),
            rng=np.random.default_rng(2), pooling="max",
        )

        def make():
            for p in conv.parameters():
                p.grad = None
            rng = np.random.default_rng(3)
            return (Tensor(rng.normal(size=(4, 10, 12)).astype(np.float32),
                           requires_grad=True),)

        self._check(make, lambda x: fast.text_conv(conv, x))

    def test_softmax_nll(self, float32, fast):
        classes = np.random.default_rng(40).integers(0, 5, size=16)

        def make():
            rng = np.random.default_rng(4)
            return (Tensor(rng.normal(size=(16, 5)).astype(np.float32),
                           requires_grad=True),)

        self._check(make, lambda logits: fast.cross_entropy(logits, classes))

    def test_elementwise_chain(self, float32, fast):
        def make():
            rng = np.random.default_rng(5)
            return (Tensor(rng.uniform(0.5, 2.0, size=(32, 32)).astype(np.float32),
                           requires_grad=True),)

        self._check(make, lambda x: ((x * 2.0 + 1.0).log().sqrt() - x.exp() / 7.0))

    def test_residual_reuse_triggers_repair(self, float32, fast):
        """A residual connection re-consumes an activation a chain already
        absorbed — the repair path must keep gradients bitwise exact."""
        lin1 = nn.Linear(16, 16, np.random.default_rng(6))
        lin2 = nn.Linear(16, 16, np.random.default_rng(7))

        def make():
            for p in (*lin1.parameters(), *lin2.parameters()):
                p.grad = None
            rng = np.random.default_rng(8)
            return (Tensor(rng.normal(size=(8, 16)).astype(np.float32),
                           requires_grad=True),)

        def residual(x):
            h = lin1(x).relu()
            return (h + lin2(h).relu()).tanh()

        self._check(make, residual)

    def test_three_way_junction(self, float32, fast):
        """Three consumers of one activation: accumulation order (the
        non-associative part of float32 addition) must match the
        composed pass exactly."""
        def make():
            rng = np.random.default_rng(9)
            return (Tensor(rng.normal(size=(16, 16)).astype(np.float32),
                           requires_grad=True),)

        def fan_out(x):
            h = (x * 3.0).tanh()
            return (h.exp().sum() + (h * h).sum()) - (h / 2.0).sum()

        self._check(make, fan_out)


class TestTapeCollapse:
    """The visible tape IR shrinks: fused chains count once."""

    def test_linear_relu_single_node(self, float32):
        lin = nn.Linear(32, 16, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(8, 32)).astype(np.float32))
        plain = lin(x).relu()
        assert nn.tape_size(plain) == 4  # transpose, matmul, add, relu
        with nn.graph_scope():
            fused = lin(x).relu()
        assert nn.tape_size(fused) == 1
        assert dict(nn.tape_ops(fused)) == {"relu": 1}

    def test_cross_entropy_collapses(self, float32):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(8, 5)).astype(np.float32),
                        requires_grad=True)
        classes = rng.integers(0, 5, size=8)
        plain = reference.cross_entropy(logits, classes)
        with nn.graph_scope():
            fused = reference.cross_entropy(
                Tensor(logits.data.copy(), requires_grad=True), classes
            )
        assert nn.tape_size(fused) < nn.tape_size(plain)

    def test_fused_ops_counter(self, float32):
        previous = nn.set_tensor_stats(True)
        nn.reset_tensor_stats()
        try:
            lin = nn.Linear(16, 8, np.random.default_rng(3))
            x = Tensor(np.random.default_rng(4).normal(size=(4, 16)).astype(np.float32))
            with nn.graph_scope():
                _ = lin(x).relu()
            assert nn.tensor_stats()["fused_ops"] >= 3
        finally:
            nn.set_tensor_stats(previous)
            nn.reset_tensor_stats()


class TestGradcheckUnderGraph:
    """Finite-difference gradcheck (float64) with the optimizer installed:
    fused replay must still produce analytically correct gradients."""

    def _gradcheck(self, fn, inputs):
        with nn.graph_scope():
            assert gradcheck(fn, inputs)

    def test_linear_relu(self):
        lin = nn.Linear(5, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)),
                   requires_grad=True, dtype=np.float64)
        self._gradcheck(lambda t: lin(t).relu(), [x])

    def test_conv_chain(self):
        conv = nn.TextConv(embed_dim=4, num_filters=3, kernel_sizes=(2,),
                           rng=np.random.default_rng(2), pooling="max")
        x = Tensor(np.random.default_rng(3).normal(size=(2, 6, 4)),
                   requires_grad=True, dtype=np.float64)
        self._gradcheck(conv, [x])

    def test_softmax_nll(self):
        classes = np.array([0, 2, 1])
        x = Tensor(np.random.default_rng(4).normal(size=(3, 4)),
                   requires_grad=True, dtype=np.float64)
        self._gradcheck(lambda t: nn.cross_entropy(t, classes), [x])

    def test_elementwise_chain(self):
        x = Tensor(np.random.default_rng(5).uniform(0.5, 2.0, size=(4, 4)),
                   requires_grad=True, dtype=np.float64)
        self._gradcheck(lambda t: (t * 2.0 + 1.0).log().sqrt(), [x])

    def test_residual_repair(self):
        lin = nn.Linear(4, 4, np.random.default_rng(6))
        x = Tensor(np.random.default_rng(7).normal(size=(3, 4)),
                   requires_grad=True, dtype=np.float64)
        self._gradcheck(lambda t: (t + lin(t).relu()).tanh(), [x])


def small_model(extractor, mode):
    from repro.core import OmniMatchConfig, OmniMatchModel

    cfg = OmniMatchConfig(
        embed_dim=16, num_filters=4, kernel_sizes=(2, 3), invariant_dim=8,
        specific_dim=8, projection_dim=6, doc_len=12, dropout=0.1,
        vocab_size=40, extractor=extractor, cold_inference=mode,
    )
    table = np.random.default_rng(0).normal(0, 0.1, size=(40, cfg.embed_dim))
    table = table.astype(np.float32)
    table[0] = 0.0
    return OmniMatchModel(table, cfg, np.random.default_rng(1))


def train_steps(model, graph_on, steps=3):
    model.train()
    optimizer = nn.Adadelta(model.parameters())
    previous = nn.set_graph_optimizer(nn.GraphOptimizer() if graph_on else None)
    losses_log = []
    try:
        for step in range(steps):
            rng = np.random.default_rng(100 + step)
            optimizer.zero_grad()
            losses = model.compute_losses(
                rng.integers(1, 40, size=(8, 12)),
                rng.integers(1, 40, size=(8, 12)),
                rng.integers(1, 40, size=(8, 12)),
                rng.integers(0, 5, size=8),
            )
            losses["total"].backward()
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            losses_log.append({k: float(v.item()) for k, v in losses.items()})
    finally:
        nn.set_graph_optimizer(previous)
    return losses_log, {n: p.data.copy() for n, p in model.named_parameters()}


class TestOmniMatchBitIdentity:
    """Three full Adadelta training steps of the OmniMatch tower must be
    bit-identical with and without the graph optimizer — for the paper's
    CNN extractor, the BERT-ablation transformer extractor, and every
    cold-inference mode."""

    @pytest.mark.parametrize("extractor", ["cnn", "transformer"])
    @pytest.mark.parametrize("mode", ["blend", "dual", "aux_only"])
    def test_training_bit_identical(self, float32, extractor, mode):
        losses_off, params_off = train_steps(small_model(extractor, mode), False)
        losses_on, params_on = train_steps(small_model(extractor, mode), True)
        assert losses_off == losses_on
        assert params_off.keys() == params_on.keys()
        for name in params_off:
            assert np.array_equal(params_off[name], params_on[name]), name


class _NullScope(contextlib.nullcontext):
    def __init__(self, *args, **kwargs):
        super().__init__()


@pytest.fixture(scope="module")
def baseline_world():
    from repro.data import GeneratorConfig, cold_start_split, generate_domain_pair

    dataset = generate_domain_pair(
        "books", "movies",
        GeneratorConfig(num_users=60, num_items_per_domain=25,
                        reviews_per_user_mean=4.0, seed=11),
    )
    return dataset, cold_start_split(dataset, seed=2)


class TestBaselineBitIdentity:
    """The baselines train under ``nn.graph_scope()``; disabling the scope
    (monkeypatched to a null context) must not change a single bit."""

    def test_deepconn(self, float32, baseline_world, monkeypatch):
        from repro.baselines import DeepCoNN

        dataset, split = baseline_world
        fused = DeepCoNN(epochs=2, embed_dim=12, num_filters=4,
                         doc_len=16).fit(dataset, split)
        monkeypatch.setattr(nn, "graph_scope", _NullScope)
        plain = DeepCoNN(epochs=2, embed_dim=12, num_filters=4,
                         doc_len=16).fit(dataset, split)
        for pf, pp in zip(fused._parameters(), plain._parameters()):
            assert np.array_equal(pf.data, pp.data)

    def test_emcdr(self, float32, baseline_world, monkeypatch):
        from repro.baselines import EMCDR

        dataset, split = baseline_world
        fused = EMCDR().fit(dataset, split)
        monkeypatch.setattr(nn, "graph_scope", _NullScope)
        plain = EMCDR().fit(dataset, split)
        for pf, pp in zip(fused._mapping.parameters(), plain._mapping.parameters()):
            assert np.array_equal(pf.data, pp.data)
