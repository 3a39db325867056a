"""Dtype configuration, the fused loss against its oracle, and no_grad."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import init

from . import reference


@pytest.fixture(autouse=True)
def restore_defaults():
    dtype = nn.get_default_dtype()
    yield
    nn.set_default_dtype(dtype)


class TestDefaultDtype:
    def test_library_default_is_float64(self):
        assert nn.get_default_dtype() == np.float64

    def test_set_returns_previous(self):
        previous = nn.set_default_dtype(np.float32)
        assert previous == np.float64
        assert nn.get_default_dtype() == np.float32

    def test_context_manager_restores(self):
        with nn.default_dtype("float32"):
            assert nn.get_default_dtype() == np.float32
            assert nn.Tensor([1.0, 2.0]).data.dtype == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype(np.int32)

    def test_python_scalars_use_default(self):
        nn.set_default_dtype(np.float32)
        assert nn.Tensor(3.0).data.dtype == np.float32

    def test_float_arrays_keep_their_dtype(self):
        # An explicit float32 array is not silently promoted even while the
        # default is float64, and vice versa.
        assert nn.Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        nn.set_default_dtype(np.float32)
        assert nn.Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64

    def test_explicit_dtype_wins(self):
        t = nn.Tensor(np.ones(3, dtype=np.float64), dtype=np.float32)
        assert t.data.dtype == np.float32


class TestFloat32Graphs:
    def test_binary_ops_do_not_promote(self):
        x = nn.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        for result in (x + 1, x - 0.5, x * 2.0, x / 3.0, 1.0 - x, 2.0 / (x + 1)):
            assert result.data.dtype == np.float32, result.data.dtype

    def test_reductions_keep_dtype(self):
        x = nn.Tensor(np.ones((3, 4), dtype=np.float32))
        assert x.sum().data.dtype == np.float32
        assert x.mean(axis=1).data.dtype == np.float32
        assert x.max(axis=0).data.dtype == np.float32

    def test_gradients_are_float32(self):
        x = nn.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        ((x * 2.0).tanh().sum()).backward()
        assert x.grad.dtype == np.float32

    def test_initializers_follow_default(self):
        rng = np.random.default_rng(0)
        nn.set_default_dtype(np.float32)
        assert init.xavier_uniform((3, 4), rng).dtype == np.float32
        assert init.zeros((5,)).dtype == np.float32

    def test_initializer_values_match_across_dtypes(self):
        # Same seed must produce the same draws regardless of dtype, so a
        # float32 run is a cast of the float64 run, not a different model.
        shape = (4, 6)
        w64 = init.kaiming_uniform(shape, np.random.default_rng(7))
        nn.set_default_dtype(np.float32)
        w32 = init.kaiming_uniform(shape, np.random.default_rng(7))
        np.testing.assert_allclose(w32, w64.astype(np.float32))

    def test_embedding_table_follows_default(self):
        nn.set_default_dtype(np.float32)
        table = np.eye(4, 3)  # float64 input
        emb = nn.Embedding(4, 3, weights=table, trainable=False)
        assert emb.weight.data.dtype == np.float32
        assert emb(np.array([0, 2], dtype=np.int32)).data.dtype == np.float32


class TestSerializationDtype:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        with nn.default_dtype("float32"):
            model = nn.MLP([4, 5, 3], rng)
        path = tmp_path / "model.npz"
        nn.save_module(model, path)
        with nn.default_dtype("float32"):
            clone = nn.MLP([4, 5, 3], np.random.default_rng(2))
        nn.load_module(clone, path)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            assert b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_with_dtype_recasts(self, tmp_path):
        rng = np.random.default_rng(3)
        model = nn.MLP([4, 3], rng)  # float64
        path = tmp_path / "model.npz"
        nn.save_module(model, path)
        clone = nn.MLP([4, 3], np.random.default_rng(4))
        nn.load_module(clone, path, dtype=np.float32)
        for _, param in clone.named_parameters():
            assert param.data.dtype == np.float32


class TestPredictorOutputDtype:
    """Regression: predict_pairs once allocated its output float64 no matter
    what dtype the model computed in — predictions silently up-cast."""

    @pytest.fixture(scope="class")
    def tiny_world(self):
        from repro.data import (
            GeneratorConfig,
            cold_start_split,
            generate_domain_pair,
        )

        dataset = generate_domain_pair(
            "books",
            "movies",
            GeneratorConfig(num_users=40, num_items_per_domain=15,
                            reviews_per_user_mean=4.0, seed=11),
        )
        return dataset, cold_start_split(dataset, seed=5)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predict_pairs_returns_configured_dtype(self, tiny_world, dtype):
        from repro.core import ColdStartPredictor, OmniMatchConfig, OmniMatchTrainer

        dataset, split = tiny_world
        config = OmniMatchConfig(
            embed_dim=8, num_filters=3, kernel_sizes=(2,), invariant_dim=4,
            specific_dim=4, projection_dim=4, doc_len=16, vocab_size=200,
            epochs=1, batch_size=16, early_stopping=False, dtype=dtype,
        )
        result = OmniMatchTrainer(dataset, split, config).fit()
        predictor = ColdStartPredictor(result, batch_size=16)
        test = split.eval_interactions(dataset, "test")
        pairs = [(r.user_id, r.item_id) for r in test[:4]]
        assert predictor.predict_pairs(pairs).dtype == np.dtype(dtype)
        assert predictor.predict_pairs([]).dtype == np.dtype(dtype)


class TestCrossEntropyMatchesReference:
    """The fused loss and the reference composition agree on the same logits."""

    def test_fused_loss_equals_composed_loss(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        fused = nn.cross_entropy(nn.Tensor(logits), labels).item()
        composed = reference.cross_entropy(nn.Tensor(logits), labels).item()
        assert fused == pytest.approx(composed, rel=1e-12)


class TestNoGradDecorator:
    def test_decorated_function_builds_no_graph(self):
        @nn.no_grad()
        def forward(x):
            out = (x * 2.0).sum()
            assert not nn.is_grad_enabled()
            return out

        x = nn.Tensor(np.ones(3), requires_grad=True)
        out = forward(x)
        assert not out.requires_grad

    def test_decorator_restores_grad_mode(self):
        @nn.no_grad()
        def noop():
            return None

        noop()
        assert nn.is_grad_enabled()

    def test_decorator_restores_on_exception(self):
        @nn.no_grad()
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        assert nn.is_grad_enabled()

    def test_decorator_preserves_metadata(self):
        @nn.no_grad()
        def documented():
            """docstring survives wrapping"""

        assert documented.__name__ == "documented"
        assert "survives" in documented.__doc__

    def test_context_manager_still_works(self):
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()
