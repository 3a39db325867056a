"""Core layers: Linear, Embedding, Dropout, ReLU, MLP.

Each layer takes an explicit RNG at construction so weight initialization is
reproducible, and (for :class:`Dropout`) at call time via a generator stored
on the layer.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype

__all__ = ["Linear", "Embedding", "Dropout", "ReLU", "MLP", "LayerNorm"]


class Linear(Module):
    """Affine map ``y = x @ W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-index to dense-vector lookup table.

    Set ``trainable=False`` to freeze the table — the reproduction freezes
    its PPMI-SVD word embeddings just as the paper freezes fastText.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
        weights: np.ndarray | None = None,
        trainable: bool = True,
        padding_idx: int | None = None,
    ) -> None:
        super().__init__()
        if weights is not None:
            table = np.asarray(weights, dtype=get_default_dtype()).copy()
            if table.shape != (num_embeddings, embedding_dim):
                raise ValueError(
                    f"weights shape {table.shape} != ({num_embeddings}, {embedding_dim})"
                )
        else:
            if rng is None:
                raise ValueError("either weights or rng must be provided")
            table = init.normal((num_embeddings, embedding_dim), rng, std=0.1)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.trainable = trainable
        if trainable:
            self.weight = Parameter(table)
        else:
            self.weight = Tensor(table)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            indices = indices.astype(np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight.take_rows(indices)


class Dropout(Module):
    """Inverted dropout layer; identity when ``module.eval()`` is active."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LayerNorm(Module):
    """Layer normalization over the last axis (used by the transformer ablation)."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gain = Parameter(init.ones((dim,)))
        self.shift = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gain + self.shift


class MLP(Module):
    """Multi-layer perceptron with ReLU activations and optional dropout.

    The paper uses MLPs for the domain classifier (Eq. 14/16), the rating
    classifier (Eq. 18), the contrastive projection head (Eq. 11), and the
    EMCDR mapping function — this single class serves all of them.
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        final_activation: bool = False,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.dims = list(dims)
        self.final_activation = final_activation
        self.linears: list[Linear] = []
        self.dropouts: list[Dropout | None] = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            linear = Linear(d_in, d_out, rng)
            setattr(self, f"linear{index}", linear)
            self.linears.append(linear)
            if dropout > 0.0:
                drop = Dropout(dropout, rng)
                setattr(self, f"dropout{index}", drop)
                self.dropouts.append(drop)
            else:
                self.dropouts.append(None)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for index, linear in enumerate(self.linears):
            if index < last or self.final_activation:
                if x.data.ndim == 2:
                    x = F.linear_relu(x, linear.weight, linear.bias)
                else:
                    x = F.relu(linear(x))
                drop = self.dropouts[index]
                if drop is not None:
                    x = drop(x)
            else:
                x = linear(x)
        return x
