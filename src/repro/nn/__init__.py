"""``repro.nn`` — a from-scratch deep-learning substrate on numpy.

Provides the tensor autograd engine, layers, losses, and optimizers that
OmniMatch and the neural baselines are built on. The public surface mirrors
the small slice of PyTorch the paper's implementation relies on.
"""

from .attention import MultiHeadSelfAttention, TransformerEncoder, TransformerEncoderLayer
from .conv import TextConv, clear_conv_workspace, conv_bank_pool
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear, ReLU
from .loss import (
    CrossEntropyLoss,
    MSELoss,
    SupConLoss,
    cross_entropy,
    mse_loss,
    softmax_cross_entropy,
    supcon_loss,
)
from .module import Module, Parameter, Sequential
from .optim import SGD, Adadelta, Adam, Optimizer, clip_grad_norm
from .serialization import load_module, save_module
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    reset_tensor_stats,
    set_default_dtype,
    set_tensor_stats,
    stack,
    tensor_stats,
    tensor_stats_enabled,
)
from . import functional
from . import init

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "set_tensor_stats",
    "tensor_stats_enabled",
    "tensor_stats",
    "reset_tensor_stats",
    "clear_conv_workspace",
    "conv_bank_pool",
    "softmax_cross_entropy",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "LayerNorm",
    "MLP",
    "TextConv",
    "MultiHeadSelfAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "MSELoss",
    "CrossEntropyLoss",
    "SupConLoss",
    "mse_loss",
    "cross_entropy",
    "supcon_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "Adadelta",
    "clip_grad_norm",
    "save_module",
    "load_module",
    "functional",
    "init",
]
