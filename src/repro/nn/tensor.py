"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` deep-learning substrate.
The paper's reference implementation uses PyTorch; since PyTorch is not
available in this environment, we provide a small but complete tape-based
autograd engine that supports every operation OmniMatch and the baselines
need: broadcasting arithmetic, matrix products, reductions, indexing /
embedding gathers, stable softmax building blocks, concatenation, and the
gradient-reversal trick used by the Domain Adversarial Training Module.

Design notes
------------
* A :class:`Tensor` wraps a ``float64`` or ``float32`` numpy array. The
  dtype used for freshly-created tensors (python scalars, lists, integer
  arrays) is governed by :func:`set_default_dtype`; floating numpy arrays
  keep their dtype, so a graph built from float32 parameters stays float32
  end to end. Each differentiable operation records a backward closure and
  its parent tensors; :meth:`Tensor.backward` topologically sorts the tape
  and accumulates gradients into ``.grad`` arrays.
* Scalars and plain-python operands in binary ops are coerced to the dtype
  of the tensor they combine with, so a constant like ``x * 0.5`` never
  silently promotes a float32 graph to float64.
* Broadcasting is handled by :func:`_unbroadcast`, which sums gradients over
  broadcast axes so shapes always match their tensors.
* Gradients are accumulated with ``+=`` so diamond-shaped graphs (a tensor
  consumed by several ops) are correct.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "set_tensor_stats",
    "tensor_stats_enabled",
    "tensor_stats",
    "reset_tensor_stats",
]

_GRAD_ENABLED = True

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = np.dtype(np.float64)


def set_default_dtype(dtype: "str | np.dtype | type") -> np.dtype:
    """Set the dtype of freshly-created tensors; returns the previous dtype.

    Accepts ``'float32'``/``'float64'``, ``np.float32``/``np.float64`` or
    their dtype objects. Training runs float32 for speed (see
    ``OmniMatchConfig.dtype``); gradient checking opts into float64.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {resolved}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float64 unless changed)."""
    return _DEFAULT_DTYPE


class default_dtype:
    """Context manager scoping :func:`set_default_dtype` to a block."""

    def __init__(self, dtype: "str | np.dtype | type") -> None:
        self.dtype = np.dtype(dtype)

    def __enter__(self) -> "default_dtype":
        self._previous = set_default_dtype(self.dtype)
        return self

    def __exit__(self, *exc_info: object) -> None:
        set_default_dtype(self._previous)


# Lightweight allocation / FLOP accounting, off by default. Enabled either
# by exporting ``REPRO_TENSOR_STATS=1`` before import or by calling
# :func:`set_tensor_stats` at runtime; the disabled path costs one global
# bool check per graph node, which is lost in the noise next to the GEMMs.
TENSOR_STATS_ENV = "REPRO_TENSOR_STATS"

_TENSOR_STATS_ENABLED = os.environ.get(TENSOR_STATS_ENV, "").strip() not in ("", "0")
_TENSOR_STATS = {
    "graph_tensors": 0,
    "graph_bytes": 0,
    "matmul_flops": 0,
    "backward_bytes": 0,
    "peak_bytes": 0,
    # Always 0: nothing feeds them since the tape graph optimizer was
    # removed. perfbench/pipeline.py still reads them as deltas; ROADMAP
    # item 12 drops them together with its reader.
    "arena_hits": 0,
    "arena_misses": 0,
    "fused_ops": 0,
}

# Fresh bytes (graph_bytes + backward_bytes) at the last optimizer-step
# boundary; _mark_step() turns the delta since then into ``peak_bytes``.
_STEP_BASE = [0]


def _mark_step() -> None:
    """Record an optimizer-step boundary for ``peak_bytes`` accounting.

    Called from every ``Optimizer.step``, so each training loop (the
    OmniMatch trainer and each baseline ``fit``) reports per-step peaks
    without per-model wiring.
    """
    if not _TENSOR_STATS_ENABLED:
        return
    current = _TENSOR_STATS["graph_bytes"] + _TENSOR_STATS["backward_bytes"]
    delta = current - _STEP_BASE[0]
    if delta > _TENSOR_STATS["peak_bytes"]:
        _TENSOR_STATS["peak_bytes"] = delta
    _STEP_BASE[0] = current


def set_tensor_stats(enabled: bool) -> bool:
    """Toggle graph-node allocation/FLOP counting; returns prior setting."""
    global _TENSOR_STATS_ENABLED
    previous = _TENSOR_STATS_ENABLED
    _TENSOR_STATS_ENABLED = bool(enabled)
    return previous


def tensor_stats_enabled() -> bool:
    """Whether allocation/FLOP counting is active (see ``REPRO_TENSOR_STATS``)."""
    return _TENSOR_STATS_ENABLED


def tensor_stats() -> dict:
    """Snapshot of the accumulated counters.

    ``graph_tensors`` counts every tensor created through the autograd graph
    helper (:meth:`Tensor._make`) while gradients are enabled — inference
    (``no_grad``) tensors are excluded so serving traffic does not inflate
    training-graph stats. ``graph_bytes`` counts the bytes of every one of
    those tensors' outputs (each is a fresh array), ``backward_bytes``
    counts freshly allocated gradient storage, ``peak_bytes`` is the largest
    fresh allocation footprint observed in a single optimizer step, and
    ``matmul_flops`` counts ``2 * m * n * k`` multiply-adds per forward
    GEMM: every ``@`` plus the GEMMs inside the fused kernels
    (``linear_relu``, ``conv_bank_pool``). ``arena_hits``, ``arena_misses``
    and ``fused_ops`` always read 0; they stay only because
    ``perfbench/pipeline.py`` still reads them.
    """
    return dict(_TENSOR_STATS)


def reset_tensor_stats() -> None:
    """Zero all counters (the enabled flag is left as-is)."""
    for key in _TENSOR_STATS:
        _TENSOR_STATS[key] = 0
    _STEP_BASE[0] = 0


class no_grad:
    """Disables graph construction (inference mode).

    Usable both as a context manager::

        with no_grad():
            model(x)

    and as a decorator::

        @no_grad()
        def predict(...): ...
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autograd tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _segment_sum_rows(
    indices: np.ndarray, grad: np.ndarray, num_rows: int
) -> np.ndarray:
    """Row-wise scatter-add via one ``np.bincount`` call.

    Equivalent to ``np.add.at(out, indices, grad)`` for integer row indices
    but ~an order of magnitude faster — ``np.add.at`` runs an unbuffered
    per-element inner loop, while ``bincount`` over offset-expanded indices
    is a single vectorized pass. This is the embedding-gather backward.
    """
    cols = grad.shape[1] if grad.ndim > 1 else 1
    flat_grad = grad.reshape(-1, cols)
    expanded = indices.reshape(-1, 1) * cols + np.arange(cols)
    summed = np.bincount(
        expanded.ravel(), weights=flat_grad.ravel(), minlength=num_rows * cols
    )
    return summed.reshape(num_rows, cols).astype(grad.dtype, copy=False)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
    )

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        name: str | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        if dtype is not None:
            array = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.floating)) and data.dtype in _FLOAT_DTYPES:
            # Keep float32/float64 arrays (and 0-d reduction results, which
            # numpy hands back as scalars) in their own dtype.
            array = np.asarray(data)
        else:
            array = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the scalar value of a size-1 tensor."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        out = Tensor(self.data)
        out.data = self.data
        return out

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Record one tape node: ``data`` computed from ``parents``.

        The node keeps ``backward`` and the parents that require grad, so
        :meth:`backward` can replay the tape in reverse. Every op's output
        is a fresh array, so under ``REPRO_TENSOR_STATS`` its bytes count
        toward ``graph_bytes``.
        """
        out = Tensor(data)
        if _TENSOR_STATS_ENABLED and _GRAD_ENABLED:
            # no_grad (inference) tensors are deliberately excluded so
            # serving traffic does not inflate training-graph stats.
            _TENSOR_STATS["graph_tensors"] += 1
            _TENSOR_STATS["graph_bytes"] += out.data.nbytes
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            # ``owned=True`` promises the caller freshly allocated ``grad``
            # and will not touch it again, so the defensive copy that keeps
            # ``self.grad`` independent of caller-held buffers can be
            # skipped — backwards on the hot path hand over arrays they
            # just built (GEMM outputs, zeros+scatter results).
            self.grad = grad if owned else grad.copy()
            if _TENSOR_STATS_ENABLED:
                _TENSOR_STATS["backward_bytes"] += grad.nbytes
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) - self

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        a, b = self.data, other.data
        out_data = a @ b
        if _TENSOR_STATS_ENABLED:
            # out.size multiply-add pairs per reduction step over the
            # contracted axis: exact for 2-D, batched, and vector operands.
            _TENSOR_STATS["matmul_flops"] += 2 * out_data.size * self.data.shape[-1]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if other.data.ndim == 2 else self.data * grad)
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (2.0 * out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise max(0, x)."""
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when None)."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``.

        The whole gradient routes to the first argmax (one index-scatter in
        backward, nothing precomputed in forward) — a valid subgradient
        that equals the tie-splitting one whenever the max is unique.
        """
        winners = np.expand_dims(np.argmax(self.data, axis=axis), axis=axis)
        out_data = np.take_along_axis(self.data, winners, axis=axis)
        if not keepdims:
            out_data = np.squeeze(out_data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(full, winners, g, axis=axis)
            self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis`` (implemented as ``-max(-x)``)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Reshape to ``shape`` (accepts varargs or a single tuple)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        """Permute axes (full reversal when ``axes`` is None)."""
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        fast_rows = (
            isinstance(index, np.ndarray)
            and index.dtype.kind in "iu"
            and self.data.ndim >= 1
            and (index.size == 0 or index.min() >= 0)
        )

        def backward(grad: np.ndarray) -> None:
            if fast_rows:
                cols = int(np.prod(self.data.shape[1:], dtype=np.int64)) or 1
                full = _segment_sum_rows(
                    index, grad.reshape(-1, cols), self.data.shape[0]
                ).reshape(self.data.shape)
            else:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(self.data[index], (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0) — the embedding-lookup primitive."""
        indices = np.asarray(indices)

        def backward(grad: np.ndarray) -> None:
            cols = self.data.shape[-1]
            full = _segment_sum_rows(
                indices, grad.reshape(-1, cols), self.data.shape[0]
            ).reshape(self.data.shape)
            self._accumulate(full, owned=True)

        return Tensor._make(self.data[indices], (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)


def as_tensor(
    value: "Tensor | float | int | np.ndarray | Sequence",
    dtype: np.dtype | type | None = None,
) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op when already one).

    ``dtype`` applies only when wrapping a non-Tensor — existing tensors are
    never cast, so mixed-dtype Tensor-Tensor arithmetic still follows numpy
    promotion. Binary ops pass their own dtype here so scalar operands do
    not promote float32 graphs to float64.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)
