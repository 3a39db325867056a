"""Optimizers: SGD (momentum), Adam, and Adadelta.

The paper trains OmniMatch with Adadelta (lr = 0.02, rho = 0.95), so
Adadelta receives a faithful implementation (Zeiler 2012, with the learning
-rate scaling variant PyTorch uses). SGD and Adam serve the baselines.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter
from .tensor import _mark_step

__all__ = ["Optimizer", "SGD", "Adam", "Adadelta", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for divergence diagnostics). A
    non-finite norm (any NaN/Inf gradient) is returned unchanged and the
    gradients are left unscaled: dividing by NaN would poison every
    parameter, and dividing by Inf would silently zero the whole update —
    callers must treat a non-finite return as a divergence signal instead.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if not np.isfinite(total):
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total


class Optimizer:
    """Base class holding the parameter list and the zero-grad convenience."""

    def __init__(self, parameters: list[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients of every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the current gradients."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization (crash-safe training checkpoints)
    # ------------------------------------------------------------------
    def _buffers(self) -> dict[str, list[np.ndarray]]:
        """Named per-parameter state buffers (the *live* lists, not copies)."""
        return {}

    def _hyper(self) -> dict[str, float | int]:
        """Scalar hyperparameters / counters worth persisting."""
        return {}

    def _set_hyper(self, hyper: dict[str, float | int]) -> None:
        """Restore the scalars captured by :meth:`_hyper`."""

    def state_dict(self) -> dict:
        """Snapshot of optimizer kind, hyperparameters, and state buffers.

        Buffer arrays are copied, so the snapshot is immune to later
        :meth:`step` calls — a resumed run continues bit-identically.
        """
        return {
            "kind": type(self).__name__.lower(),
            "hyper": dict(self._hyper()),
            "buffers": {
                name: [array.copy() for array in arrays]
                for name, arrays in self._buffers().items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The optimizer kind, buffer names, per-buffer counts, and array
        shapes must all match the receiving optimizer; mismatches raise
        ``ValueError`` naming the offending entry.
        """
        kind = type(self).__name__.lower()
        if state.get("kind") != kind:
            raise ValueError(
                f"optimizer state is for {state.get('kind')!r}, not {kind!r}"
            )
        buffers = self._buffers()
        loaded = state.get("buffers", {})
        if set(loaded) != set(buffers):
            raise ValueError(
                f"optimizer buffer mismatch: state has {sorted(loaded)}, "
                f"expected {sorted(buffers)}"
            )
        for name, arrays in buffers.items():
            values = loaded[name]
            if len(values) != len(arrays):
                raise ValueError(
                    f"buffer {name!r} holds {len(values)} arrays for "
                    f"{len(arrays)} parameters"
                )
            for index, (current, value) in enumerate(zip(arrays, values)):
                value = np.asarray(value)
                if value.shape != current.shape:
                    raise ValueError(
                        f"buffer {name}[{index}]: shape {value.shape} != "
                        f"{current.shape}"
                    )
                arrays[index] = value.astype(current.dtype, copy=True)
        self._set_hyper(dict(state.get("hyper", {})))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _buffers(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self._velocity}

    def _hyper(self) -> dict[str, float | int]:
        return {"lr": self.lr, "momentum": self.momentum,
                "weight_decay": self.weight_decay}

    def _set_hyper(self, hyper: dict[str, float | int]) -> None:
        self.lr = float(hyper.get("lr", self.lr))
        self.momentum = float(hyper.get("momentum", self.momentum))
        self.weight_decay = float(hyper.get("weight_decay", self.weight_decay))

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * update
        _mark_step()


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _buffers(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def _hyper(self) -> dict[str, float | int]:
        return {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "weight_decay": self.weight_decay,
                "step_count": self._step_count}

    def _set_hyper(self, hyper: dict[str, float | int]) -> None:
        self.lr = float(hyper.get("lr", self.lr))
        self.beta1 = float(hyper.get("beta1", self.beta1))
        self.beta2 = float(hyper.get("beta2", self.beta2))
        self.eps = float(hyper.get("eps", self.eps))
        self.weight_decay = float(hyper.get("weight_decay", self.weight_decay))
        self._step_count = int(hyper.get("step_count", self._step_count))

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        _mark_step()


class Adadelta(Optimizer):
    """Adadelta (Zeiler 2012) — the paper's optimizer (lr=0.02, rho=0.95)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.02,
        rho: float = 0.95,
        eps: float = 1e-6,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.weight_decay = weight_decay
        self._avg_sq_grad = [np.zeros_like(p.data) for p in self.parameters]
        self._avg_sq_delta = [np.zeros_like(p.data) for p in self.parameters]
        # Scratch buffers so step() allocates nothing: the update for each
        # parameter needs two temporaries at a time (numerator / denominator,
        # then delta / delta**2).
        self._scratch_a = [np.empty_like(p.data) for p in self.parameters]
        self._scratch_b = [np.empty_like(p.data) for p in self.parameters]

    def _buffers(self) -> dict[str, list[np.ndarray]]:
        # Scratch buffers are overwritten on every step — only the running
        # averages carry state across steps.
        return {"avg_sq_grad": self._avg_sq_grad,
                "avg_sq_delta": self._avg_sq_delta}

    def _hyper(self) -> dict[str, float | int]:
        return {"lr": self.lr, "rho": self.rho, "eps": self.eps,
                "weight_decay": self.weight_decay}

    def _set_hyper(self, hyper: dict[str, float | int]) -> None:
        self.lr = float(hyper.get("lr", self.lr))
        self.rho = float(hyper.get("rho", self.rho))
        self.eps = float(hyper.get("eps", self.eps))
        self.weight_decay = float(hyper.get("weight_decay", self.weight_decay))

    def step(self) -> None:
        rho, eps = self.rho, self.eps
        for param, sq_grad, sq_delta, a, b in zip(
            self.parameters,
            self._avg_sq_grad,
            self._avg_sq_delta,
            self._scratch_a,
            self._scratch_b,
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            # In-place formulation of the reference update; the operand
            # order of every floating-point op matches the textbook
            # expressions, so results are bit-identical:
            #   sq_grad  = rho * sq_grad + (1 - rho) * grad**2
            #   delta    = sqrt(sq_delta + eps) / sqrt(sq_grad + eps) * grad
            #   sq_delta = rho * sq_delta + (1 - rho) * delta**2
            #   param   -= lr * delta
            np.multiply(grad, grad, out=a)
            a *= 1.0 - rho
            sq_grad *= rho
            sq_grad += a
            np.add(sq_delta, eps, out=a)
            np.sqrt(a, out=a)
            np.add(sq_grad, eps, out=b)
            np.sqrt(b, out=b)
            a /= b
            a *= grad  # a == delta
            sq_delta *= rho
            np.multiply(a, a, out=b)
            b *= 1.0 - rho
            sq_delta += b
            a *= self.lr
            param.data -= a
        _mark_step()
