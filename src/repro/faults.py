"""Deterministic fault injection for the robustness test harness.

Production training runs die in three ways the runtime must survive: the
process is killed mid-epoch, the numerics diverge (NaN/Inf losses or
gradients), and checkpoints on disk rot (truncation, bit-flips, tampering).
This module simulates all three **deterministically** — every injector is
driven by explicit coordinates or a seed, so a chaos run that fails is
exactly reproducible.

Injectors plug into :meth:`repro.core.OmniMatchTrainer.fit` via
``fault_injector=...`` and receive three hooks per batch:

* ``before_batch(epoch, batch)`` — may raise :class:`SimulatedCrash` to
  model the process dying mid-epoch;
* ``after_forward(epoch, batch, losses)`` — may overwrite the loss tensors
  (how :class:`NonFiniteLossInjector` plants a NaN/Inf loss);
* ``after_backward(epoch, batch, parameters)`` — may corrupt gradients
  (how :class:`NonFiniteGradientInjector` plants a NaN/Inf gradient).

Supervised worker fleets (the task pool, the serving daemon) take a
:class:`WorkerFaultPlan` of scripted deaths and stalls instead.

The file-corruption helpers (:func:`flip_random_bit`, :func:`truncate_file`,
:func:`delete_manifest_entry`) mutate checkpoint artifacts on disk; the
chaos suite asserts that every such corruption is *detected* by
:func:`repro.core.checkpoint.read_training_checkpoint` rather than loaded.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "SimulatedCrash",
    "FaultInjector",
    "CompositeInjector",
    "CrashInjector",
    "NonFiniteLossInjector",
    "NonFiniteGradientInjector",
    "WorkerFaultPlan",
    "POISON_USER",
    "random_crash_point",
    "flip_random_bit",
    "truncate_file",
    "delete_manifest_entry",
]


class SimulatedCrash(RuntimeError):
    """Stands in for SIGKILL: the training process dies without cleanup."""


class FaultInjector:
    """No-op base class; injectors override only the hooks they need."""

    def before_batch(self, epoch: int, batch: int) -> None:
        """Called before the batch is assembled into a forward pass."""

    def after_forward(self, epoch: int, batch: int, losses: dict) -> None:
        """Called with the loss tensors, before the finiteness guard."""

    def after_backward(
        self, epoch: int, batch: int, parameters: Sequence
    ) -> None:
        """Called with the model parameters after gradients are computed."""


class CompositeInjector(FaultInjector):
    """Fan one hook invocation out to several injectors, in order."""

    def __init__(self, injectors: Sequence[FaultInjector]) -> None:
        self.injectors = list(injectors)

    def before_batch(self, epoch: int, batch: int) -> None:
        for injector in self.injectors:
            injector.before_batch(epoch, batch)

    def after_forward(self, epoch: int, batch: int, losses: dict) -> None:
        for injector in self.injectors:
            injector.after_forward(epoch, batch, losses)

    def after_backward(
        self, epoch: int, batch: int, parameters: Sequence
    ) -> None:
        for injector in self.injectors:
            injector.after_backward(epoch, batch, parameters)


class _ScheduledFault(FaultInjector):
    """Shared firing logic: trigger at (epoch, batch), once or every time.

    ``repeat=False`` (default) models a transient fault — it fires exactly
    once, so the trainer's rollback-and-retry recovers. ``repeat=True``
    models a persistent fault that re-fires on every retry of the epoch,
    which is how the tests exhaust the retry budget.
    """

    def __init__(self, epoch: int, batch: int, repeat: bool = False) -> None:
        self.epoch = epoch
        self.batch = batch
        self.repeat = repeat
        self.fired = 0

    def _should_fire(self, epoch: int, batch: int) -> bool:
        if epoch != self.epoch or batch != self.batch:
            return False
        if self.fired and not self.repeat:
            return False
        self.fired += 1
        return True


class CrashInjector(_ScheduledFault):
    """Raise :class:`SimulatedCrash` at the scheduled (epoch, batch)."""

    def before_batch(self, epoch: int, batch: int) -> None:
        if self._should_fire(epoch, batch):
            raise SimulatedCrash(
                f"injected crash at epoch {epoch}, batch {batch}"
            )


class NonFiniteLossInjector(_ScheduledFault):
    """Overwrite the total loss with ``value`` (default NaN)."""

    def __init__(
        self,
        epoch: int,
        batch: int,
        value: float = float("nan"),
        repeat: bool = False,
    ) -> None:
        super().__init__(epoch, batch, repeat)
        self.value = value

    def after_forward(self, epoch: int, batch: int, losses: dict) -> None:
        if self._should_fire(epoch, batch):
            tensor = losses["total"]
            tensor.data = np.full_like(tensor.data, self.value)


class NonFiniteGradientInjector(_ScheduledFault):
    """Plant ``value`` (default NaN) into one parameter's gradient."""

    def __init__(
        self,
        epoch: int,
        batch: int,
        value: float = float("nan"),
        param_index: int = 0,
        repeat: bool = False,
    ) -> None:
        super().__init__(epoch, batch, repeat)
        self.value = value
        self.param_index = param_index

    def after_backward(
        self, epoch: int, batch: int, parameters: Sequence
    ) -> None:
        if self._should_fire(epoch, batch):
            param = parameters[self.param_index]
            if param.grad is None:
                param.grad = np.zeros_like(param.data)
            param.grad.flat[0] = self.value


class WorkerFaultPlan:
    """Deterministic deaths and stalls for a supervised worker fleet: the
    task pool's workers (the experiment engine and the tuner) and the
    recommendation daemon's serving workers.

    Coordinates are ``(slot, generation, unit)``: the worker occupying
    ``slot`` in ``generation``, about to handle the ``unit``-th message
    (0-based) that generation has taken from its task queue — one task in
    the pool, one request batch in the daemon. ``kills`` is a set of
    coordinates at which the worker dies via ``os._exit`` — no cleanup, no
    exception propagation, exactly like a SIGKILL. ``stalls`` maps
    coordinates to seconds the worker sleeps first: the wedged-but-alive
    failure mode, which the daemon's stall watchdog converts into a death.

    Because a respawn bumps the generation, the healed worker sails past
    the same unit unless the plan also schedules its new generation, so a
    chaos run exercises death → requeue → recover with a reproducible
    schedule. The plan is picklable and travels to workers in their spawn
    arguments.
    """

    #: Exit code of an injected death (distinguishable from real ones).
    EXIT_CODE = 117

    def __init__(
        self,
        kills: Sequence[tuple[int, int, int]] = (),
        stalls: dict[tuple[int, int, int], float] | None = None,
    ) -> None:
        self.kills = frozenset(
            (int(slot), int(generation), int(unit)) for slot, generation, unit in kills
        )
        self.stalls = {
            (int(slot), int(generation), int(unit)): float(seconds)
            for (slot, generation, unit), seconds in (stalls or {}).items()
        }

    def apply(self, slot: int, generation: int, unit: int) -> None:
        """Stall and/or die as scheduled for this unit (no-op otherwise)."""
        seconds = self.stalls.get((slot, generation, unit), 0.0)
        if seconds > 0:
            time.sleep(seconds)
        if (slot, generation, unit) in self.kills:
            os._exit(self.EXIT_CODE)


#: Sentinel user id that raises inside a serving worker's execution path
#: (the document store tolerates unknown ids, so the daemon worker checks
#: for the sentinel explicitly), standing in for any malformed or
#: internally-poisoned request. The daemon must answer it with an ``error``
#: response and keep the batch-mates (and the worker) healthy.
POISON_USER = "__repro_poisoned_user__"


def random_crash_point(
    seed: int, epochs: int, batches_per_epoch: int, min_epoch: int = 1
) -> tuple[int, int]:
    """Seed-driven (epoch, batch) coordinates for a :class:`CrashInjector`."""
    if epochs < min_epoch or batches_per_epoch < 1:
        raise ValueError("need at least one epoch and one batch to crash in")
    rng = np.random.default_rng(seed)
    epoch = int(rng.integers(min_epoch, epochs + 1))
    batch = int(rng.integers(0, batches_per_epoch))
    return epoch, batch


# ----------------------------------------------------------------------
# On-disk corruption (checkpoint rot simulation)
# ----------------------------------------------------------------------
def flip_random_bit(path: str | os.PathLike, seed: int = 0) -> int:
    """Flip one seed-chosen bit in ``path``; returns the byte offset."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: cannot flip a bit in an empty file")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(len(data)))
    data[offset] ^= 1 << int(rng.integers(8))
    path.write_bytes(bytes(data))
    return offset


def truncate_file(path: str | os.PathLike, keep_fraction: float = 0.5) -> int:
    """Chop ``path`` down to ``keep_fraction`` of its bytes; returns new size."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    data = path.read_bytes()
    keep = int(len(data) * keep_fraction)
    path.write_bytes(data[:keep])
    return keep


def delete_manifest_entry(
    checkpoint_dir: str | os.PathLike, filename: str
) -> None:
    """Drop ``filename``'s entry from a checkpoint's MANIFEST (tampering)."""
    manifest_path = Path(checkpoint_dir) / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["files"][filename]
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
