"""Shared-memory array packs: publish numpy arrays once, map them anywhere.

The parallel engine moves two kinds of bulk data from the parent to its
workers: generated datasets (review text re-encoded as byte buffers) and
:class:`~repro.data.batching.DocumentMatrices` (contiguous ``int32``
document tensors). Pickling either through a task queue would copy the
bytes once per task; instead the parent publishes each blob exactly once
into a ``multiprocessing.shared_memory`` segment and tasks carry only a
:class:`ShmRef` — the segment name plus an array layout — from which any
worker reconstructs zero-copy numpy views.

Lifecycle contract
------------------
* The **parent** owns every segment: it creates them via
  :meth:`ShmPack.publish` and must :meth:`ShmPack.unlink` them (the engine
  does so per world as soon as the world's last task completes, and again
  in its ``finally`` block).
* **Workers** only :func:`attach`; an attached pack must be closed but
  never unlinked.
* Every created segment is recorded, with the pid that created it, in a
  module-level registry and an ``atexit`` hook unlinks leftovers, so even an abnormal parent exit (a
  raised :class:`~repro.parallel.engine.ParallelExecutionError`, a test
  failure) leaves nothing behind in ``/dev/shm``. The first
  :meth:`ShmPack.publish` additionally installs SIGTERM/SIGINT handlers
  (:func:`install_signal_cleanup`) that run the same sweep before the
  signal's previous behavior resumes — ``atexit`` never fires for a
  signal-killed daemon, and a long-lived publisher must not leak on
  ``kill``. A forked child inherits the registry (and, until its entry
  resets them, the handlers), so the sweep only ever unlinks segments the
  sweeping process created itself: a worker never destroys its parent's.

On Python < 3.13 a child process that merely attaches a segment would
still register it with its ``resource_tracker``, which then unlinks the
segment when the child exits — destroying data the parent still serves to
other workers. :func:`attach` suppresses that attach-time registration
entirely to preserve single-owner semantics (3.13+ has ``track=False``
for the same purpose).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import secrets
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ShmLayout",
    "ShmRef",
    "ShmPack",
    "AttachedPack",
    "attach",
    "install_signal_cleanup",
    "live_segments",
    "pack_strings",
    "unpack_strings",
]

_ALIGN = 64

#: Segments created and not yet unlinked: name -> pid of the creator.
_LIVE_SEGMENTS: dict[str, int] = {}


def live_segments() -> frozenset[str]:
    """Segments this process created and has not unlinked yet."""
    pid = os.getpid()
    return frozenset(name for name, creator in _LIVE_SEGMENTS.items() if creator == pid)


def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    for name in live_segments():
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass
        _LIVE_SEGMENTS.pop(name, None)


atexit.register(_cleanup_at_exit)

#: Original handlers captured by :func:`install_signal_cleanup`.
_SIGNAL_PREVIOUS: dict[int, object] = {}

#: Seconds a signal-killed host waits for SIGTERMed workers before SIGKILL.
_CHILD_GRACE_S = 2.0


def _stop_daemonic_children() -> None:  # pragma: no cover - subprocess
    """SIGTERM this process's daemonic children, wait, then SIGKILL them.

    On a normal exit multiprocessing's own exit handler terminates daemonic
    children (every supervised worker is one); a signal death under
    ``SIG_DFL`` skips it, and the workers would outlive their host.
    """
    children = [child for child in multiprocessing.active_children() if child.daemon]
    for child in children:
        child.terminate()
    deadline = time.monotonic() + _CHILD_GRACE_S
    for child in children:
        child.join(max(0.0, deadline - time.monotonic()))
    for child in children:
        if child.is_alive():
            child.kill()
            child.join()


def _signal_cleanup_handler(signum, frame) -> None:  # pragma: no cover - subprocess
    """Unlink live segments, then resume the signal's previous behavior."""
    _cleanup_at_exit()
    previous = _SIGNAL_PREVIOUS.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    if previous is signal.SIG_IGN:
        return
    # SIG_DFL (or unknown): stop the workers, restore the default
    # disposition and re-raise so the process still dies with the correct
    # termination status.
    _stop_daemonic_children()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_signal_cleanup() -> bool:
    """Unlink live segments on SIGTERM/SIGINT, not just at interpreter exit.

    The ``atexit`` sweep only runs on a *normal* exit; a daemon killed with
    SIGTERM (the default disposition simply terminates the process) would
    leak every segment it published into ``/dev/shm``. This installs
    handlers that run the sweep and then chain to the signal's previous
    behavior — a prior Python handler is called; otherwise the daemonic
    worker processes are stopped, ``SIG_DFL`` is restored and the signal
    re-raised so the exit status stays honest.

    Idempotent. Signal handlers can only be installed from the main
    thread; returns ``True`` when the handlers are (already) in place and
    ``False`` when installation was not possible (non-main thread), in
    which case only the ``atexit`` sweep protects the process.
    """
    if _SIGNAL_PREVIOUS:
        return True
    if threading.current_thread() is not threading.main_thread():
        return False
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous = signal.getsignal(signum)
            signal.signal(signum, _signal_cleanup_handler)
        except (ValueError, OSError):  # pragma: no cover - exotic contexts
            return False
        _SIGNAL_PREVIOUS[signum] = previous
    return True


@dataclass(frozen=True)
class ShmLayout:
    """Placement of one array inside a segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmRef:
    """Picklable handle to a published pack: segment name + array layouts."""

    name: str
    arrays: tuple[tuple[str, ShmLayout], ...]

    def nbytes(self) -> int:
        """Total payload bytes described by the layout."""
        return sum(
            int(np.dtype(layout.dtype).itemsize) * int(np.prod(layout.shape, dtype=np.int64))
            for _, layout in self.arrays
        )


def _aligned(size: int) -> int:
    return (size + _ALIGN - 1) // _ALIGN * _ALIGN


def _open_attached(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting tracker ownership."""
    try:
        segment = shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        # Suppress the attach-time registration rather than undoing it
        # afterwards: forked workers all talk to the parent's tracker, whose
        # name cache is a *set* — register/unregister pairs from two workers
        # interleave as add, add(no-op), remove, remove(KeyError). Not
        # sending either message keeps the parent's registration intact.
        # Workers attach from their main thread only, so the swap is safe.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]
    return segment


class ShmPack:
    """A set of named numpy arrays published into one shared segment."""

    def __init__(self, segment: shared_memory.SharedMemory, ref: ShmRef) -> None:
        self._segment = segment
        self.ref = ref
        self._unlinked = False

    @classmethod
    def publish(cls, arrays: dict[str, np.ndarray], prefix: str = "repro") -> "ShmPack":
        """Copy ``arrays`` into a fresh shared segment (one copy, ever)."""
        layouts: list[tuple[str, ShmLayout]] = []
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            layouts.append(
                (name, ShmLayout(array.dtype.str, tuple(array.shape), offset))
            )
            offset = _aligned(offset + array.nbytes)
        install_signal_cleanup()  # publishers must survive SIGTERM unleaked
        segment_name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=segment_name, create=True, size=max(1, offset)
        )
        _LIVE_SEGMENTS[segment.name] = os.getpid()
        for (name, layout), array in zip(layouts, arrays.values()):
            array = np.ascontiguousarray(array)
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf, offset=layout.offset
            )
            view[...] = array
        return cls(segment, ShmRef(name=segment.name, arrays=tuple(layouts)))

    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays published)."""
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - live views still exported
            pass

    def unlink(self) -> None:
        """Destroy the segment (idempotent); only the publisher may call this."""
        if self._unlinked:
            return
        self.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
        self._unlinked = True
        _LIVE_SEGMENTS.pop(self.ref.name, None)


class AttachedPack:
    """Read-only zero-copy views over a pack published by another process."""

    def __init__(self, ref: ShmRef) -> None:
        self.ref = ref
        self._segment = _open_attached(ref.name)
        self.arrays: dict[str, np.ndarray] = {}
        for name, layout in ref.arrays:
            view = np.ndarray(
                layout.shape,
                dtype=np.dtype(layout.dtype),
                buffer=self._segment.buf,
                offset=layout.offset,
            )
            view.flags.writeable = False
            self.arrays[name] = view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def close(self) -> None:
        """Release the mapping. Views obtained earlier must not be used after."""
        self.arrays = {}
        try:
            self._segment.close()
        except BufferError:
            # Some views are still alive (e.g. matrices kept by a fitted
            # model); the mapping is released when they are garbage collected.
            pass


def attach(ref: ShmRef) -> AttachedPack:
    """Map a published pack into this process (zero-copy, read-only)."""
    return AttachedPack(ref)


# ----------------------------------------------------------------------
# String columns
# ----------------------------------------------------------------------
def pack_strings(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode a string column as (utf-8 byte buffer, int64 offsets).

    ``offsets`` has ``len(values) + 1`` entries; value ``i`` spans
    ``buffer[offsets[i]:offsets[i + 1]]``.
    """
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(chunk) for chunk in encoded], out=offsets[1:])
    buffer = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return buffer, offsets


def unpack_strings(buffer: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of :func:`pack_strings`."""
    data = buffer.tobytes()
    return [
        data[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]
