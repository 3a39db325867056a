"""Tape-level graph optimizer: automatic kernel fusion + arena buffer reuse.

The hand-written fused kernels (``softmax_cross_entropy``, ``linear_relu``,
``conv_bank_pool``) are bespoke work each, and models that do not route
through them (the BERT-ablation transformer extractor, the neural
baselines' custom towers) never benefit. This module makes *every* workload
fast with two orthogonal passes over the autograd tape recorded by
:mod:`repro.nn.tensor`:

**Fusion (chain absorption).** Every tape node carries a lightweight IR —
its op name (``_op``), consumer count (``_users``), fusion depth
(``_fdepth``), and a purity flag (``_pure``). When a new node is recorded,
:meth:`GraphOptimizer.absorb` absorbs the leftmost *pure* single-consumer
prefix of its parents: the new node's ``_backward`` closure is rewritten to
*replay* the absorbed closures immediately after its own, which is exactly
the prefix of the sequence the global reverse-topological pass executes
(the leftmost parent's region fires directly after its consumer, with
nothing in between). Parent tuples are never rewritten — the traversal
graph stays literally the original — and the backward DFS simply skips
absorbed subtrees that are pure, so shared junctions keep their exact
composed slots and every gradient accumulates in the exact composed order.
Fused execution is therefore bit-identical (float32 and float64) to the
unfused tape — asserted model-by-model in ``tests/nn/test_graph_fusion.py``.
Chains collapse transitively, so the familiar patterns fall out of one
rule with zero per-kernel code:

* ``linear -> relu``: ``x @ W.T + b`` followed by ``relu`` becomes one tape
  node (transpose, matmul, add all absorbed);
* ``conv1d -> relu -> max-pool``: a convolution node plus its max over
  time become one node;
* ``softmax -> nll``: a composed ``log_softmax -> one-hot mul -> sum ->
  mean`` chain (``supcon_loss``'s log-softmax, or the composed
  cross-entropy oracle in ``tests/nn/reference.py``) collapses to a single
  fused node, mirroring the hand-written ``softmax_cross_entropy`` kernel's
  shape;
* arbitrary elementwise chains (``exp``/``log``/``sqrt``/scalar arithmetic).

If an absorbed node later gains a second consumer (e.g. a residual
connection reuses an activation that a chain already swallowed), the
absorption is *repaired*: the node — and every replay-list member after it,
whose early replay its purity justified — is evicted from the replay list.
Since parent tuples were never rewritten, the evicted nodes still occupy
their original graph positions and the global pass fires each of them at
its exact composed slot, after all consumers contributed.

**Arena allocation.** Activation and gradient buffers are served from a
per-step arena of keyed free lists instead of fresh ``np.ndarray``
allocations. The first step is the warmup that populates the arena
(``arena_misses``); once shapes are stable every request is a hit and the
steady-state fresh-allocation rate drops to (near) zero. ``Optimizer.step``
ends with a step boundary hook that recycles all buffers handed out during
the step — by then gradients have been consumed and the step's activations
are dead, and a recycled buffer is never written until the next forward
requests it, so post-step reads (e.g. ``loss.item()``) stay valid. A shape
change (last ragged batch, a different model) simply misses and falls back
to a fresh allocation — copy-always semantics are preserved bit-for-bit
because buffers only ever receive full ``out=``/``copyto`` writes.

Both passes are driven by the ``REPRO_TENSOR_STATS`` counters
(``arena_hits``/``arena_misses``, ``graph_bytes``/``backward_bytes``/
``peak_bytes``, ``fused_ops``) and engaged via
:func:`set_graph_optimizer` (``OmniMatchTrainer.fit`` installs one for
every run) or the :func:`graph_scope` context manager used by the baseline
``fit`` loops.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor

__all__ = [
    "Arena",
    "GraphOptimizer",
    "set_graph_optimizer",
    "graph_scope",
    "tape_ops",
    "tape_size",
]


class Arena:
    """Keyed free lists of step-scoped numpy buffers.

    ``request`` hands out a buffer for ``(shape, dtype)`` — reusing one
    released by a previous step when available, allocating fresh otherwise —
    and ``release_all`` returns everything handed out during the step to the
    free lists. Buffers below ``min_bytes`` are not worth the bookkeeping
    and are declined (the caller allocates normally): small blocks come out
    of the allocator's own free lists essentially for free, while blocks
    past the mmap threshold cost fresh zero pages — and their page faults —
    every single step, which is exactly what recycling eliminates.
    ``max_bytes`` caps the total footprint so a pathological workload
    degrades to plain allocation instead of hoarding memory.
    """

    def __init__(self, min_bytes: int = 1 << 16, max_bytes: int = 1 << 30) -> None:
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes
        self.total_bytes = 0
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._handed: list[tuple[tuple, np.ndarray]] = []

    def request(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray | None:
        """A writable ``shape``/``dtype`` buffer, or None to allocate normally."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes < self.min_bytes:
            return None
        key = (shape, dtype.char)
        free = self._free.get(key)
        if free:
            buf = free.pop()
            if _tensor._TENSOR_STATS_ENABLED:
                _tensor._TENSOR_STATS["arena_hits"] += 1
        else:
            if self.total_bytes + nbytes > self.max_bytes:
                return None
            buf = np.empty(shape, dtype)
            self.total_bytes += nbytes
            if _tensor._TENSOR_STATS_ENABLED:
                _tensor._TENSOR_STATS["arena_misses"] += 1
        self._handed.append((key, buf))
        return buf

    def release_all(self) -> None:
        """Return every buffer handed out this step to the free lists."""
        for key, buf in self._handed:
            self._free.setdefault(key, []).append(buf)
        self._handed.clear()


class GraphOptimizer:
    """The active fusion + arena pass over the autograd tape.

    Install with :func:`set_graph_optimizer` (or :func:`graph_scope`);
    :meth:`absorb` is invoked by ``Tensor._make`` for every recorded node,
    and :meth:`end_step` by ``Optimizer.step`` at each step boundary.
    """

    def __init__(
        self,
        fuse: bool = True,
        max_depth: int = 32,
        min_bytes: int = 1 << 16,
        max_arena_bytes: int = 1 << 30,
    ) -> None:
        self.fuse = fuse
        self.max_depth = max_depth
        self.arena = Arena(min_bytes=min_bytes, max_bytes=max_arena_bytes)
        self.fused_nodes = 0

    # ------------------------------------------------------------------
    # Fusion pass
    # ------------------------------------------------------------------
    def absorb(self, out: Tensor) -> None:
        """Absorb the leftmost pure single-consumer parent prefix of ``out``.

        Bit-identity argument: the global backward executes closures in the
        reversed postorder of a right-to-left DFS, which fires the leftmost
        parent's entire region *immediately* after the host with nothing in
        between. So replaying a left-to-right prefix of parents straight
        after the host's own closure reproduces the composed sequence
        exactly — provided each replayed parent is *pure* (its whole region
        is itself covered by replay, so no junction inside it needs a global
        slot between prefix members). The parent tuple is never rewritten:
        the traversal graph stays literally the original, absorbed-and-pure
        subtrees are merely skipped by the DFS, and impure absorbed nodes
        are walked through so interior junctions keep their exact slots.

        A parent joins the prefix when ``out`` is its only consumer, it has
        a backward closure (a recorded op, not a leaf), no gradient is
        pending on it, and the fusion depth stays within bounds. Parents
        without a closure (inputs, parameters) are transparent — they fire
        nothing, so the prefix continues past them (and their consumer
        counts are not even tracked: a leaf can never be absorbed or
        hosted, so nothing reads them). The first parent that is neither
        transparent nor absorbable-and-pure ends the prefix and marks
        ``out`` impure.

        Consumer counting and the prefix scan run in one pass. That is
        sound even when a parent recurs in ``parents`` (``x * x``): every
        consumer slot belongs to ``out`` itself, and the fused replay fires
        only after ``out``'s own closure has delivered *all* of its
        contributions, so a parent absorbed at its first slot still
        receives its complete gradient before replay.
        """
        max_depth = self.max_depth
        fuse = self.fuse and out._backward is not None
        scanning = fuse
        absorbed: list[Tensor] | None = None
        depth = out._fdepth
        pure = True
        for p in out._parents:
            if p._backward is None:
                continue  # transparent: a leaf fires no closure
            n = p._users + 1
            p._users = n
            if n == 2 and p._host is not None:
                _repair(p)
            if not scanning:
                continue
            if n == 1 and p.grad is None and p._fdepth < max_depth:
                if absorbed is None:
                    absorbed = []
                absorbed.append(p)
                if p._fdepth + 1 > depth:
                    depth = p._fdepth + 1
                if p._pure:
                    continue
            pure = False
            scanning = False
        if not fuse:
            return
        out._pure = pure
        if absorbed is None:
            return
        out._fdepth = depth
        for p in absorbed:
            p._host = (out, absorbed)
        inner = out._backward
        interior = absorbed

        def fused_backward(grad: np.ndarray) -> None:
            # Replay of the fused region: the node's own closure, then each
            # absorbed parent's closure with its accumulated gradient, left
            # to right — exactly the prefix of the composed reversed-
            # postorder sequence (see absorb's docstring). Clearing the
            # gradient afterwards makes the global pass skip the node when
            # the DFS walked through it (impure hosts).
            inner(grad)
            for node in interior:
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
                node.grad = None

        out._backward = fused_backward
        self.fused_nodes += len(absorbed)
        if _tensor._TENSOR_STATS_ENABLED:
            _tensor._TENSOR_STATS["fused_ops"] += len(absorbed)

    # ------------------------------------------------------------------
    # Step lifecycle
    # ------------------------------------------------------------------
    def end_step(self) -> None:
        """Recycle the step's arena buffers and mark the stats boundary."""
        self.arena.release_all()
        _tensor._mark_step()


def _repair(p: Tensor) -> None:
    """Undo an absorption when ``p`` gains a second consumer.

    ``p`` (and every replay-list member after it — their early replay was
    justified only by ``p``'s region being pure) is removed from the host's
    replay list. Because absorption never rewrites parent tuples, the
    removed nodes still sit at their original positions in the graph, so
    the global pass fires each of them exactly at its composed
    reversed-postorder slot, after all consumers contributed. The impurity
    cascades upward: each host on the chain becomes impure (its region now
    contains globally-fired nodes), so replay-list members *after* it at
    the next level up are evicted the same way.
    """
    host, interior = p._host
    idx = interior.index(p)
    for node in interior[idx:]:
        node._host = None
    del interior[idx:]
    host._pure = False
    while host._host is not None:
        up, up_interior = host._host
        idx = up_interior.index(host)
        for node in up_interior[idx + 1 :]:
            node._host = None
        del up_interior[idx + 1 :]
        host = up
        host._pure = False


def set_graph_optimizer(graph: GraphOptimizer | None) -> GraphOptimizer | None:
    """Install ``graph`` as the process-wide pass; returns the previous one.

    Pass None to disable. Only tensors recorded while gradients are enabled
    participate; ``no_grad`` (inference) execution is never touched.
    """
    return _tensor._set_graph(graph)


class graph_scope:
    """Context manager installing a (fresh) graph optimizer for a block.

    Used by baseline ``fit`` loops and tests::

        with nn.graph_scope():
            ... training steps ...

    On exit the previous optimizer is restored and the scope's arena is
    dropped wholesale (buffers go back to the allocator with the scope).
    """

    def __init__(self, graph: GraphOptimizer | None = None, enabled: bool = True) -> None:
        self.graph = graph if graph is not None else (GraphOptimizer() if enabled else None)

    def __enter__(self) -> GraphOptimizer | None:
        self._previous = set_graph_optimizer(self.graph)
        return self.graph

    def __exit__(self, *exc_info: object) -> None:
        set_graph_optimizer(self._previous)


def _walk(t: Tensor):
    """Yield the tape nodes the backward pass actually visits from ``t``.

    Mirrors ``Tensor.backward``'s traversal: pure absorbed subtrees are
    skipped (their closures run via fused replay), and absorbed nodes the
    walk passes through do not fire on their own, so they are not yielded.
    """
    visited: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._backward is not None and node._host is None:
            yield node
        for parent in node._parents:
            if parent._host is not None and parent._pure:
                continue
            stack.append(parent)


def tape_size(t: Tensor) -> int:
    """Number of tape nodes reachable from ``t`` (fused chains count once)."""
    return sum(1 for _ in _walk(t))


def tape_ops(t: Tensor) -> Counter:
    """Histogram of op names reachable from ``t`` — the visible tape IR."""
    return Counter(node._op or "?" for node in _walk(t))
