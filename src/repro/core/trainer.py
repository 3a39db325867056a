"""OmniMatch trainer: corpus preparation, epochs, and timing hooks.

Training data are the *target-domain* interactions of the training
(overlapping) users. For each interaction the batch carries:

* the user's source document,
* the user's target document — with probability ``aux_mix_prob`` replaced by
  the user's *auxiliary* document (Algorithm 1 over like-minded training
  users). This augmentation closes the train/test gap: at evaluation time a
  cold-start user's target document *is* an auxiliary document, so the
  target extractor must learn to read them. Disabling
  ``use_auxiliary_reviews`` removes the augmentation *and* makes cold users
  fall back to their source document at prediction time — the failure mode
  §4.1 describes, and the largest degradation in Table 5.
* the item document and the rating class label.

Batch assembly is vectorized: documents live in the
:class:`DocumentMatrices` int32 tensors, per-interaction slot arrays are
built once per epoch, and each batch is a fancy-index gather with the
aux/dropout mixing decided by one vectorized RNG draw per batch. The draws
are one double per sample, in batch order, so the augmentation choices are
exactly those of a per-sample loop over the same seed (the oracle in
``tests/core/test_trainer_internals.py``).

Training runs the fused kernels (``conv_bank_pool``, ``linear_relu``,
``softmax_cross_entropy``) on the plain autograd tape of
:meth:`repro.nn.Tensor.backward`.

Observability
-------------
Each phase (batch assembly / forward / backward / optimizer / validation)
is timed into the hierarchical ``trainer.tracer``
(:class:`repro.obs.SpanTracer`); ``trainer.tracer.totals()`` gives the flat
per-phase seconds the throughput benchmark reports. Batch loss / gradient
norm / learning rate land in ``trainer.metrics``
(:class:`repro.obs.MetricsRegistry`) every step. When a
:class:`repro.obs.TelemetrySink` is attached (the ``telemetry`` constructor
argument, or an ambient sink installed with :func:`repro.obs.use_sink`),
``fit`` streams the whole run as structured events — ``run_start``,
per-batch ``batch``, per-epoch ``epoch`` (with an RNG-stream checksum),
every ``health`` entry, checkpoint lifecycle, and finally one ``span``
per traced path, a ``metrics`` snapshot and ``run_end`` — to ``run.jsonl``.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .. import nn
from ..data.batching import DocumentMatrices, DocumentStore
from ..data.records import CrossDomainDataset, Review
from ..data.split import ColdStartSplit
from ..obs import MetricsRegistry, SpanTracer, get_active_sink, use_sink
from ..perf import throughput
from ..text import train_ppmi_svd_embeddings
from .auxiliary import AuxiliaryReviewGenerator
from .config import OmniMatchConfig
from .model import OmniMatchModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import TelemetrySink

if TYPE_CHECKING:  # pragma: no cover - cycle guard (faults imports nothing here)
    from ..faults import FaultInjector

__all__ = [
    "EpochStats",
    "HealthEvent",
    "TrainResult",
    "TrainingDivergedError",
    "OmniMatchTrainer",
]

BatchArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class EpochStats:
    """Loss averages and wall-clock for one epoch."""

    epoch: int
    total: float
    rating: float
    scl: float
    domain: float
    seconds: float
    valid_rmse: float | None = None


@dataclass
class HealthEvent:
    """One entry in the structured run-health log.

    ``kind`` is one of ``nonfinite_loss`` / ``nonfinite_grad`` (detection),
    ``rollback`` / ``lr_backoff`` (recovery actions),
    ``checkpoint`` (a training checkpoint was written), or ``resume``
    (training restarted from a checkpoint). A checkpoint's health log is
    read back as-is, so kinds written by older versions still load.
    """

    epoch: int
    kind: str
    batch: int | None = None
    value: float | None = None
    detail: str = ""


class TrainingDivergedError(RuntimeError):
    """Training hit non-finite numerics and exhausted its retry budget."""


class _DivergenceDetected(Exception):
    """Internal signal: a batch produced a non-finite loss or gradient."""

    def __init__(self, kind: str, batch: int, value: float) -> None:
        super().__init__(kind)
        self.kind = kind
        self.batch = batch
        self.value = value


@dataclass
class TrainResult:
    """Everything a caller needs after training."""

    model: OmniMatchModel
    store: DocumentStore
    aux_generator: AuxiliaryReviewGenerator
    history: list[EpochStats] = field(default_factory=list)
    health: list[HealthEvent] = field(default_factory=list)

    @property
    def train_seconds(self) -> float:
        return sum(stat.seconds for stat in self.history)


class OmniMatchTrainer:
    """Builds the corpus artifacts and runs the training loop."""

    def __init__(
        self,
        dataset: CrossDomainDataset,
        split: ColdStartSplit,
        config: OmniMatchConfig | None = None,
        telemetry: "TelemetrySink | None" = None,
        store: DocumentStore | None = None,
    ) -> None:
        self.dataset = dataset
        self.split = split
        self.config = config if config is not None else OmniMatchConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self.telemetry = telemetry

        if store is not None:
            # A pre-built store (e.g. reconstructed from shared memory by a
            # parallel worker) is only usable if it encodes exactly what
            # this config would have encoded.
            mismatched = [
                name
                for name, want in (
                    ("doc_len", self.config.doc_len),
                    ("vocab_size", self.config.vocab_size),
                    ("field", self.config.field),
                )
                if getattr(store, name) != want
            ]
            if mismatched:
                raise ValueError(
                    "pre-built DocumentStore does not match the config on: "
                    + ", ".join(mismatched)
                )
        self.store = store if store is not None else DocumentStore(
            dataset,
            split,
            doc_len=self.config.doc_len,
            vocab_size=self.config.vocab_size,
            field=self.config.field,
        )
        embedding_table = train_ppmi_svd_embeddings(
            self.store.visible_token_documents(),
            self.store.vocab,
            dim=self.config.embed_dim,
            seed=self.config.seed,
        )
        with nn.default_dtype(self.config.dtype):
            self.model = OmniMatchModel(embedding_table, self.config, self._rng)
        self.aux_generator = AuxiliaryReviewGenerator(
            dataset,
            allowed_users=split.train_users,
            field=self.config.field,
            seed=self.config.seed,
        )
        # Auxiliary documents are deterministic per user (the generator uses
        # a per-user RNG), so encoding them here instead of lazily during the
        # first epoch changes nothing numerically — it only moves the one-off
        # tokenization cost out of the training loop.
        self._aux_doc_cache: dict[str, np.ndarray] = {
            user_id: self.store.encode_reviews(self.aux_generator.generate(user_id))
            for user_id in split.train_users
        }
        self._aux_matrix: np.ndarray | None = None
        self._aux_filled: np.ndarray | None = None
        # Same reasoning for the document matrices: packing them is memoized
        # and deterministic, so force it now rather than mid-first-epoch.
        self.store.build_matrices()

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Time a phase into the span tracer."""
        token = self.tracer.enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.tracer.exit(token, time.perf_counter() - start)

    def _emit(self, kind: str, **fields) -> None:
        """Send an event to the attached sink, or the ambient one, if any."""
        sink = self.telemetry if self.telemetry is not None else get_active_sink()
        if sink is not None:
            sink.emit(kind, **fields)

    def _note_health(self, health: list[HealthEvent], event: HealthEvent) -> None:
        """Record a health event in the run log and the telemetry stream."""
        health.append(event)
        self.metrics.inc(f"health.{event.kind}")
        self._emit(
            "health",
            epoch=event.epoch,
            health_kind=event.kind,
            batch=event.batch,
            value=event.value,
            detail=event.detail,
        )

    def _rng_checksum(self) -> str:
        """Short digest of the RNG bit-generator state (stream identity).

        Two runs that have drawn the same random stream — e.g. a resumed
        run and its uninterrupted twin at the same epoch — have equal
        checksums, so telemetry diffs expose RNG divergence directly.
        """
        state = repr(self._rng.bit_generator.state).encode()
        return hashlib.sha256(state).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Document assembly
    # ------------------------------------------------------------------
    def _auxiliary_doc(self, user_id: str) -> np.ndarray:
        if user_id not in self._aux_doc_cache:
            reviews = self.aux_generator.generate(user_id)
            self._aux_doc_cache[user_id] = self.store.encode_reviews(reviews)
        return self._aux_doc_cache[user_id]

    def _document_matrices(self) -> DocumentMatrices:
        matrices = self.store.build_matrices()
        if self._aux_matrix is None:
            num_users = matrices.source.shape[0]
            self._aux_matrix = np.zeros(
                (num_users, self.config.doc_len), dtype=np.int32
            )
            self._aux_filled = np.zeros(num_users, dtype=bool)
        return matrices

    def _fill_aux_rows(self, matrices: DocumentMatrices, user_ids: Sequence[str]) -> None:
        """Materialize auxiliary-document rows for ``user_ids`` (memoized)."""
        assert self._aux_matrix is not None and self._aux_filled is not None
        for user_id in user_ids:
            slot = matrices.user_slots[user_id]
            if not self._aux_filled[slot]:
                self._aux_matrix[slot] = self._auxiliary_doc(user_id)
                self._aux_filled[slot] = True

    def _mix_and_gather(
        self,
        matrices: DocumentMatrices,
        user_rows: np.ndarray,
        item_rows: np.ndarray,
        labels: np.ndarray,
    ) -> BatchArrays:
        """Fancy-index gather + vectorized aux/dropout mixing for one batch."""
        draws = self._rng.random(user_rows.shape[0])
        source = matrices.source[user_rows]
        target = matrices.target[user_rows]
        drop_mask = draws < self.config.target_dropout_prob
        if self.config.use_auxiliary_reviews and self.config.aux_mix_prob > 0.0:
            aux_mask = ~drop_mask & (
                draws < self.config.target_dropout_prob + self.config.aux_mix_prob
            )
            if aux_mask.any():
                target[aux_mask] = self._aux_matrix[user_rows[aux_mask]]
        if drop_mask.any():
            target[drop_mask] = 0
        items = matrices.items[item_rows]
        return source, target, items, labels

    def _epoch_batches(self, interactions: Sequence[Review]) -> Iterator[BatchArrays]:
        """Yield assembled batch arrays for one epoch, timing the assembly."""
        batch_size = self.config.batch_size
        with self._phase("batch_assembly"):
            matrices = self._document_matrices()
            count = len(interactions)
            user_rows = np.fromiter(
                (matrices.user_slots[r.user_id] for r in interactions),
                dtype=np.int64,
                count=count,
            )
            item_rows = np.fromiter(
                (matrices.item_slots[r.item_id] for r in interactions),
                dtype=np.int64,
                count=count,
            )
            labels = np.fromiter(
                (r.rating_index for r in interactions), dtype=np.int64, count=count
            )
            if self.config.use_auxiliary_reviews and self.config.aux_mix_prob > 0.0:
                self._fill_aux_rows(
                    matrices, {r.user_id for r in interactions}
                )
            order = np.arange(count)
            self._rng.shuffle(order)
        for start in range(0, count, batch_size):
            index = order[start : start + batch_size]
            with self._phase("batch_assembly"):
                arrays = self._mix_and_gather(
                    matrices, user_rows[index], item_rows[index], labels[index]
                )
            yield arrays

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        epochs: int | None = None,
        validate_every: int = 0,
        *,
        resume_from: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
        checkpoint_dir: str | os.PathLike | None = None,
        keep_last: int = 3,
        fault_injector: "FaultInjector | None" = None,
    ) -> TrainResult:
        """Train for up to ``epochs`` (default: config.epochs) and return artifacts.

        With ``config.early_stopping`` (default), validation RMSE over the
        cold-start *validation* users is computed every epoch; training stops
        after ``config.patience`` epochs without improvement, and the best
        epoch's parameters are restored. ``validate_every`` > 0 additionally
        records validation RMSE on those epochs when early stopping is off.

        Fault tolerance
        ---------------
        ``checkpoint_every`` > 0 writes a crash-safe training checkpoint
        (model, optimizer, RNG state, early-stopping bookkeeping, history)
        under ``checkpoint_dir`` every that many epochs, plus at the final
        epoch; ``keep_last`` bounds how many periodic checkpoints are
        retained (the best-by-validation-RMSE checkpoint under ``best/`` is
        always kept). ``resume_from`` restores full training state from a
        checkpoint directory — or picks the newest *valid* checkpoint inside
        a run directory — and continues toward ``epochs``; a resumed run is
        bit-identical to the same run left uninterrupted, provided the
        trainer was built from the same ``(dataset, split, config)``.

        Every batch is guarded against non-finite numerics: a NaN/Inf loss
        or post-clip gradient norm rolls the run back to the start of the
        epoch, backs the learning rate off by ``config.lr_backoff_factor``,
        and retries the epoch; the retry budget is ``config.max_divergence_retries``, after which
        :class:`TrainingDivergedError` is raised. Every detection and
        recovery action lands in ``TrainResult.health``.

        ``fault_injector`` is a test-harness hook (see :mod:`repro.faults`).

        Telemetry
        ---------
        With a :class:`repro.obs.TelemetrySink` attached (constructor
        ``telemetry=`` argument or ambient :func:`repro.obs.use_sink`), the
        run streams structured events to ``run.jsonl``; the attached sink
        is also installed as the active sink for the duration, so
        checkpoint I/O events emitted by :mod:`repro.core.checkpoint` land
        in the same file. The stream ends with the ``span`` / ``metrics`` /
        ``run_end`` events even when training aborts.
        """
        with use_sink(self.telemetry):
            return self._fit(
                epochs,
                validate_every,
                resume_from=resume_from,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                keep_last=keep_last,
                fault_injector=fault_injector,
            )

    def _fit(
        self,
        epochs: int | None,
        validate_every: int,
        *,
        resume_from: str | os.PathLike | None,
        checkpoint_every: int,
        checkpoint_dir: str | os.PathLike | None,
        keep_last: int,
        fault_injector: "FaultInjector | None",
    ) -> TrainResult:
        from . import checkpoint as ckpt_io  # local import: cycle guard

        epochs = epochs if epochs is not None else self.config.epochs
        interactions = self.split.train_interactions(self.dataset)
        if not interactions:
            raise ValueError("no training interactions: split produced an empty train set")
        if self.config.early_stopping and not self.split.eval_interactions(
            self.dataset, "valid"
        ):
            raise ValueError(
                "early_stopping is enabled but the validation split is empty: "
                "validation RMSE would be NaN every epoch and training would "
                f"silently stop after patience={self.config.patience} epochs. "
                "Disable early_stopping or use a split with validation users."
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_every and keep_last < 1:
            raise ValueError("keep_last must be at least 1")

        if self.config.optimizer == "adam":
            optimizer = nn.Adam(self.model.parameters(), lr=1e-3)
        else:
            optimizer = nn.Adadelta(
                self.model.parameters(),
                lr=self.config.learning_rate,
                rho=self.config.rho,
            )
        history: list[EpochStats] = []
        health: list[HealthEvent] = []
        result = TrainResult(
            model=self.model, store=self.store, aux_generator=self.aux_generator,
            history=history, health=health,
        )
        best_rmse = float("inf")
        best_state: dict | None = None
        stale = 0
        start_epoch = 1
        if resume_from is not None:
            loaded, loaded_path = self._load_resume_state(resume_from)
            # ``epochs`` only bounds the loop (the target count is the
            # ``epochs`` argument) — resuming to train *further* is the
            # point of checkpointing, so it is exempt from the drift check.
            mismatched = [
                f.name for f in fields(OmniMatchConfig)
                if f.name != "epochs"
                and getattr(loaded.config, f.name) != getattr(self.config, f.name)
            ]
            if mismatched:
                raise ckpt_io.CheckpointError(
                    f"{loaded_path}: checkpoint config differs from the "
                    f"trainer's config in: {', '.join(mismatched)} — resume "
                    "requires the exact (dataset, split, config) the "
                    "checkpoint was trained with"
                )
            self.model.load_state_dict(loaded.model_state)
            optimizer.load_state_dict(loaded.optimizer_state)
            self._rng.bit_generator.state = loaded.rng_state
            history.extend(loaded.history)
            health.extend(loaded.health)
            best_rmse = loaded.best_rmse
            best_state = loaded.best_state
            stale = loaded.stale
            start_epoch = loaded.epoch + 1
            self._note_health(health, HealthEvent(
                epoch=loaded.epoch, kind="resume",
                detail=f"resumed from {loaded_path}",
            ))

        self._emit(
            "run_start",
            seed=self.config.seed,
            epochs=epochs,
            start_epoch=start_epoch,
            train_interactions=len(interactions),
            batch_size=self.config.batch_size,
            dtype=self.config.dtype,
            optimizer=self.config.optimizer,
            rng=self._rng_checksum(),
        )
        # The divergence retry budget is training state: a resumed run must
        # not receive a fresh allowance on top of rollbacks it already spent,
        # or kill-and-resume would tolerate more divergences in total than an
        # uninterrupted run. The spent count is recoverable from the
        # checkpointed health log, so no checkpoint-format change is needed.
        spent_retries = sum(1 for event in health if event.kind == "rollback")
        retries_left = max(0, self.config.max_divergence_retries - spent_retries)
        self.model.train()
        status = "aborted"
        try:
            epoch = start_epoch
            while epoch <= epochs:
                if self.config.early_stopping and stale >= self.config.patience:
                    break
                snapshot = self._capture_state(optimizer)
                alloc_before = (
                    nn.tensor_stats() if nn.tensor_stats_enabled() else None
                )
                try:
                    with self.tracer.span("epoch"):
                        stats = self._run_epoch(
                            epoch, interactions, optimizer, fault_injector
                        )
                except _DivergenceDetected as detected:
                    self._note_health(health, HealthEvent(
                        epoch=epoch, kind=detected.kind, batch=detected.batch,
                        value=detected.value,
                    ))
                    self._restore_state(snapshot, optimizer)
                    if retries_left <= 0:
                        raise TrainingDivergedError(
                            f"non-finite numerics at epoch {epoch}, batch "
                            f"{detected.batch} ({detected.kind}="
                            f"{detected.value}); retry budget of "
                            f"{self.config.max_divergence_retries} exhausted"
                        ) from None
                    retries_left -= 1
                    self._note_health(health, HealthEvent(
                        epoch=epoch, kind="rollback", batch=detected.batch,
                        detail="restored start-of-epoch model/optimizer/RNG state",
                    ))
                    optimizer.lr = optimizer.lr * self.config.lr_backoff_factor
                    self._note_health(health, HealthEvent(
                        epoch=epoch, kind="lr_backoff", value=optimizer.lr,
                        detail=f"learning rate scaled by {self.config.lr_backoff_factor}",
                    ))
                    continue  # retry the same epoch from the snapshot
                want_valid = self.config.early_stopping or (
                    validate_every and epoch % validate_every == 0
                )
                if want_valid:
                    with self._phase("validation"):
                        stats.valid_rmse = self._validation_rmse(result)
                    # Validation flips the model to eval mode; restore train
                    # mode for the next epoch regardless of early stopping.
                    self.model.train()
                history.append(stats)
                rng_digest = self._rng_checksum()
                samples = len(interactions)
                rate = throughput(samples, stats.seconds)
                self.metrics.observe("epoch_seconds", stats.seconds)
                self.metrics.observe("samples_per_sec", rate)
                self.metrics.set_gauge("rng_checksum", rng_digest)
                if stats.valid_rmse is not None:
                    self.metrics.set_gauge("valid_rmse", stats.valid_rmse)
                extra: dict = {}
                if alloc_before is not None:
                    after = nn.tensor_stats()
                    # Per-epoch allocation deltas (peak_bytes is a running
                    # per-step high-water mark, reported as-is). The schema
                    # allows extra fields, so old readers are unaffected.
                    extra["alloc"] = {
                        key: after[key] - alloc_before[key]
                        for key in ("graph_bytes", "backward_bytes")
                    }
                    extra["alloc"]["peak_bytes"] = after["peak_bytes"]
                self._emit(
                    "epoch",
                    epoch=stats.epoch,
                    seconds=stats.seconds,
                    samples=samples,
                    samples_per_sec=rate,
                    total=stats.total,
                    rating=stats.rating,
                    scl=stats.scl,
                    domain=stats.domain,
                    valid_rmse=stats.valid_rmse,
                    rng=rng_digest,
                    **extra,
                )
                stopping = False
                if self.config.early_stopping and stats.valid_rmse is not None:
                    if stats.valid_rmse < best_rmse - 1e-6:
                        best_rmse = stats.valid_rmse
                        best_state = self.model.state_dict()
                        stale = 0
                        if checkpoint_every:
                            ckpt_io.write_training_checkpoint(
                                self._make_checkpoint(
                                    optimizer, epoch, best_rmse, stale,
                                    best_state, history, health,
                                ),
                                Path(checkpoint_dir) / "best",
                            )
                    else:
                        stale += 1
                        stopping = stale >= self.config.patience
                if checkpoint_every and (
                    epoch % checkpoint_every == 0 or epoch == epochs or stopping
                ):
                    target = Path(checkpoint_dir) / ckpt_io.checkpoint_directory_name(epoch)
                    ckpt_io.write_training_checkpoint(
                        self._make_checkpoint(
                            optimizer, epoch, best_rmse, stale, best_state,
                            history, health,
                        ),
                        target,
                    )
                    ckpt_io.prune_checkpoints(checkpoint_dir, keep_last)
                    self._note_health(health, HealthEvent(
                        epoch=epoch, kind="checkpoint", detail=str(target),
                    ))
                if stopping:
                    break
                epoch += 1
            status = "completed"
        except TrainingDivergedError:
            status = "diverged"
            raise
        finally:
            self._finish_run(status, history)
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return result

    def _run_epoch(
        self,
        epoch: int,
        interactions: Sequence[Review],
        optimizer: nn.Optimizer,
        injector: "FaultInjector | None",
    ) -> EpochStats:
        """One guarded training epoch; raises on non-finite loss/gradients."""
        start = time.perf_counter()
        sums = {"total": 0.0, "rating": 0.0, "scl": 0.0, "domain": 0.0}
        batches = 0
        for batch_index, arrays in enumerate(self._epoch_batches(interactions)):
            if injector is not None:
                injector.before_batch(epoch, batch_index)
            with self._phase("forward"):
                losses = self.model.compute_losses(*arrays)
            if injector is not None:
                injector.after_forward(epoch, batch_index, losses)
            total = float(losses["total"].item())
            if not np.isfinite(total):
                raise _DivergenceDetected("nonfinite_loss", batch_index, total)
            with self._phase("backward"):
                optimizer.zero_grad()
                losses["total"].backward()
            if injector is not None:
                injector.after_backward(epoch, batch_index, self.model.parameters())
            with self._phase("optimizer"):
                grad_norm = nn.clip_grad_norm(
                    self.model.parameters(), self.config.grad_clip
                )
                if not np.isfinite(grad_norm):
                    raise _DivergenceDetected(
                        "nonfinite_grad", batch_index, grad_norm
                    )
                optimizer.step()
            for key in sums:
                sums[key] += losses[key].item()
            batches += 1
            batch_samples = int(arrays[3].shape[0])
            self.metrics.inc("batches")
            self.metrics.inc("samples", batch_samples)
            self.metrics.observe("batch_loss", total)
            self.metrics.observe("grad_norm", float(grad_norm))
            self.metrics.set_gauge("lr", float(optimizer.lr))
            self._emit(
                "batch",
                epoch=epoch,
                batch=batch_index,
                loss=total,
                grad_norm=float(grad_norm),
                lr=float(optimizer.lr),
                samples=batch_samples,
            )
        seconds = time.perf_counter() - start
        return EpochStats(
            epoch=epoch,
            total=sums["total"] / batches,
            rating=sums["rating"] / batches,
            scl=sums["scl"] / batches,
            domain=sums["domain"] / batches,
            seconds=seconds,
        )

    def _finish_run(self, status: str, history: list[EpochStats]) -> None:
        """Emit the end-of-run summary events and flush the sink.

        Runs from ``fit``'s finally block, so even an aborted run (a crash
        mid-epoch, an exhausted divergence budget) leaves a telemetry file
        that ends with one ``span`` per traced path, the ``trainer``
        ``metrics`` snapshot and ``run_end``.
        """
        summary = self.metrics.snapshot()
        if nn.tensor_stats_enabled():
            summary["gauges"]["tensor_ops"] = repr(nn.tensor_stats())
        for path, entry in self.tracer.summary().items():
            self._emit(
                "span", component="trainer", name=path, calls=entry["calls"],
                seconds=entry["inclusive_seconds"],
                exclusive_seconds=entry["exclusive_seconds"],
            )
        self._emit("metrics", component="trainer", **summary)
        self._emit("run_end", status=status, epochs_trained=len(history))
        sink = self.telemetry if self.telemetry is not None else get_active_sink()
        if sink is not None:
            sink.flush()

    # ------------------------------------------------------------------
    # Training-state capture (in-memory rollback + on-disk checkpoints)
    # ------------------------------------------------------------------
    def _capture_state(self, optimizer: nn.Optimizer) -> dict:
        """Copy of everything a bit-identical restart of this epoch needs."""
        return {
            "model": self.model.state_dict(),
            "optimizer": optimizer.state_dict(),
            "rng": self._rng.bit_generator.state,
        }

    def _restore_state(self, snapshot: dict, optimizer: nn.Optimizer) -> None:
        self.model.load_state_dict(snapshot["model"])
        optimizer.load_state_dict(snapshot["optimizer"])
        self._rng.bit_generator.state = snapshot["rng"]

    def _make_checkpoint(
        self,
        optimizer: nn.Optimizer,
        epoch: int,
        best_rmse: float,
        stale: int,
        best_state: dict | None,
        history: list[EpochStats],
        health: list[HealthEvent],
    ):
        from .checkpoint import TrainingCheckpoint  # local import: cycle guard

        return TrainingCheckpoint(
            config=self.config,
            epoch=epoch,
            model_state=self.model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            rng_state=self._rng.bit_generator.state,
            best_rmse=best_rmse,
            stale=stale,
            best_state=best_state,
            history=list(history),
            health=list(health),
        )

    def _load_resume_state(self, resume_from: str | os.PathLike):
        from .checkpoint import (  # local import: cycle guard
            CheckpointError,
            find_latest_checkpoint,
            read_training_checkpoint,
        )

        path = Path(resume_from)
        if (path / "MANIFEST.json").exists() or not path.is_dir():
            return read_training_checkpoint(path), path
        latest = find_latest_checkpoint(path)
        if latest is None:
            raise CheckpointError(
                f"{path}: no valid training checkpoint found (neither a "
                "checkpoint directory nor a run directory with complete "
                "epoch-* checkpoints)"
            )
        return read_training_checkpoint(latest), latest

    def _validation_rmse(self, result: TrainResult) -> float:
        from .predictor import ColdStartPredictor  # local import: cycle guard
        from ..eval.metrics import rmse

        predictor = ColdStartPredictor(result)
        interactions = self.split.eval_interactions(self.dataset, "valid")
        if not interactions:
            return float("nan")
        predicted = predictor.predict_interactions(interactions)
        actual = np.array([r.rating for r in interactions])
        return rmse(actual, predicted)
