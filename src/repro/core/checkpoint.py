"""Checkpointing: model checkpoints and crash-safe training checkpoints.

Two formats live here.

**Model checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`)
store a trained model's parameters (``weights.npz``) next to the exact
configuration used to build them. Because the corpus artifacts (vocabulary,
embeddings, auxiliary documents) are deterministic functions of
``(dataset, split, config)``, reloading rebuilds them through
:class:`~repro.core.trainer.OmniMatchTrainer` and then restores the
parameters — so a reloaded predictor reproduces the saved one bit-for-bit
on the same dataset and split.

**Training checkpoints** (:func:`write_training_checkpoint` /
:func:`read_training_checkpoint`) capture *full* training state at an epoch
boundary — model parameters, optimizer accumulators, the trainer's RNG
bit-generator state, the epoch counter, early-stopping bookkeeping, the
epoch history, and the run-health log — so an interrupted run resumes
bit-identically. The format is versioned and integrity-checked:

* every artifact is written atomically (temp file + fsync + rename);
* ``MANIFEST.json`` is written **last** and carries the SHA-256 digest and
  byte count of every artifact, so a checkpoint is complete if and only if
  a digest-clean manifest exists;
* :func:`read_training_checkpoint` verifies every digest before parsing —
  truncated, bit-flipped, or tampered checkpoints raise
  :class:`CheckpointCorruptionError` instead of loading silently.

Layout of one training checkpoint directory::

    MANIFEST.json        format name/version, epoch, per-file sha256+bytes
    config.json          OmniMatchConfig the run was built with
    weights.npz          model parameters (dotted names)
    optimizer.npz        optimizer buffers, keyed "<buffer>.<param index>"
    trainer_state.json   epoch, RNG state, early stopping, history, health
    best_weights.npz     best-by-validation parameters (only if tracked)
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..atomicio import atomic_write_bytes, sha256_bytes, sha256_file
from ..data.records import CrossDomainDataset
from ..data.split import ColdStartSplit
from ..nn import load_module
from ..nn.serialization import npz_bytes, save_arrays
from ..obs import emit_event
from .config import OmniMatchConfig
from .trainer import EpochStats, HealthEvent, OmniMatchTrainer, TrainResult

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "write_training_checkpoint",
    "read_training_checkpoint",
    "verify_checkpoint",
    "find_latest_checkpoint",
    "prune_checkpoints",
    "checkpoint_directory_name",
]

_CONFIG_FILE = "config.json"
_WEIGHTS_FILE = "weights.npz"
_OPTIMIZER_FILE = "optimizer.npz"
_STATE_FILE = "trainer_state.json"
_BEST_FILE = "best_weights.npz"
_MANIFEST_FILE = "MANIFEST.json"
_EPOCH_DIR_PREFIX = "epoch-"

FORMAT_NAME = "omnimatch-training-checkpoint"
FORMAT_VERSION = 1

#: Artifacts every training checkpoint must carry (best_weights is optional).
_REQUIRED_FILES = (_CONFIG_FILE, _WEIGHTS_FILE, _OPTIMIZER_FILE, _STATE_FILE)


class CheckpointError(RuntimeError):
    """A checkpoint is missing, incomplete, or cannot be interpreted."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint exists but fails integrity verification."""


# ----------------------------------------------------------------------
# Config (de)serialization with drift detection
# ----------------------------------------------------------------------
def _config_to_dict(config: OmniMatchConfig) -> dict:
    raw = dataclasses.asdict(config)
    # tuples are not JSON-roundtrippable; mark them for reconstruction
    raw["kernel_sizes"] = list(raw["kernel_sizes"])
    return raw


#: Config fields earlier versions wrote and this one no longer has. The
#: graph pass is bit-identical to the plain tape and the kernel fallback
#: only changed how a diverged epoch was retried, so those two are dropped
#: silently at any value; a ``legacy_path=True`` run trained on other
#: kernels, so dropping that one warns.
_RETIRED_FIELDS = ("divergence_kernel_fallback", "graph_opt", "legacy_path")


def _config_from_dict(raw: object, where: str) -> OmniMatchConfig:
    """Rebuild a config, reporting unknown/missing fields by name."""
    if not isinstance(raw, dict):
        raise CheckpointCorruptionError(f"{where}: config is not a JSON object")
    raw = dict(raw)
    retired = {name: raw.pop(name) for name in _RETIRED_FIELDS if name in raw}
    if retired.get("legacy_path"):
        warnings.warn(
            f"{where}: retired config field legacy_path=True ignored — the "
            "model loads and trains on the fused kernels",
            RuntimeWarning,
            stacklevel=2,
        )
    known = {f.name for f in dataclasses.fields(OmniMatchConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise CheckpointError(
            f"{where}: unknown config field(s): {', '.join(unknown)} — "
            "checkpoint written by a newer or incompatible version?"
        )
    missing = sorted(known - set(raw))
    if missing:
        warnings.warn(
            f"{where}: config field(s) missing, using defaults: "
            f"{', '.join(missing)}",
            RuntimeWarning,
            stacklevel=2,
        )
    if "kernel_sizes" in raw:
        raw["kernel_sizes"] = tuple(raw["kernel_sizes"])
    try:
        return OmniMatchConfig(**raw)
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"{where}: invalid config value: {error}") from error


def _read_json(path: Path, kind: str) -> Any:
    if not path.exists():
        raise CheckpointError(f"{path.parent}: missing {path.name} ({kind})")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointCorruptionError(
            f"{path}: invalid JSON in {kind} ({error})"
        ) from error


def _load_npz(path: Path) -> dict[str, np.ndarray]:
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, ValueError, KeyError, OSError) as error:
        raise CheckpointCorruptionError(
            f"{path}: unreadable npz archive ({error})"
        ) from error


# ----------------------------------------------------------------------
# Model checkpoints (inference-oriented; config + weights only)
# ----------------------------------------------------------------------
def save_checkpoint(result: TrainResult, directory: str | os.PathLike) -> None:
    """Write ``result``'s model weights and config under ``directory``."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(
        path / _CONFIG_FILE,
        json.dumps(
            _config_to_dict(result.model.config), indent=2, sort_keys=True
        ).encode(),
    )
    save_arrays(path / _WEIGHTS_FILE, result.model.state_dict())


def load_checkpoint(
    directory: str | os.PathLike,
    dataset: CrossDomainDataset,
    split: ColdStartSplit,
) -> TrainResult:
    """Rebuild the corpus artifacts and restore the saved parameters.

    ``dataset`` and ``split`` must be the ones the checkpoint was trained
    on (e.g. regenerated from the same seeds); the vocabulary and frozen
    embeddings are deterministic given those, so the restored model is
    exactly the saved one. Raises :class:`CheckpointError` (not a bare
    traceback) when the directory is not a checkpoint, when ``config.json``
    has drifted (unknown fields are reported by name), or when the weights
    archive is absent or unreadable.
    """
    path = Path(directory)
    if not path.is_dir():
        raise CheckpointError(f"{path}: checkpoint directory does not exist")
    raw = _read_json(path / _CONFIG_FILE, "model config")
    config = _config_from_dict(raw, where=str(path / _CONFIG_FILE))
    weights_path = path / _WEIGHTS_FILE
    if not weights_path.exists():
        raise CheckpointError(
            f"{path}: missing {_WEIGHTS_FILE} — config present but weights "
            "were never written (interrupted save?)"
        )

    trainer = OmniMatchTrainer(dataset, split, config)
    try:
        load_module(trainer.model, weights_path)
    except (zipfile.BadZipFile, ValueError, KeyError, OSError) as error:
        raise CheckpointCorruptionError(
            f"{weights_path}: cannot restore parameters ({error})"
        ) from error
    trainer.model.eval()
    return TrainResult(
        model=trainer.model,
        store=trainer.store,
        aux_generator=trainer.aux_generator,
        history=[],
    )


# ----------------------------------------------------------------------
# JSON-safe encoding of RNG state (ndarrays inside bit-generator dicts)
# ----------------------------------------------------------------------
def _jsonify(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {key: _unjsonify(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unjsonify(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Training checkpoints (full resumable state)
# ----------------------------------------------------------------------
@dataclass
class TrainingCheckpoint:
    """Full training state captured at an epoch boundary."""

    config: OmniMatchConfig
    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    rng_state: dict
    best_rmse: float = float("inf")
    stale: int = 0
    best_state: dict[str, np.ndarray] | None = None
    history: list[EpochStats] = field(default_factory=list)
    health: list[HealthEvent] = field(default_factory=list)


def checkpoint_directory_name(epoch: int) -> str:
    """Canonical directory name for the checkpoint written after ``epoch``."""
    return f"{_EPOCH_DIR_PREFIX}{epoch:04d}"


def write_training_checkpoint(
    checkpoint: TrainingCheckpoint, directory: str | os.PathLike
) -> Path:
    """Atomically persist a :class:`TrainingCheckpoint` under ``directory``.

    Each artifact is written atomically, and the digest-bearing manifest is
    written last — a crash at any point leaves either no manifest (the
    checkpoint is ignored by :func:`find_latest_checkpoint`) or a complete,
    verifiable checkpoint.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    optimizer = checkpoint.optimizer_state
    optimizer_arrays: dict[str, np.ndarray] = {}
    buffer_counts: dict[str, int] = {}
    for name, arrays in optimizer["buffers"].items():
        buffer_counts[name] = len(arrays)
        for index, array in enumerate(arrays):
            optimizer_arrays[f"{name}.{index}"] = array

    state_payload = {
        "epoch": int(checkpoint.epoch),
        "rng_state": _jsonify(checkpoint.rng_state),
        "best_rmse": (
            float(checkpoint.best_rmse)
            if np.isfinite(checkpoint.best_rmse)
            else None
        ),
        "stale": int(checkpoint.stale),
        "has_best_state": checkpoint.best_state is not None,
        "history": [dataclasses.asdict(stat) for stat in checkpoint.history],
        "health": [dataclasses.asdict(event) for event in checkpoint.health],
        "optimizer": {
            "kind": optimizer["kind"],
            "hyper": _jsonify(optimizer["hyper"]),
            "buffers": buffer_counts,
        },
    }

    blobs: dict[str, bytes] = {
        _CONFIG_FILE: json.dumps(
            _config_to_dict(checkpoint.config), indent=2, sort_keys=True
        ).encode(),
        _WEIGHTS_FILE: npz_bytes(checkpoint.model_state),
        _OPTIMIZER_FILE: npz_bytes(optimizer_arrays),
        _STATE_FILE: json.dumps(state_payload, indent=2, sort_keys=True).encode(),
    }
    if checkpoint.best_state is not None:
        blobs[_BEST_FILE] = npz_bytes(checkpoint.best_state)

    files: dict[str, dict] = {}
    for name, blob in blobs.items():
        atomic_write_bytes(path / name, blob)
        files[name] = {"sha256": sha256_bytes(blob), "bytes": len(blob)}
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "epoch": int(checkpoint.epoch),
        "files": files,
    }
    atomic_write_bytes(
        path / _MANIFEST_FILE,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )
    emit_event(
        "checkpoint_write",
        path=str(path),
        epoch=int(checkpoint.epoch),
        files=sorted(files),
        bytes=sum(meta["bytes"] for meta in files.values()),
    )
    return path


def _read_manifest(path: Path) -> dict:
    if not path.is_dir():
        raise CheckpointError(f"{path}: checkpoint directory does not exist")
    manifest_path = path / _MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(
            f"{path}: no {_MANIFEST_FILE} — not a training checkpoint, or an "
            "interrupted write (the manifest is always written last)"
        )
    manifest = _read_json(manifest_path, "checkpoint manifest")
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise CheckpointError(
            f"{path}: unrecognized checkpoint format "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return manifest


def verify_checkpoint(directory: str | os.PathLike) -> dict:
    """Verify integrity of a training checkpoint; return its manifest.

    Raises :class:`CheckpointError` when the directory is not a checkpoint
    (or uses an unsupported format version) and
    :class:`CheckpointCorruptionError` when any artifact is missing,
    truncated, or fails its SHA-256 digest — naming the offending file.
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise CheckpointCorruptionError(f"{path}: manifest has no file table")
    lost = sorted(set(_REQUIRED_FILES) - set(files))
    if lost:
        raise CheckpointCorruptionError(
            f"{path}: manifest entries missing for required artifact(s): "
            f"{', '.join(lost)} — manifest tampered or written by a broken tool"
        )
    for name, meta in sorted(files.items()):
        file_path = path / name
        if not file_path.exists():
            raise CheckpointCorruptionError(
                f"{path}: {name} is listed in the manifest but missing on disk"
            )
        size = file_path.stat().st_size
        expected_size = meta.get("bytes")
        if size != expected_size:
            raise CheckpointCorruptionError(
                f"{path}: {name} is {size} bytes but the manifest records "
                f"{expected_size} — truncated or partially overwritten"
            )
        digest = sha256_file(file_path)
        expected = meta.get("sha256", "")
        if digest != expected:
            raise CheckpointCorruptionError(
                f"{path}: {name} failed its SHA-256 check (expected "
                f"{expected[:12]}…, got {digest[:12]}…) — file corrupted"
            )
    return manifest


def read_training_checkpoint(directory: str | os.PathLike) -> TrainingCheckpoint:
    """Load and integrity-check a checkpoint written by
    :func:`write_training_checkpoint`."""
    path = Path(directory)
    manifest = verify_checkpoint(path)

    raw_config = _read_json(path / _CONFIG_FILE, "checkpoint config")
    config = _config_from_dict(raw_config, where=str(path / _CONFIG_FILE))
    state = _read_json(path / _STATE_FILE, "trainer state")
    model_state = _load_npz(path / _WEIGHTS_FILE)
    optimizer_arrays = _load_npz(path / _OPTIMIZER_FILE)

    try:
        optimizer_meta = state["optimizer"]
        buffers: dict[str, list[np.ndarray]] = {}
        for name, count in optimizer_meta["buffers"].items():
            try:
                buffers[name] = [
                    optimizer_arrays[f"{name}.{index}"] for index in range(count)
                ]
            except KeyError as error:
                raise CheckpointCorruptionError(
                    f"{path}: optimizer buffer {error} missing from "
                    f"{_OPTIMIZER_FILE}"
                ) from error
        optimizer_state = {
            "kind": optimizer_meta["kind"],
            "hyper": _unjsonify(optimizer_meta["hyper"]),
            "buffers": buffers,
        }
        best_state: dict[str, np.ndarray] | None = None
        if state["has_best_state"]:
            if _BEST_FILE not in manifest["files"]:
                raise CheckpointCorruptionError(
                    f"{path}: trainer state records a best model but "
                    f"{_BEST_FILE} is absent from the manifest"
                )
            best_state = _load_npz(path / _BEST_FILE)
        best_rmse = state["best_rmse"]
        emit_event("checkpoint_read", path=str(path), epoch=int(state["epoch"]))
        return TrainingCheckpoint(
            config=config,
            epoch=int(state["epoch"]),
            model_state=model_state,
            optimizer_state=optimizer_state,
            rng_state=_unjsonify(state["rng_state"]),
            best_rmse=float("inf") if best_rmse is None else float(best_rmse),
            stale=int(state["stale"]),
            best_state=best_state,
            history=[EpochStats(**stat) for stat in state["history"]],
            health=[HealthEvent(**event) for event in state["health"]],
        )
    except (KeyError, TypeError) as error:
        raise CheckpointCorruptionError(
            f"{path}: malformed trainer state ({error!r})"
        ) from error


def _epoch_checkpoints(run_directory: Path) -> list[tuple[int, Path]]:
    """(epoch, path) pairs for every ``epoch-*`` child, sorted ascending."""
    found: list[tuple[int, Path]] = []
    for child in run_directory.iterdir():
        if not child.is_dir() or not child.name.startswith(_EPOCH_DIR_PREFIX):
            continue
        try:
            epoch = int(child.name[len(_EPOCH_DIR_PREFIX):])
        except ValueError:
            continue
        found.append((epoch, child))
    return sorted(found)


def find_latest_checkpoint(run_directory: str | os.PathLike) -> Path | None:
    """Newest *complete* ``epoch-*`` checkpoint under ``run_directory``.

    Invalid candidates (e.g. a directory abandoned by a crash mid-write, or
    one that later got corrupted) are skipped, never loaded — the scan keeps
    walking backwards until a digest-clean checkpoint is found.
    """
    path = Path(run_directory)
    if not path.is_dir():
        return None
    for _, child in reversed(_epoch_checkpoints(path)):
        try:
            verify_checkpoint(child)
        except CheckpointError:
            continue
        return child
    return None


def prune_checkpoints(
    run_directory: str | os.PathLike, keep_last: int
) -> list[Path]:
    """Delete all but the ``keep_last`` newest ``epoch-*`` checkpoints.

    The ``best`` checkpoint (best-by-validation-RMSE) is never pruned.
    Returns the paths that were *actually* deleted: deletion failures
    (permissions, a file pinned open on some platforms) are verified by
    re-checking existence after the rmtree, reported with a warning, and
    recorded in the ``failed`` field of the ``checkpoint_prune`` event —
    telemetry never claims a deletion that did not happen.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be at least 1")
    path = Path(run_directory)
    if not path.is_dir():
        return []
    doomed = _epoch_checkpoints(path)[:-keep_last]
    removed: list[Path] = []
    failed: list[Path] = []
    for _, child in doomed:
        shutil.rmtree(child, ignore_errors=True)
        if child.exists():
            failed.append(child)
        else:
            removed.append(child)
    if failed:
        warnings.warn(
            f"{path}: could not prune {len(failed)} checkpoint(s): "
            + ", ".join(child.name for child in failed),
            RuntimeWarning,
            stacklevel=2,
        )
    if removed or failed:
        emit_event(
            "checkpoint_prune",
            removed=[str(child) for child in removed],
            failed=[str(child) for child in failed],
            keep_last=int(keep_last),
        )
    return removed
