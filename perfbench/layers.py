"""Per-layer tracing from outside the program.

The traced run (``--trace 1``) wraps calls into each layer's public
functions and records how long they took, without any change under
``src/``. Two kinds of wrap exist:

* class- or module-level wraps (:func:`install_process_wraps`), installed
  before the serving daemon forks, so the daemon process and its workers
  inherit them; each worker dumps what it recorded to a JSON file when its
  main loop returns (:func:`wrap_worker_main`);
* instance-level wraps of one model's submodules (:class:`ModelProbe`),
  which also read the ``matmul_flops`` delta from ``nn.tensor_stats()``.

Everything lands in the process-global :data:`RECORDER`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Per-name lists of samples plus per-name counters."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += float(amount)

    def total(self, name: str) -> float:
        return float(sum(self.samples.get(name, ())))

    def dump(self, path: Path) -> None:
        tmp = Path(f"{path}.tmp")
        tmp.write_text(
            json.dumps({"samples": self.samples, "counts": self.counts})
        )
        os.replace(tmp, path)

    def absorb(self, path: Path) -> None:
        data = json.loads(Path(path).read_text())
        for name, values in data["samples"].items():
            self.samples[name].extend(values)
        for name, value in data["counts"].items():
            self.counts[name] += value

    def clear(self) -> None:
        self.samples.clear()
        self.counts.clear()


RECORDER = Recorder()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner, name: str, value) -> None:
        had_own = name in vars(owner) if hasattr(owner, "__dict__") else False
        self._undo.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, value)

    def time(self, owner, name: str, label: str) -> None:
        """Record each call's wall time (seconds) under ``label``."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                RECORDER.add(label, time.perf_counter() - start)

        self.set(owner, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own or isinstance(owner, type) or not hasattr(owner, "__dict__"):
                setattr(owner, name, original)
            else:  # an instance attribute shadowing a class method
                delattr(owner, name)


def install_process_wraps(patches: Patches) -> None:
    """Wrap the data/text/core/serve/nn entry points for this process and
    every process forked from it afterwards."""
    from repro import nn
    from repro.core import auxiliary, trainer
    from repro.serve import daemon, engine, item_index, user_cache

    patches.time(trainer, "train_ppmi_svd_embeddings", "text.embeddings")
    patches.time(auxiliary.AuxiliaryReviewGenerator, "generate", "core.aux_docs")
    patches.time(item_index.ItemIndex, "build", "serve.item_index.build")
    patches.time(engine.InferenceEngine, "recommend", "serve.engine.recommend")
    patches.time(daemon, "shard_topk", "serve.shard_merge.shard_topk")
    patches.time(daemon, "merge_topk", "serve.shard_merge.merge")
    for optimizer in (nn.Adadelta, nn.Adam):
        patches.time(optimizer, "step", "nn.optim_step")

    encode = engine.InferenceEngine._encode_users

    def encode_users(self, user_ids):
        start = time.perf_counter()
        try:
            return encode(self, user_ids)
        finally:
            RECORDER.add("serve.user_cache.encode", time.perf_counter() - start)
            RECORDER.inc("serve.user_cache.encoded_users", len(user_ids))

    patches.set(engine.InferenceEngine, "_encode_users", encode_users)

    get_many = user_cache.UserReprCache.get_many

    def cached_get_many(self, user_ids):
        hits, misses = self.hits, self.misses
        try:
            return get_many(self, user_ids)
        finally:
            RECORDER.inc("serve.user_cache.hits", self.hits - hits)
            RECORDER.inc("serve.user_cache.misses", self.misses - misses)

    patches.set(user_cache.UserReprCache, "get_many", cached_get_many)

    probe = engine.InferenceEngine._probe

    def timed_probe(self, index, invariant, user_repr, nprobe):
        start = time.perf_counter()
        slots = probe(self, index, invariant, user_repr, nprobe)
        RECORDER.add("serve.ann.probe", time.perf_counter() - start)
        RECORDER.inc("serve.ann.candidates", len(slots))
        RECORDER.inc("serve.ann.catalog", len(self.items))
        return slots

    patches.set(engine.InferenceEngine, "_probe", timed_probe)


def wrap_worker_main(patches: Patches, dump_dir: Path) -> None:
    """Make each daemon worker dump its recorder when its loop returns."""
    from repro.serve import daemon

    worker_main = daemon._daemon_worker_main

    def traced_worker_main(slot, generation, *args):
        RECORDER.clear()  # drop what the forking parent had recorded
        worker_main(slot, generation, *args)
        RECORDER.dump(Path(dump_dir) / f"worker-{slot}-{generation}.json")

    patches.set(daemon, "_daemon_worker_main", traced_worker_main)


#: Model submodules timed per training batch: label -> (path, method).
SUBMODULES = {
    "model.user_extractor.source": ("user_extractor", "extract_source"),
    "model.user_extractor.target": ("user_extractor", "extract_target"),
    "model.item_extractor": ("item_extractor", "forward"),
    "model.rating_classifier": ("rating_classifier", "forward"),
    "model.contrastive": ("contrastive", "forward"),
    "model.adversary": ("adversary", "forward"),
}


class ModelProbe:
    """Instance wraps on one ``OmniMatchModel``: per-call wall time and
    ``matmul_flops`` delta per submodule, plus the whole ``compute_losses``
    call; what the submodules leave of it is the unattributed remainder."""

    def __init__(self, model) -> None:
        from repro import nn

        self._nn = nn
        self.patches = Patches()
        self.flops: dict[str, float] = defaultdict(float)
        for label, (path, method) in SUBMODULES.items():
            owner = getattr(model, path)
            self.patches.set(owner, method, self._wrap(label, getattr(owner, method)))
        self.patches.set(
            model, "compute_losses",
            self._wrap("model.compute_losses", model.compute_losses),
        )

    def _wrap(self, label: str, fn):
        nn = self._nn
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = nn.tensor_stats()["matmul_flops"]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                RECORDER.add(label, time.perf_counter() - start)
                probe.flops[label] += nn.tensor_stats()["matmul_flops"] - before

        return wrapper

    def remove(self) -> None:
        self.patches.restore()
