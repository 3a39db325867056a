"""Steps every workload shares: world, split, trainer, traced fit, cold RMSE."""

from __future__ import annotations

import time

import numpy as np

from layers import RECORDER, ModelProbe, SUBMODULES

#: The default amazon books -> movies world (the profile's own generator
#: seed) and one fixed cold-start split of it; ``--seed`` picks the model
#: initialisation, batch order, grown catalog and traffic. A per-seed split
#: moved the cold RMSE of 33 test users by 14% (quartile spread) between
#: seeds, which would drown any numerics change the metric is there to catch.
WORLD = ("amazon", "books", "movies")
SPLIT_SEED = 0

TRAINER_PHASES = ("batch_assembly", "forward", "backward", "optimizer")
TENSOR_KEYS = ("graph_bytes", "backward_bytes", "arena_hits", "arena_misses", "fused_ops")
#: Largest relative gap allowed between the benchmark's and the trainer's
#: timing of the same ``compute_losses`` calls.
FORWARD_TOLERANCE = 0.05
#: Largest share of ``compute_losses`` the wrapped submodules may leave
#: unattributed; about 3% is measured (loss arithmetic and glue).
UNATTRIBUTED_LIMIT = 0.10


def make_world(**overrides):
    from repro.data import generate_scenario

    start = time.perf_counter()
    world = generate_scenario(*WORLD, **overrides)
    RECORDER.add("data.generate", time.perf_counter() - start)
    return world


def make_trainer(world, seed: int, epochs: int):
    """Split + trainer construction (store, embeddings, auxiliary docs)."""
    from repro.core import OmniMatchConfig, OmniMatchTrainer
    from repro.data import cold_start_split

    split = cold_start_split(world, seed=SPLIT_SEED)
    config = OmniMatchConfig(seed=seed, epochs=epochs, early_stopping=False)
    return OmniMatchTrainer(world, split, config)


class FitLog:
    """Per-batch step stamps and (traced) per-layer totals over several fits."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.intervals: list[float] = []
        self.epoch_rates: list[float] = []
        self.samples = 0
        self.seconds = 0.0
        self.epochs = 0
        self.batches = 0
        self.results = []
        self.phase_totals = dict.fromkeys(TRAINER_PHASES, 0.0)
        self.flops: dict[str, float] = {}
        self.tensor = dict.fromkeys(TENSOR_KEYS, 0)

    def fit(self, trainer):
        """Fit ``trainer`` once, timing every batch step."""
        from repro import nn

        model = trainer.model
        stamps: list[float] = []
        compute_losses = model.compute_losses

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return compute_losses(*args, **kwargs)

        model.compute_losses = stamped
        probe = ModelProbe(model) if self.trace else None
        before = nn.tensor_stats()
        start = time.perf_counter()
        try:
            result = trainer.fit()
        finally:
            self.seconds += time.perf_counter() - start
            if probe is not None:
                probe.remove()
            del model.compute_losses
        after = nn.tensor_stats()
        interactions = len(trainer.split.train_interactions(trainer.dataset))
        epochs = len(result.history)
        per_epoch = -(-interactions // trainer.config.batch_size)
        # Step latency: gap between consecutive batch starts within an epoch.
        self.intervals.extend(
            b - a
            for i, (a, b) in enumerate(zip(stamps, stamps[1:]))
            if (i + 1) % per_epoch
        )
        self.epoch_rates.extend(interactions / stat.seconds for stat in result.history)
        self.samples += interactions * epochs
        self.epochs += epochs
        self.batches += len(stamps)
        self.results.append(result)
        totals = trainer.tracer.totals()
        for phase in TRAINER_PHASES:
            self.phase_totals[phase] += totals.get(phase, 0.0)
        if probe is not None:
            for label, value in probe.flops.items():
                self.flops[label] = self.flops.get(label, 0.0) + value
        for key in TENSOR_KEYS:
            self.tensor[key] += after[key] - before[key]
        return result

    def layers(self) -> dict:
        """Trainer-phase, model-submodule and nn per-layer metrics."""
        out = {}
        epochs = max(self.epochs, 1)
        steps = max(self.batches, 1)
        for phase in TRAINER_PHASES:
            out[f"trainer.{phase}_s"] = self.phase_totals[phase] / epochs
        attributed = 0.0
        for label in SUBMODULES:
            seconds = RECORDER.total(label)
            attributed += seconds
            out[f"{label}_ms"] = seconds / steps * 1e3
            out[f"{label}.mflops"] = self.flops.get(label, 0.0) / steps / 1e6
        losses = RECORDER.total("model.compute_losses")
        out["model.unattributed_ms"] = (losses - attributed) / steps * 1e3
        # Submodules + unattributed == the whole compute_losses call, timed
        # by the benchmark; the trainer's forward phase timed it separately.
        forward = self.phase_totals["forward"]
        out["model.forward_check_rel_err"] = (
            abs(losses - forward) / forward if forward else 0.0
        )
        optim = RECORDER.samples.get("nn.optim_step", [])
        out["nn.optim_step_ms"] = float(np.mean(optim)) * 1e3 if optim else 0.0
        out["nn.graph_mb_per_step"] = self.tensor["graph_bytes"] / steps / 2**20
        out["nn.backward_mb_per_step"] = self.tensor["backward_bytes"] / steps / 2**20
        lookups = self.tensor["arena_hits"] + self.tensor["arena_misses"]
        out["nn.arena_hit_rate"] = self.tensor["arena_hits"] / lookups if lookups else 0.0
        out["nn.fused_ops"] = self.tensor["fused_ops"] / steps
        return out

    def forward_check(self, outcome) -> None:
        """Two checks on the submodule attribution.

        The benchmark's timing of ``compute_losses`` must match the
        trainer's ``forward`` phase within ``FORWARD_TOLERANCE``; that phase
        wraps the same call, so this only catches a broken wrap. The
        unattributed remainder must be non-negative and at most
        ``UNATTRIBUTED_LIMIT`` of ``compute_losses``, so a hot path outside
        the wrapped submodules fails the run.
        """
        layers = self.layers()
        rel_err = layers["model.forward_check_rel_err"]
        outcome.check(
            "train.forward_timing",
            rel_err <= FORWARD_TOLERANCE,
            f"rel_err={rel_err:.4f} tolerance={FORWARD_TOLERANCE}",
        )
        unattributed = layers["model.unattributed_ms"]
        whole = unattributed + sum(layers[f"{label}_ms"] for label in SUBMODULES)
        share = unattributed / whole if whole else 0.0
        outcome.check(
            "train.forward_attribution",
            0.0 <= share <= UNATTRIBUTED_LIMIT,
            f"unattributed {unattributed:.3f} ms of {whole:.3f} ms per batch "
            f"({share:.1%}, limit {UNATTRIBUTED_LIMIT:.0%})",
        )


def cold_rmse(result, split, world) -> tuple[float, int]:
    """Rating RMSE over every cold user's held-out interactions (validation
    and test users: early stopping is off, so neither steered training),
    scored through ``ColdStartPredictor``; returns ``(rmse, non-finite
    count)``."""
    from repro.core import ColdStartPredictor

    test = split.eval_interactions(world, "valid") + split.eval_interactions(world, "test")
    predicted = np.asarray(ColdStartPredictor(result).predict_interactions(test))
    actual = np.array([r.rating for r in test])
    bad = int((~np.isfinite(predicted)).sum())
    return float(np.sqrt(np.mean((predicted - actual) ** 2))), bad


def setup_layers(setups: int) -> dict:
    """Set-up per-layer metrics, averaged per set-up."""
    return {
        "data.generate_s": RECORDER.total("data.generate") / setups,
        "text.embeddings_s": RECORDER.total("text.embeddings") / setups,
        "core.aux_docs_s": RECORDER.total("core.aux_docs") / setups,
    }
