"""``train``: OmniMatch training on the default world, then cold-user scoring.

The model layers in ``repro.nn`` and ``repro.core`` (conv bank, heads, SCL,
GRL, optimizer) do almost all the work; no serving code runs except the
engine behind ``ColdStartPredictor``.

Set-up (median of ``SETUPS``): a fresh process from its first statement
through imports, world generation, split and trainer construction
(``cold_setup.py``). Timed phase: ``SETUPS`` fixed-epoch fits, each on a
trainer set up again in this process. Every fit of one seed must give the
bit-identical cold-user RMSE.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np

from common import HERE, Outcome, TreePeakRss, median, percentile
from layers import RECORDER, Patches, install_process_wraps
from pipeline import FitLog, cold_rmse, make_trainer, make_world, setup_layers

SETUPS = 3
#: Seconds one epoch takes on the reference box (2 cores), used only to turn
#: ``--seconds`` into a fixed epoch count: the work is identical on every
#: commit, whatever its speed.
EPOCH_BUDGET_S = 0.8


def run(args) -> Outcome:
    from repro import nn

    out = Outcome()
    patches = Patches()
    setup_seconds = cold_setups(args.seed)
    if args.trace:
        install_process_wraps(patches)
        nn.set_tensor_stats(True)
    rss = TreePeakRss().start()
    epochs = max(1, round(args.seconds / (SETUPS * EPOCH_BUDGET_S)))

    trainers = []
    for _ in range(SETUPS):
        world = make_world()
        trainers.append((make_trainer(world, args.seed, epochs), world))
    set_up = setup_layers(SETUPS)

    log = FitLog(args.trace)
    for trainer, _ in trainers:
        log.fit(trainer)

    rmses = []
    for (trainer, world), result in zip(trainers, log.results):
        rmse, bad = cold_rmse(result, trainer.split, world)
        rmses.append(rmse)
        out.failed += bad
        out.attempted += len(trainer.split.eval_interactions(world, "valid"))
        out.attempted += len(trainer.split.eval_interactions(world, "test"))
    peak = rss.stop()
    patches.restore()

    rollbacks = sum(
        1 for result in log.results for event in result.health
        if event.kind == "rollback"
    )
    out.attempted += log.batches
    out.failed += rollbacks
    out.check("train.finite_rmse", all(math.isfinite(r) for r in rmses), rmses)
    out.check(
        "train.deterministic_rmse", len(set(rmses)) == 1,
        f"{SETUPS} fits of seed {args.seed}: {rmses}",
    )
    out.check("train.no_rollbacks", rollbacks == 0, f"rollbacks={rollbacks}")

    # On a shared 2-core box one epoch's rate moved by up to 40% within a
    # run as other load came and went, so every figure keeps the fastest
    # repeat (timeit-style): per batch position, the fastest of the timed
    # epochs (each has the same full batches in the same order). A stall of
    # the box then does not reach the figures, while a step that is slow
    # every time does. The last, partial batch of an epoch has no next
    # batch start and is not timed.
    steps = np.asarray(log.intervals).reshape(log.epochs, -1).min(axis=0)
    throughput = trainers[0][0].config.batch_size * len(steps) / steps.sum()
    p50 = percentile(steps, 50) * 1e3
    out.metrics = {
        "setup_s": median(setup_seconds),
        "throughput": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(steps, 90) * 1e3,
        "peak_rss_mb": peak,
        "cold_rmse": rmses[0],
    }
    out.detail = {
        "epochs_per_fit": epochs,
        "fits": SETUPS,
        "steps_timed": len(steps),
        "setup_seconds": setup_seconds,
        "fit_seconds": log.seconds,
    }
    if args.trace:
        log.forward_check(out)
        out.layers.update(set_up)
        out.layers.update(log.layers())
        out.layers.update(serving_layers_from_recorder())
        out.layers["trace.throughput"] = throughput
        out.layers["trace.latency_p50_ms"] = p50
    return out


def cold_setups(seed: int) -> list[float]:
    """Seconds of ``SETUPS`` set-ups, each in a fresh process."""
    command = [sys.executable, str(HERE / "cold_setup.py"), str(seed)]
    return [
        float(
            subprocess.run(
                command, check=True, capture_output=True, text=True, timeout=120
            ).stdout.split()[-1]
        )
        for _ in range(SETUPS)
    ]


def serving_layers_from_recorder() -> dict:
    """User-cache and index figures of the engine behind ColdStartPredictor."""
    hits = RECORDER.counts.get("serve.user_cache.hits", 0.0)
    misses = RECORDER.counts.get("serve.user_cache.misses", 0.0)
    encoded = RECORDER.counts.get("serve.user_cache.encoded_users", 0.0)
    return {
        "serve.item_index.build_s": RECORDER.total("serve.item_index.build"),
        "serve.user_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.user_cache.encode_ms": (
            RECORDER.total("serve.user_cache.encode") / encoded * 1e3 if encoded else 0.0
        ),
    }
