"""Training-throughput benchmark: OmniMatch training samples per second.

The ``fast`` variant trains the default model on the amazon-profile world:
float32, vectorized document-matrix gathers, the fused
softmax-cross-entropy / linear+relu / conv-bank kernels with cached im2col
workspaces, on the plain autograd tape — the one training path the trainer
has.

A *coverage arm* times models that route through generic tensor ops
rather than the hand-written kernels — the BERT-ablation transformer
extractor and the DeepCoNN baseline — and records their allocation
counters.

The variant also runs a short *untimed* fit with ``REPRO_TENSOR_STATS``
counting enabled to record its allocation profile (fresh graph/backward
bytes and the per-step peak); the deltas land in
``BENCH_throughput.json`` without taxing the timed runs. The timed runs
train with telemetry enabled (a sink streaming to a temp directory), so
the rate prices in the observability overhead a real instrumented run
pays. At full scale the fast variant must stay above
:data:`FAST_FLOOR_SAMPLES_PER_SEC`; at ``REPRO_BENCH_FAST=1`` scale the run
is a smoke test and only the report plumbing is asserted.
"""

from __future__ import annotations

import tempfile
import time

from repro import nn
from repro.baselines import DeepCoNN
from repro.core import OmniMatchTrainer
from repro.data import cold_start_split, generate_scenario
from repro.obs import TelemetrySink
from repro.perf import throughput, write_report

from conftest import FAST, SHAPE_ASSERTS, WORLDS, bench_config, run_once

EPOCHS = 2 if FAST else 5
#: Timed runs per variant; the fastest is reported (timeit-style min, which
#: strips scheduler / frequency-scaling noise from the single-run ratio).
RUNS = 1 if FAST else 2
PHASES = ("batch_assembly", "forward", "backward", "optimizer")

VARIANTS = {
    "fast": dict(dtype="float32"),
}

#: Full-scale floor for the fast variant: under half the lowest of five
#: full-scale runs (1867–2363 samples/s on a shared 2-core x86 box), so
#: machine noise cannot trip it, while a fall back to the speed of the
#: retired float64 per-sample path (639–800 samples/s in the same runs)
#: still does.
FAST_FLOOR_SAMPLES_PER_SEC = 900.0


#: Allocation counters copied into each variant's ``alloc`` entry.
ALLOC_KEYS = ("graph_bytes", "backward_bytes", "peak_bytes",
              "arena_hits", "arena_misses", "fused_ops")


def _alloc_snapshot() -> dict:
    stats = nn.tensor_stats()
    return {key: stats[key] for key in ALLOC_KEYS}


def _alloc_profile(dataset, split, flags) -> dict:
    """Allocation counters from a short *untimed* instrumented fit.

    Kept separate from the timed runs so the per-node stats counting does
    not tax the throughput it reports next to.
    """
    config = bench_config(epochs=min(2, EPOCHS), early_stopping=False, **flags)
    trainer = OmniMatchTrainer(dataset, split, config)
    was_stats = nn.set_tensor_stats(True)
    nn.reset_tensor_stats()
    try:
        trainer.fit()
        return _alloc_snapshot()
    finally:
        nn.set_tensor_stats(was_stats)
        nn.reset_tensor_stats()


def _train_variant(dataset, split, flags) -> dict:
    alloc = _alloc_profile(dataset, split, flags)
    best = None
    for run_index in range(RUNS):
        config = bench_config(epochs=EPOCHS, early_stopping=False, **flags)
        with tempfile.TemporaryDirectory() as sink_dir:
            sink = TelemetrySink(sink_dir, run_id=f"bench-{run_index}")
            trainer = OmniMatchTrainer(dataset, split, config, telemetry=sink)
            samples = len(split.train_interactions(dataset)) * EPOCHS
            start = time.perf_counter()
            result = trainer.fit()
            seconds = time.perf_counter() - start
            sink.close()
        if best is not None and seconds >= best["seconds"]:
            continue
        phase_totals = trainer.tracer.totals()
        best = {
            "samples": samples,
            "seconds": seconds,
            "samples_per_sec": throughput(samples, seconds),
            "epoch_seconds": [stat.seconds for stat in result.history],
            "phases": {
                name: phase_totals[name] for name in PHASES if name in phase_totals
            },
            "trace": trainer.tracer.summary(),
            "alloc": alloc,
        }
    return best


def _train_coverage_arm(dataset, split) -> dict:
    """Timings of models the hand-written kernels do not cover.

    The transformer (BERT-ablation) extractor and the DeepCoNN baseline
    route through generic tensor ops, so their speed and allocation profile
    measure the plain tape itself.
    """
    arm = {}

    config = bench_config(
        epochs=EPOCHS, early_stopping=False, dtype="float32",
        extractor="transformer",
    )
    trainer = OmniMatchTrainer(dataset, split, config)
    samples = len(split.train_interactions(dataset)) * EPOCHS
    was_stats = nn.set_tensor_stats(True)
    nn.reset_tensor_stats()
    start = time.perf_counter()
    trainer.fit()
    seconds = time.perf_counter() - start
    arm["transformer_extractor"] = {
        "samples": samples,
        "seconds": seconds,
        "samples_per_sec": throughput(samples, seconds),
        "alloc": _alloc_snapshot(),
    }

    nn.reset_tensor_stats()
    baseline = DeepCoNN(
        embed_dim=16 if FAST else 32, num_filters=8 if FAST else 16,
        doc_len=24 if FAST else 48, epochs=1 if FAST else 2,
    )
    samples = len(split.train_interactions(dataset))
    start = time.perf_counter()
    baseline.fit(dataset, split)
    seconds = time.perf_counter() - start
    arm["deepconn"] = {
        "samples": samples,
        "seconds": seconds,
        "samples_per_sec": throughput(samples, seconds),
        "alloc": _alloc_snapshot(),
    }
    nn.set_tensor_stats(was_stats)
    nn.reset_tensor_stats()
    return arm


def _run_suite() -> dict:
    dataset = generate_scenario("amazon", "books", "movies", **WORLDS["amazon"])
    split = cold_start_split(dataset, seed=0)
    report = {
        "world": "amazon books->movies" + (" (FAST)" if FAST else ""),
        "epochs": EPOCHS,
        "runs_per_variant": RUNS,
        "variants": {},
    }
    for name, flags in VARIANTS.items():
        report["variants"][name] = _train_variant(dataset, split, flags)
    report["coverage"] = _train_coverage_arm(dataset, split)
    return report


def test_throughput(benchmark):
    report = run_once(benchmark, _run_suite)
    write_report("BENCH_throughput.json", report)

    print(f"\n=== Training throughput ({report['world']}, {EPOCHS} epochs) ===")
    header = "variant".ljust(10) + "samples/s".rjust(12) + "seconds".rjust(10)
    header += "".join(phase.rjust(16) for phase in PHASES)
    print(header)
    for name, stats in report["variants"].items():
        row = name.ljust(10)
        row += f"{stats['samples_per_sec']:>12.1f}{stats['seconds']:>10.2f}"
        for phase in PHASES:
            row += f"{stats['phases'].get(phase, 0.0):>16.3f}"
        print(row)
    for name, stats in report["variants"].items():
        alloc = stats["alloc"]
        print(
            f"alloc[{name}]: fwd={alloc['graph_bytes']}B "
            f"bwd={alloc['backward_bytes']}B peak={alloc['peak_bytes']}B/step"
        )
    for name, stats in report["coverage"].items():
        print(f"coverage[{name}]: {stats['samples_per_sec']:.1f} samples/s")

    for stats in report["variants"].values():
        assert stats["samples_per_sec"] > 0
        assert set(stats["phases"]) == set(PHASES)
        assert set(ALLOC_KEYS) <= set(stats["alloc"])  # counters recorded
        # The flat per-phase totals and the span tree come from one tracer,
        # so they must agree (the tree nests the phases under epoch/).
        trace_totals = {
            path.rsplit("/", 1)[-1]: entry["inclusive_seconds"]
            for path, entry in stats["trace"].items()
        }
        for phase in PHASES:
            assert abs(trace_totals[phase] - stats["phases"][phase]) <= (
                0.01 * max(trace_totals[phase], stats["phases"][phase])
            )
    if SHAPE_ASSERTS:
        rate = report["variants"]["fast"]["samples_per_sec"]
        assert rate >= FAST_FLOOR_SAMPLES_PER_SEC, (
            f"fast path trains {rate:.0f} samples/s, below the "
            f"{FAST_FLOOR_SAMPLES_PER_SEC:.0f} samples/s floor"
        )
