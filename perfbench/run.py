#!/usr/bin/env python3
"""The repository benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps each layer's entry points and prints the
per-layer metrics instead. The last stdout line is the result object;
the line before it (``perfbench-detail``) holds the machine fingerprint,
every check made, and the raw figures behind the metrics.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import sys
import traceback

from common import (
    BLAS_THREAD_VARS, SCRATCH, SRC, fingerprint, log, result_line, stop_descendants,
)

WORKLOADS = ("train", "serve_exact_hot", "serve_ivf_churn", "table_parallel")

#: Workloads that run several numpy processes at once (the two table
#: workers; the daemon, its two workers and the load generator). Unless the
#: caller sets them, their BLAS thread variables are pinned to 1 before numpy
#: loads: with the default pool (one thread per core) each process runs its
#: own BLAS pool on the same cores, and the quartile spread over 5 seeds on a
#: 2-core box was 18-34% of the median for serving and 127% for the table.
#: ``train`` is one process and runs with BLAS threading as users get it.
#: The fingerprint records what was in force.
PINNED_BLAS = ("serve_exact_hot", "serve_ivf_churn", "table_parallel")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    """SIGTERM ends the benchmark process through ``sys.exit``, so the
    ``atexit`` sweep still runs; processes forked from it die as before."""
    if os.getpid() != MAIN_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    sys.exit(128 + signum)


MAIN_PID = os.getpid()


def main(argv=None) -> int:
    # Registered before the program is imported, so it runs after every
    # exit handler the program registers (shared-memory cleanup among them).
    atexit.register(stop_descendants)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source under {SRC}; run from the root of a checkout")
        return 2
    if args.workload in PINNED_BLAS:
        for name in BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    if args.workload == "train":
        import wl_train as workload
    elif args.workload == "table_parallel":
        import wl_table as workload
    else:
        import wl_serve as workload

    SCRATCH.mkdir(exist_ok=True)
    try:
        outcome = workload.run(args)
    except Exception:  # noqa: BLE001 - any crash is a failed run, no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    outcome.check("run.attempted_some", outcome.attempted >= 1, outcome.attempted)
    for name, passed, detail in outcome.checks:
        log(f"check {name}: {'ok' if passed else 'FAILED'} {detail}")
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "fingerprint": fingerprint(args.seed),
        "checks": outcome.checks,
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        **outcome.detail,
    }
    print("perfbench-detail " + json.dumps(detail, default=str))
    print(result_line(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
