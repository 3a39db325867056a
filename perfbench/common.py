"""Shared pieces of the benchmark: result record, percentiles, memory, fingerprint.

Every workload module exposes ``run(args) -> Outcome``. ``run.py`` turns the
outcome into the one JSON line the benchmark prints last.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for telemetry shards and per-process trace dumps; always
#: inside the checkout, removed at the end of every run.
SCRATCH = ROOT / ".perfbench_tmp"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds between memory samples; costs the load generator nothing measurable.
RSS_PERIOD_S = 0.2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # end-to-end name -> value
    layers: dict = field(default_factory=dict)  # per-layer name -> value
    attempted: int = 0
    failed: int = 0
    #: (name, passed, detail) for every correctness check made.
    checks: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: object = "") -> bool:
        self.checks.append((name, bool(passed), str(detail)))
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (numpy's default rule)."""
    import numpy as np

    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


# ----------------------------------------------------------------------
# Memory: peak resident set of this process plus its descendants
# ----------------------------------------------------------------------
def _read_status_kib(pid: int, key: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _descendants(root: int) -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 2:
            parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


class TreePeakRss:
    """Peak over samples of the summed peak RSS (``VmHWM``) of this process
    and every descendant alive at the sample.

    Each process's own high-water mark is kept by the kernel, so a sample
    only has to see which processes exist; processes that ran one after
    another are not added together.
    """

    def __init__(self) -> None:
        self._peak_kib = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        alive = [
            _read_status_kib(pid, "VmHWM:")
            for pid in [os.getpid(), *_descendants(os.getpid())]
        ]
        self._peak_kib = max(self._peak_kib, sum(kib for kib in alive if kib))

    def _loop(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self.sample()

    def start(self) -> "TreePeakRss":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the summed peak in MiB."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.sample()
        return self._peak_kib / 1024.0


def stop_descendants(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing`` starts helpers of its own: shared memory starts a
    resource tracker, which otherwise outlives this process by a moment
    (it exits only once it reads end-of-file on its pipe), and the
    ``forkserver`` method starts a server. Both are stopped through their
    owners, which wait for them. Any other process still running below this
    one gets SIGTERM, then SIGKILL once ``timeout_s`` has passed.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout_s)
    for owner in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(owner, "_stop", None)
        if stop is not None:
            stop()
    deadline = time.monotonic() + timeout_s
    while True:
        pids = _descendants(os.getpid())
        if not pids or time.monotonic() > deadline + timeout_s:
            return
        signum = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, os.WNOHANG)  # reaps a child of this process
            except ChildProcessError:
                pass  # a grandchild: its own parent reaps it
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    """OpenBLAS's live thread count, when the loaded BLAS is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (the checkout is not a git
    repository when the benchmark runs, so this stands in for a commit)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref:"):
            return (ROOT / ".git" / ref.split()[1]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return None


def fingerprint(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: no dict mode
        blas_name = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_digest": source_digest(),
        "seed": seed,
    }


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, in declaration order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final stdout line: end-to-end metrics untraced, per-layer traced.

    A per-layer metric of a layer the workload never runs reads 0.
    """
    if trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }
    else:
        metrics = {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in metric_units("end_to_end").items()
        }
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": int(max(outcome.attempted, 1)),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
