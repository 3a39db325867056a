"""Tests for the shared-memory pack layer (publish / attach / lifecycle)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (
    ShmPack,
    attach,
    live_segments,
    pack_strings,
    unpack_strings,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestPackRoundtrip:
    def test_arrays_roundtrip_bitwise(self):
        arrays = {
            "ints": np.arange(101, dtype=np.int32).reshape(-1),
            "matrix": np.random.default_rng(0).normal(size=(7, 13)),
            "flags": np.array([True, False, True]),
        }
        pack = ShmPack.publish(arrays, prefix="repro-test")
        try:
            attached = attach(pack.ref)
            for name, array in arrays.items():
                np.testing.assert_array_equal(attached[name], array)
                assert attached[name].dtype == array.dtype
            attached.close()
        finally:
            pack.unlink()

    def test_views_are_read_only(self):
        pack = ShmPack.publish({"x": np.zeros(4)}, prefix="repro-test")
        try:
            attached = attach(pack.ref)
            with pytest.raises(ValueError):
                attached["x"][0] = 1.0
            attached.close()
        finally:
            pack.unlink()

    def test_ref_is_picklable_and_sized(self):
        import pickle

        arrays = {"a": np.zeros((3, 5), dtype=np.float64), "b": np.zeros(2, np.int64)}
        pack = ShmPack.publish(arrays, prefix="repro-test")
        try:
            ref = pickle.loads(pickle.dumps(pack.ref))
            assert ref.name == pack.ref.name
            assert ref.nbytes() == 3 * 5 * 8 + 2 * 8
        finally:
            pack.unlink()

    def test_empty_strings_column(self):
        buffer, offsets = pack_strings(["", "ab", ""])
        assert unpack_strings(buffer, offsets) == ["", "ab", ""]

    def test_strings_roundtrip_unicode(self):
        values = ["plain", "accénted", "汉字", ""]
        buffer, offsets = pack_strings(values)
        assert unpack_strings(buffer, offsets) == values


class TestLifecycle:
    def test_unlink_is_idempotent_and_updates_registry(self):
        pack = ShmPack.publish({"x": np.zeros(8)}, prefix="repro-test")
        assert pack.ref.name in live_segments()
        pack.unlink()
        assert pack.ref.name not in live_segments()
        pack.unlink()  # second call must not raise

    def test_attach_after_unlink_fails(self):
        pack = ShmPack.publish({"x": np.zeros(8)}, prefix="repro-test")
        ref = pack.ref
        pack.unlink()
        with pytest.raises(FileNotFoundError):
            attach(ref)

    def test_atexit_reclaims_segments_on_abnormal_exit(self):
        """A process that dies with an uncaught exception leaks nothing."""
        script = (
            "import numpy as np\n"
            "from repro.parallel import ShmPack\n"
            "pack = ShmPack.publish({'x': np.zeros(64)}, prefix='repro-leak')\n"
            "print(pack.ref.name, flush=True)\n"
            "raise RuntimeError('abnormal exit without unlink')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode != 0
        name = proc.stdout.strip()
        assert name.startswith("repro-leak")
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_forked_child_never_sweeps_its_parents_segments(self):
        """A forked child inherits the registry; its exit sweep (run here
        directly) must leave the parent's segment alone."""
        import repro.parallel.shm as shm

        pack = ShmPack.publish({"x": np.arange(4.0)}, prefix="repro-test")
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                try:
                    shm._cleanup_at_exit()
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            attached = attach(pack.ref)
            assert attached["x"].tolist() == [0.0, 1.0, 2.0, 3.0]
            attached.close()
            assert pack.ref.name in live_segments()
        finally:
            pack.unlink()
