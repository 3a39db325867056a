"""Unit tests for throughput arithmetic and benchmark report writing."""

import json
import os

import numpy as np
import pytest

from repro.faults import SimulatedCrash
from repro.perf import throughput, write_report


class TestReporting:
    def test_throughput(self):
        assert throughput(100, 2.0) == pytest.approx(50.0)
        assert throughput(100, 0.0) == 0.0

    def test_throughput_negative_elapsed(self):
        """Clock skew (negative elapsed) reports 0, not a negative rate."""
        assert throughput(100, -1.0) == 0.0
        assert throughput(0, 0.0) == 0.0
        assert throughput(0, 5.0) == 0.0

    def test_write_report(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report(path, {"samples_per_sec": np.float64(12.5).item()})
        assert json.loads(path.read_text())["samples_per_sec"] == 12.5

    def test_write_report_crash_preserves_old_report(self, tmp_path, monkeypatch):
        """A crash mid-write must never truncate the previous report.

        The old implementation opened ``path`` with ``"w"`` (truncating it
        immediately); a crash before the dump finished lost the previous
        benchmark trajectory. The atomic path writes a temp file and only
        renames on success — simulate the crash at the rename and check the
        original survives byte-for-byte.
        """
        path = tmp_path / "BENCH_throughput.json"
        write_report(path, {"run": 1})
        original = path.read_bytes()

        real_replace = os.replace

        def crashing_replace(src, dst, *args, **kwargs):
            if str(dst) == str(path):
                raise SimulatedCrash("killed mid-rename")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(SimulatedCrash):
            write_report(path, {"run": 2})
        assert path.read_bytes() == original

    def test_write_report_unserializable_payload_preserves_old(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report(path, {"run": 1})
        original = path.read_bytes()
        with pytest.raises(TypeError):
            write_report(path, {"bad": object()})
        assert path.read_bytes() == original
