"""Package-level contracts: public API surface, lazy subpackages and
docstring coverage."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.baselines
import repro.core
import repro.data
import repro.eval
import repro.nn
import repro.text


ALL_PACKAGES = [repro, repro.nn, repro.text, repro.data, repro.core,
                repro.baselines, repro.eval]


class TestPublicSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for package in ALL_PACKAGES:
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_no_duplicate_exports(self):
        for package in ALL_PACKAGES:
            assert len(package.__all__) == len(set(package.__all__)), package.__name__

    def test_packages_have_docstrings(self):
        for package in ALL_PACKAGES:
            assert package.__doc__, package.__name__


LAZY_PROBE = """
import sys
import repro.data
print(sorted(m for m in ("repro.serve", "scipy.sparse.linalg") if m in sys.modules))
import repro
print(sorted(name for name in repro.__all__ if name != "__version__"
             and getattr(repro, name).__name__ != "repro." + name))
"""


class TestLazySubpackages:
    def test_import_loads_only_what_it_uses(self):
        """``import repro.data`` pulls in neither the serving stack nor
        ARPACK, yet every subpackage stays reachable as an attribute."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
        ).stdout.splitlines()
        assert out == ["[]", "[]"]

    def test_core_and_data_leave_scipy_sparse_unloaded(self):
        """Training set-up needs no sparse matrices: only the > 2048-token
        embedding branch imports ``scipy.sparse``."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", "import sys, repro.core, repro.data; "
             "print('scipy.sparse' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
        ).stdout.split()
        assert out == ["False"]

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_subpackage


class TestDocstringCoverage:
    def test_every_public_item_documented(self):
        """Every class and function exported from the subpackages carries a
        docstring — the deliverable requires documented public API."""
        undocumented = []
        for package in ALL_PACKAGES[1:]:
            for name in package.__all__:
                obj = getattr(package, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{package.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_classes_have_documented_public_methods(self):
        missing = []
        for package in ALL_PACKAGES[1:]:
            for name in package.__all__:
                obj = getattr(package, name)
                if not inspect.isclass(obj):
                    continue
                for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if not inspect.getdoc(method):
                        missing.append(f"{package.__name__}.{name}.{method_name}")
        assert not missing, missing
