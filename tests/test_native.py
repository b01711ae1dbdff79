"""The compiled-kernel backend: build, cache, fallback and packaging.

The block API must give the same bits whichever backend runs it, so
every fallback test re-runs a sweep on the Python kernels and compares
it with the compiled run, float by float on the raw bytes.
"""

from __future__ import annotations

import shutil
import stat
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import native
from repro.core import Strategy, optimize
from repro.core.design import DesignSpace
from repro.kernels import batch
from repro.obs import (
    disable_metrics,
    enable_metrics,
    gauge_value,
    reset_metrics,
)

REPO = Path(__file__).resolve().parent.parent

SPACE = DesignSpace(
    solar_mw=(0.0, 30.0),
    wind_mw=(0.0, 30.0),
    battery_mwh=(0.0, 50.0),
    extra_capacity_fractions=(0.0, 0.5),
)

STRATEGIES = (
    Strategy.RENEWABLES_BATTERY,
    Strategy.RENEWABLES_CAS,
    Strategy.RENEWABLES_BATTERY_CAS,
)

_FLOAT_FIELDS = (
    "coverage",
    "operational_tons",
    "renewables_embodied_tons",
    "battery_embodied_tons",
    "servers_embodied_tons",
    "grid_import_mwh",
    "surplus_mwh",
    "moved_mwh",
    "battery_cycles_per_day",
)


def bits(evaluations):
    """Every evaluation's design and the raw bytes of its floats."""
    return [
        (
            e.design,
            e.strategy,
            struct.pack("<9d", *(getattr(e, name) for name in _FLOAT_FIELDS)),
        )
        for e in evaluations
    ]


def sweep(context):
    return {
        strategy: bits(optimize(context, SPACE, strategy, batch_size=3).evaluations)
        for strategy in STRATEGIES
    }


@pytest.fixture()
def native_sweep(ut_context):
    if native.load() is None:
        pytest.skip("the native kernels could not be built here")
    assert batch.native_active()
    return sweep(ut_context)


@pytest.fixture()
def unresolved(monkeypatch, tmp_path):
    """A process state in which the backend has not been resolved yet,
    with an empty library cache; restored afterwards."""
    monkeypatch.setattr(native, "_resolved", False)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(batch, "_native", batch._native)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


def fallback_sweep(context):
    """A sweep whose first block resolves the backend; returns the
    results and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = sweep(context)
    return results, [w for w in caught if "native kernels" in str(w.message)]


class TestFallback:
    def test_no_compiler(self, ut_context, native_sweep, unresolved, monkeypatch):
        empty = unresolved / "empty-path"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        results, caught = fallback_sweep(ut_context)
        assert len(caught) == 1
        assert "no C compiler" in str(caught[0].message)
        assert not batch.native_active()
        assert results == native_sweep

    def test_compile_failure(self, ut_context, native_sweep, unresolved, monkeypatch):
        broken = unresolved / "native.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        results, caught = fallback_sweep(ut_context)
        assert len(caught) == 1
        assert "exited with" in str(caught[0].message)
        assert not batch.native_active()
        assert results == native_sweep
        assert not list((unresolved / "cache" / "repro").iterdir())

    def test_gauge_reports_the_backend(self, unresolved, monkeypatch):
        reset_metrics()
        enable_metrics()
        try:
            monkeypatch.setenv("PATH", str(unresolved))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert native.load() is None
            assert gauge_value("kernel_backend_native") == 0.0
        finally:
            disable_metrics()
            reset_metrics()


class TestCache:
    def test_private_cache_reused_across_processes(self, unresolved, monkeypatch):
        if shutil.which(native.COMPILER) is None:
            pytest.skip("no C compiler")
        library = native.load()
        assert library is not None and batch.native_active()
        directory = unresolved / "cache" / "repro"
        assert stat.S_IMODE(directory.stat().st_mode) == 0o700
        (built,) = directory.iterdir()
        assert built.name.startswith("kernels-") and built.suffix == ".so"
        built_at = built.stat().st_mtime_ns

        # A new process state loads the cached library without a rebuild.
        monkeypatch.setattr(native, "_resolved", False)
        assert native.load() is not None
        assert [p.name for p in directory.iterdir()] == [built.name]
        assert built.stat().st_mtime_ns == built_at

    def test_key_follows_the_source(self, unresolved, monkeypatch):
        if shutil.which(native.COMPILER) is None:
            pytest.skip("no C compiler")
        edited = unresolved / "native.c"
        edited.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
        native.load()
        monkeypatch.setattr(native, "_resolved", False)
        monkeypatch.setattr(native, "SOURCE", edited)
        native.load()
        names = sorted(p.name for p in (unresolved / "cache" / "repro").iterdir())
        assert len(names) == 2


def test_source_ships_with_the_installed_package(tmp_path):
    """``setup.py build_py`` lays the package out as an install would; the
    C source must be there and be what the loader of that layout finds."""
    pytest.importorskip("setuptools")
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy(REPO / name, project / name)
    shutil.copytree(
        REPO / "src", project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    lib = tmp_path / "lib"
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(lib)],
        cwd=project, check=True, capture_output=True,
    )
    found = subprocess.run(
        [sys.executable, "-c", "from repro import native; print(native.SOURCE)"],
        cwd=tmp_path, env={"PYTHONPATH": str(lib)}, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert Path(found) == lib / "repro" / "kernels" / "native.c"
    assert Path(found).read_bytes() == native.SOURCE.read_bytes()
