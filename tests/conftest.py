"""Shared fixtures: the compiled enumeration kernel, built from source."""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def speed(tmp_path_factory):
    """``mexmoments._speed`` built from ``src/`` into a temporary directory
    and loaded by file path, so an installed or stale build is never the
    one tested.  Skips only when there is no C compiler; a compiler that
    fails on the source fails the test."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler found: {cc!r} is not on PATH")
    out = tmp_path_factory.mktemp("speed")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((out / "lib").rglob("_speed*" + sysconfig.get_config_var("EXT_SUFFIX")))
    if proc.returncode != 0 or not built:
        pytest.fail(f"building mexmoments._speed failed:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("mexmoments._speed", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (n, s, M) of every histogram kernel call, from an empty
    histogram store (a fresh ``partitions.Store``); the store the other
    tests share is put back after."""
    from mexmoments import backend, partitions

    calls = []
    kernel = backend.mex_value_counts
    monkeypatch.setattr(partitions, "_tables", partitions.Store(partitions.STORE_CELL_LIMIT))
    monkeypatch.setattr(backend, "mex_value_counts",
                        lambda n, s, M: calls.append((n, s, M)) or kernel(n, s, M))
    return calls


@pytest.fixture
def gf_calls(monkeypatch):
    """The (kind, params, order) of every sequence the series store
    computes, from an empty store; the shared store is put back after."""
    from mexmoments import partitions, qseries

    calls = []
    monkeypatch.setattr(qseries, "_store", partitions.Store(qseries.STORE_BYTE_LIMIT))
    for kind in ("sigma", "varsigma"):
        gf = getattr(qseries, f"{kind}_gf_coeffs")

        def counted(p, order, kind=kind, gf=gf):
            calls.append((kind, p, order))
            return gf(p, order)
        monkeypatch.setattr(qseries, f"{kind}_gf_coeffs", counted)
    return calls
