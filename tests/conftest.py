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
    histogram store; the store the other tests share is put back after."""
    from collections import OrderedDict

    from mexmoments import backend, partitions

    calls = []
    kernel = backend.mex_value_counts
    monkeypatch.setattr(partitions, "_tables", OrderedDict())
    monkeypatch.setattr(backend, "mex_value_counts",
                        lambda n, s, M: calls.append((n, s, M)) or kernel(n, s, M))
    return calls
