"""The golden generator runs from a plain checkout and rewrites the
committed goldens byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_generate_golden_from_a_plain_checkout(tmp_path):
    # A copy of src/ and tools/ only, run without PYTHONPATH and from
    # another directory: the tool must find the package of its own
    # checkout, and it writes into the copy, never into this tree.
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "generate_golden.py")],
        cwd=tmp_path / "tools", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden"
    written = sorted(p.name for p in (tmp_path / "tests" / "golden").iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (tmp_path / "tests" / "golden" / name).read_bytes() == (golden / name).read_bytes()
