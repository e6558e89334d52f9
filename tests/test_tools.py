"""The golden generator runs from a plain checkout and rewrites the
committed goldens byte for byte, and the README's command-line examples
run as shown."""

import importlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

from mexmoments import cli

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


def readme_commands() -> list:
    """(argv, shown rows) of each ``mexmoments`` command in the sh block
    under ``## Command line`` in README.md, continuation lines joined; the
    rows are those of the ``# ->`` comment below the command, if any."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        if line.startswith("mexmoments "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith(("# -> ", "#    ")):
            commands[-1][1].append(line[5:].strip())
    return commands


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 7
    assert commands[0][1] == ["n,oracle,gf,match", "4,5,5,true"]
    for argv, shown in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if shown:  # the rows below the "# params:" line
            assert out.splitlines()[1:] == shown, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.csv", "seq.csv.meta.json"]


def test_readme_names_of_the_package_resolve():
    # Every backticked `module.name` of the package's modules in README.md
    # names something the module has, so a deleted function or constant
    # cannot stay documented.
    modules = sorted(p.stem for p in (ROOT / "src" / "mexmoments").glob("*.py")
                     if p.stem != "__init__")
    assert len(modules) == 7
    pattern = rf"`({'|'.join(modules)})\.([A-Za-z_]\w*)"
    refs = set(re.findall(pattern, (ROOT / "README.md").read_text(encoding="utf-8")))
    assert ("qseries", "value_bits") in refs  # the walk sees them
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"mexmoments.{module}"), name)]
    assert missing == []
