#!/usr/bin/env python3
"""End-to-end benchmark of the mexmoments command line.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all          # every workload in turn
    python3 e2ebench/run.py --compare BASE.json NEW.json

Workloads (request lists in ``workloads.py``):

* ``stats_session``: three cold ``stats --method gf`` requests at
  N = 32768, where the p(n) table and the sparse x dense product do the
  work and the oracle never runs; then, in the same process, scanner,
  ``asymp`` and asymptotics requests, where the sequence cache mixes
  hits, misses and larger-order recomputation and the scanners, the
  asymptotics and the JSON report writer have visible self time.
* ``oracle_grid``: ``verify`` on the default grid, a sigma ``--method
  both`` request at n = 55 and a varsigma oracle request with M = 1000.
  The enumeration kernel does the work, the p(n) table almost none, the
  histogram cache mostly hits, and the M x (n+M+1) counter table sets the
  peak memory.

Load is a closed loop: one client sends requests back to back, one
worker process at a time.  Every iteration of a workload runs in a fresh
worker (``worker.py``), so the package's module caches start empty.  The
run repeats iterations for ``--seconds`` and reports medians:

* ``wall_s``: first request sent to last request done, set-up excluded;
* ``cpu_s``: user + sys time of the worker over the same interval;
* ``setup_s``: interpreter start until ``mexmoments.cli`` is imported and
  the backend chosen (also sampled by import-only workers);
* ``peak_rss_mb``: the worker's ``ru_maxrss``;
* ``fail_ratio``: failed / attempted requests.  A request fails if it
  exits non-zero, raises, or fails its output check.  It is printed in
  the summary and carried by ``failed`` / ``attempted`` in the result
  line, since a metric that is 0 on a correct program has no median to
  bound.

With ``--trace 1`` iterations alternate between traced and untraced
workers; the result line then holds the per-layer metrics of the traced
ones (``tracing.py``) and ``trace.overhead_s``, the traced minus the
untraced median ``wall_s``.  The last traced worker's spans are written
to ``.e2ebench_results/``.

The program is used as the checkout's ``src`` holds it, with whatever
backend ``import mexmoments`` selects; nothing is built.  Every result is
saved with its provenance (backend, nproc, Python, git commit, seed) in
``.e2ebench_results/``; ``--compare`` refuses two results whose backends
differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".e2ebench_results"
WORK = ROOT / ".e2ebench_work"

sys.path.insert(0, str(HERE))
from tracing import CACHES, COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Import-only workers after each iteration, on top of its own set-up sample;
# spreading them over the run averages out slow spells of the machine.
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Variables that change what the program computes or writes.
PROGRAM_ENV = ("MEXMOMENTS_TRUNCATION", "MEXMOMENTS_ORACLE_CAP")


def layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s", f"{layer}.calls": "count"})
    for layer in CACHES:
        units.update({f"{layer}.misses": "count", f"{layer}.hit_ratio": "ratio"})
    for layer, keys in COUNTERS.items():
        for key in keys:
            units[f"{layer}.{key}"] = {"out_kbytes": "kB", "bytes_written": "B"}.get(key, "count")
    units.update({"unattributed_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, trace: bool, work: Path, spans: Path | None) -> dict:
    """Run one worker process to completion and return its result."""
    result_path = work / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--work", str(work),
            "--result", str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    spawned_at = time.monotonic()
    proc = subprocess.run([*argv, "--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}")
    return json.loads(result_path.read_text())


def measure(workload: str, seed: int, seconds: int, trace: bool, scratch: Path) -> dict:
    """Repeat the workload in fresh workers for about ``seconds``."""
    deadline = time.monotonic() + seconds
    spans = RESULTS / f"{workload}-seed{seed}-spans.json" if trace else None
    spawn("setup", seed, False, scratch, None)  # compiles bytecode; not measured
    setups = []
    runs = {True: [], False: []}
    plan = [True, False] if trace else [False]
    last = 0.0
    while (not all(runs[t] for t in plan)) or time.monotonic() + last < deadline:
        traced = plan[sum(map(len, runs.values())) % len(plan)]
        work = scratch / "iteration"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        start = time.monotonic()
        result = spawn(workload, seed, traced, work, spans if traced else None)
        setups.append(result["setup_s"])
        setups += [spawn("setup", seed, False, scratch, None)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        runs[traced].append(result)
        last = time.monotonic() - start
    done = runs[True] + runs[False]
    untraced = runs[False]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    layers = {}
    if trace:
        for name in layer_units():
            if not name.startswith("trace."):
                layers[name] = statistics.median(r["layers"][name] for r in runs[True])
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs[True])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - metrics["wall_s"]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    return {
        "provenance": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "backend": done[0]["backend"], "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": git_commit(),
        },
        "iterations": {"untraced": len(untraced), "traced": len(runs[True]),
                       "setup_samples": len(setups)},
        "samples": {
            "wall_s": [r["wall_s"] for r in untraced],
            "request_s": [r["request_s"] for r in untraced],
            "setup_s": setups,
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [r["problems"] for r in done if r["problems"]],
        "wrapped_in_untraced": sorted({n for r in untraced for n in r["wrapped"]}),
        "metrics": metrics,
        "layers": layers,
    }


def report(result: dict, path: Path) -> None:
    """Print the human-readable summary and the result line."""
    prov, its = result["provenance"], result["iterations"]
    print(f"{prov['workload']}: seed={prov['seed']} backend={prov['backend']} "
          f"nproc={prov['nproc']} python={prov['python']} commit={prov['commit']}")
    print(f"  medians of {its['untraced']} untraced and {its['traced']} traced iterations, "
          f"{its['setup_samples']} set-up samples; saved to {path}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {result['metrics'][name]:12.4f} {unit}")
    print(f"  {'fail_ratio':<12} {result['fail_ratio']:12.4f} "
          f"({result['failed']}/{result['attempted']} requests)")
    for problems in result["problems"]:
        print(f"  failed: {problems}")
    units = END_TO_END
    values = result["metrics"]
    if prov["trace"]:
        units = layer_units()
        values = result["layers"]
        for name, unit in units.items():
            print(f"  {name:<48} {values[name]:16.6g} {unit}")
    correct = result["failed"] == 0 and not result["wrapped_in_untraced"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def compare(base_path: Path, new_path: Path) -> int:
    """Print the change of every end-to-end metric between two results."""
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    for key in ("backend", "workload"):
        if base["provenance"][key] != new["provenance"][key]:
            sys.stderr.write(f"refusing to compare: {key} {base['provenance'][key]!r} "
                             f"vs {new['provenance'][key]!r}\n")
            return 2
    print(f"{new['provenance']['workload']} ({new['provenance']['backend']}): "
          f"{base['provenance']['commit']} -> {new['provenance']['commit']}")
    for name, unit in END_TO_END.items():
        a, b = base["metrics"][name], new["metrics"][name]
        print(f"  {name:<12} {a:12.4f} -> {b:12.4f} {unit}  ({(b - a) / a:+.1%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "mexmoments" / "cli.py").is_file():
        sys.stderr.write(f"no mexmoments sources under {ROOT / 'src'}\n")
        return 2
    RESULTS.mkdir(exist_ok=True)
    scratch = WORK / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
            path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
            report(result, path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
