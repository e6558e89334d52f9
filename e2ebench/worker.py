"""One benchmark iteration in a fresh interpreter.

    python3 e2ebench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --work DIR --result PATH [--spans PATH]

A fresh process starts with empty module caches (the p(n) table and the
``lru_cache``s), so nothing private has to be reset.  The worker imports
``mexmoments.cli`` from the checkout's ``src`` before anything else, so
``setup_s`` (``--spawned-at``, a ``time.monotonic`` reading taken by the
parent just before it started this process, to the end of that import)
covers the interpreter start and the package import only.  It then sends
the workload's requests back to back, measures them, checks every output
outside the timed region and writes one JSON result to ``--result``.
With ``--workload setup`` it stops after the import.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mexmoments.cli  # noqa: E402
from mexmoments import BACKEND  # noqa: E402

READY = time.monotonic()

if not mexmoments.__file__.startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"mexmoments was imported from {mexmoments.__file__}, not from this checkout")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mexmoments import asymptotics  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _send(request, work: Path):
    """Run one request; returns the CLI exit code or the call's value."""
    if isinstance(request, workloads.Cli):
        return mexmoments.cli.main([*request.argv, "--out", str(work / request.out)])
    return getattr(asymptotics, request.fn)(*request.args)


def _problems(request, outcome, work: Path, seed: int) -> list[str]:
    if isinstance(outcome, BaseException):
        return [f"raised {outcome!r}"]
    if isinstance(request, workloads.Cli):
        if outcome != 0:
            return [f"exit code {outcome}"]
        return checks.check_cli(request, work / request.out, seed)
    return checks.check_call(request, outcome)


def run(workload: str, seed: int, trace: bool, work: Path, spans: Path | None) -> dict:
    """Send the workload's requests in this process and check the outputs."""
    requests = workloads.requests(workload, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    outcomes = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    marks = [t0]
    for i, request in enumerate(requests):
        if tracer:
            tracer.request = i
        try:
            outcomes.append(_send(request, work))
        except Exception as exc:  # a failing request is counted, not fatal
            traceback.print_exc()
            outcomes.append(exc)
        marks.append(time.perf_counter())
    wall_s, cpu_s = marks[-1] - t0, _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    result = {
        "wall_s": wall_s,
        "request_s": [b - a for a, b in zip(marks, marks[1:])],
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "problems": {},
        "wrapped": tracing.wrapped_names(),
    }
    for i, (request, outcome) in enumerate(zip(requests, outcomes)):
        problems = _problems(request, outcome, work, seed)
        if problems:
            result["problems"][i] = problems
    result["failed"] = len(result["problems"])
    if tracer:
        result["layers"] = tracer.layer_metrics(wall_s)
        if spans is not None:
            spans.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["setup", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    result = {"backend": BACKEND}
    if args.workload != "setup":
        result.update(run(args.workload, args.seed, bool(args.trace), args.work, args.spans))
    result["setup_s"] = READY - args.spawned_at
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
