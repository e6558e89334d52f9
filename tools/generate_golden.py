#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Run after any intentional change to the scanned sequences or report
schema; the script imports the package from this checkout's src/, so it
needs no install and no PYTHONPATH:

    python tools/generate_golden.py

The files are committed; the acceptance suite recomputes everything and
compares byte-for-byte (via canonical JSON), so an unintended change to
any exact sequence shows up as a golden mismatch.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, not an installed one

from mexmoments.conjectures import scan_bias, scan_log_concavity  # noqa: E402
from mexmoments.partitions import MexParams  # noqa: E402
from mexmoments.qseries import moment_sequence  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"

MONOTONICITY_ORDER = 2000
LOGCONCAVE_RANGE = (26, 1000)
BIAS_RANGE = (1, 120)


def sigma_monotonicity_onsets() -> dict:
    """Smallest n0 per parameter set such that the sigma sequence is
    nondecreasing from n0 through the end of the computed range."""
    out = {}
    for M in range(1, 5):
        for A in range(1, M + 1):
            for s in (1, 2, 3):
                for r in (0, 1, 2):
                    values = moment_sequence("sigma", MexParams(s, M, A, r), MONOTONICITY_ORDER).values
                    n0 = 0
                    for n in range(MONOTONICITY_ORDER - 1, -1, -1):
                        if values[n + 1] < values[n]:
                            n0 = n + 1
                            break
                    out[f"s={s},M={M},A={A},r={r}"] = n0
    return {"order": MONOTONICITY_ORDER, "n0": out}


def dump(name: str, payload: dict) -> None:
    path = GOLDEN_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    dump("sigma_monotonicity_n0.json", sigma_monotonicity_onsets())

    lo, hi = LOGCONCAVE_RANGE
    report = scan_log_concavity("varsigma", MexParams(1, 2, 1, 0), lo, hi)
    dump("logconcave_varsigma_r0.json", report.to_json_dict())

    lo, hi = BIAS_RANGE
    report = scan_bias("varsigma", 1, 3, 0, lo, hi)
    dump("bias_varsigma_r0.json", report.to_json_dict())


if __name__ == "__main__":
    main()
