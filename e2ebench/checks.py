"""Output checks, run in the worker after the timed region.

Every request is checked for its exit code and for properties that hold
for any seed:

* gf values at n <= 30 equal the enumeration oracle, and oracle values
  at n <= 30 equal the gf route;
* varsigma with r = 0 equals the partition numbers;
* ``verify`` reports 0 mismatches over the whole default grid;
* scanner reports agree with oracle values at n <= 30, and p(n) shows no
  log-concavity violation from n = 26 on (DeSalvo and Pak, 2015);
* exact/asymptotic ratios approach 1 as the growth laws say;
* the boundary and eta-inversion estimates match their closed forms.

For seed 0 the sha256 of each data file must also equal the value pinned
from the reference implementation (sidecars hold a timestamp, so they are
not pinned).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from mexmoments import asymptotics, qseries
from mexmoments.cli import build_parser
from mexmoments.partitions import MexParams, sigma_oracle, varsigma_oracle

ORACLE_CHECK_N = 30

PINNED_SHA256 = {
    "varsigma_m3.csv": "4db83fcc889633209cce80836acb1d540220f284359295e64980522c07c84e67",
    "sigma_m2.csv": "19db9d334b58eff151de2c62e689053b07674898e7932f8caa9286f151b8524d",
    "varsigma_r0.json": "10bd89351ca80364b3ab5c92b41f9e9453f4bf4b0729e7c551a2592f22debc7d",
    "verify.txt": "659354316f2ec283329611d9792022e6820d2b07bed5dff7187a353278f90e7e",
    "sigma_both.csv": "cbd3dbafbf347ebdf8fa8ee1bef1f56b91c1f476907eeb78d2ea3ad73bf49763",
    "varsigma_bigm.csv": "98b031ae2c84cab4f01ff70829d26ed2317d91139e2702c4bacb1c26b87c4892",
    "bias_sigma_m4.json": "f0fee903b7f4a61bb2f677f20ee5116f23d7504fde2bb1827f770c4d37fb1cd3",
    "corollary_sigma_m4.csv": "c754e9f2ba82c224abb100a331d0812b2d92c15363a1bc1e3d3789b05da832e2",
    "asymp_sigma_m2.csv": "35445e365667be49a7710dd9f1394ada926a99c8755ddc84761011172ce2c8b3",
    "asymp_varsigma_m3.csv": "756595a766b2823ee30596daec4772cf9203fdf47d4a355854132de69c2dc633",
    "logconcave_varsigma_r0.json": "1b4a2ab67251d08febcaf94cce60b1d7209d7fb845cdafc87beb74c475a0583a",
    "bias_varsigma_m3.json": "fc55fa129c93e6790554d48bf3807842bb33990523f0704e42290c1c9afec2b5",
    "bias_sigma_m4_long.json": "9dbea1a73fc946b996a7ffa19e167e7a1b68054763dd6139a05e18affc48e502",
    "bias_sigma_m4_again.json": "f0fee903b7f4a61bb2f677f20ee5116f23d7504fde2bb1827f770c4d37fb1cd3",
}


def _oracle(kind: str, p: MexParams, n: int) -> int:
    return (sigma_oracle if kind == "sigma" else varsigma_oracle)(p, n)


def _csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_stats(args, text: str) -> list[str]:
    p = MexParams(args.s, args.mod, args.res, args.r)
    if args.n is not None:
        ns = [args.n]
    else:
        lo, _, hi = args.n_range.partition(":")
        ns = list(range(int(lo), int(hi) + 1))
    if args.format == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = _csv_rows(text)
    if [int(row["n"]) for row in rows] != ns:
        return ["rows do not cover the requested n"]
    problems = []
    if args.method == "both":
        values = [int(row["gf"]) for row in rows]
        if any(row["match"] != "true" or row["oracle"] != row["gf"] for row in rows):
            problems.append("oracle and gf columns disagree")
    else:
        key = "value" if args.format == "csv" else args.method
        values = [int(row[key]) for row in rows]
    small = [(n, v) for n, v in zip(ns, values) if n <= ORACLE_CHECK_N]
    if args.method == "oracle":
        reference = qseries.moment_sequence(args.kind, p, ns[-1])
        if any(v != reference[n] for n, v in small):
            problems.append("oracle values differ from the gf route")
    elif any(v != _oracle(args.kind, p, n) for n, v in small):
        problems.append("gf values differ from the oracle")
    if args.kind == "varsigma" and args.r == 0:
        pn = qseries.partition_numbers(ns[-1])
        if any(v != pn[n] for n, v in zip(ns, values)):
            problems.append("varsigma r=0 differs from p(n)")
    return problems


def _check_verify(args, text: str) -> list[str]:
    sequences = sum(M for M in range(1, args.max_mod + 1)) * args.max_s * (args.max_r + 1) * 2
    want = f"checked {sequences * (args.max_n + 1)} values across {sequences} sequences; 0 mismatches\n"
    return [] if text == want else [f"verify reported {text.strip()!r}"]


def _check_asymp(args, text: str) -> list[str]:
    rows = _csv_rows(text)
    ns = [int(x) for x in args.n_list.split(",")]
    if [int(row["n"]) for row in rows] != ns:
        return ["rows do not cover the requested n"]
    devs = [abs(float(row["ratio"]) - 1.0) for row in rows]
    if args.corollary:
        ok = devs[-1] < devs[0]
    else:
        ok = all(b < a for a, b in zip(devs, devs[1:]))
    return [] if ok and devs[-1] < 0.25 else [f"ratios do not approach 1: {devs}"]


def _ordering(kind: str, s: int, M: int, r: int, n: int) -> dict:
    row = sorted((_oracle(kind, MexParams(s, M, a, r), n), a) for a in range(1, M + 1))
    ties = []
    i = 0
    while i < M:
        j = i
        while j + 1 < M and row[j + 1][0] == row[i][0]:
            j += 1
        if j > i:
            ties.append([a for _, a in row[i : j + 1]])
        i = j + 1
    return {"n": n, "perm": [a for _, a in row], "ties": ties}


def _check_conjecture(args, text: str) -> list[str]:
    report = json.loads(text)
    lo, _, hi = args.n_range.partition(":")
    lo, hi = int(lo), int(hi)
    if report["range"] != [lo, hi]:
        return ["report range differs from the request"]
    problems = []
    if args.scan == "bias":
        ordering = report["ordering"]
        if [entry["n"] for entry in ordering] != list(range(lo, hi + 1)):
            return ["ordering does not cover the range"]
        for entry in ordering[: max(0, ORACLE_CHECK_N + 1 - lo)]:
            if entry != _ordering(args.kind, args.s, args.mod, args.r, entry["n"]):
                problems.append(f"ordering at n={entry['n']} differs from the oracle")
    else:
        p = MexParams(args.s, args.mod, args.res, args.r)
        values = [_oracle(args.kind, p, n) for n in range(ORACLE_CHECK_N + 1)]
        want = [
            n for n in range(lo, min(hi, ORACLE_CHECK_N))
            if values[n] * values[n] <= values[n - 1] * values[n + 1]
        ]
        if [n for n in report["violations"] if n < ORACLE_CHECK_N] != want:
            problems.append("violations below n=30 differ from the oracle")
        if args.kind == "varsigma" and args.r == 0 and lo >= 26 and report["violations"]:
            problems.append("p(n) reported not log-concave beyond n=25")
    return problems


CHECKS = {
    "stats": _check_stats,
    "verify": _check_verify,
    "asymp": _check_asymp,
    "conjecture": _check_conjecture,
}


def check_cli(request, path: Path, seed: int) -> list[str]:
    """Problems with the data file ``path`` written by ``request``."""
    data = path.read_bytes()
    problems = CHECKS[request.argv[0]](build_parser().parse_args(list(request.argv)),
                                       data.decode("utf-8"))
    if seed == 0 and hashlib.sha256(data).hexdigest() != PINNED_SHA256[request.out]:
        problems.append("sha256 differs from the pinned seed-0 output")
    return problems


def check_call(request, result) -> list[str]:
    """Problems with the value ``result`` returned by an asymptotics call."""
    if request.fn == "gf_boundary_log":
        kind, p, t = request.args
        ip = asymptotics.qexpansion_ingham_params(kind, p.s, p.M, p.r)
        want = math.log(ip.lam) + ip.alpha * math.log(t) + ip.growth_A / t
        ok = abs(result - want) < 0.05
    else:
        (t,) = request.args
        lhs, rhs = result
        ok = math.isclose(lhs - rhs, t / 24, rel_tol=1e-3)
    return [] if ok else [f"{request.fn} = {result!r} is off its closed form"]
