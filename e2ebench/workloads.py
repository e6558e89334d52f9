"""Request lists of the benchmark workloads.

A workload is a list of requests that one worker process sends back to
back.  A request is either a command line for ``mexmoments.cli.main``
(``Cli``) or a call into ``mexmoments.asymptotics`` (``Call``).

Seed 0 gives the reference request lists.  Any other seed draws each
request's (s, M, A, r) tuple from a fixed list of alternatives.  The
alternatives of one request differ only in parameters that leave the
work unchanged (mostly the residue A), so a seed changes the inputs and
outputs but not the amount of work: run-to-run spread across seeds then
measures the machine, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# n ranges and truncation orders are fixed for every seed.
STATS_N = 32768
ORACLE_N = 55
BIG_M = 1000
SCAN_SHORT = 8000
SCAN_LONG = 16384
ASYMP_N = 4096

# Each list starts with the seed-0 tuple (s, M, A, r).
VARSIGMA_M3 = [(1, 3, 2, 1), (1, 3, 1, 1), (1, 3, 3, 1)]
SIGMA_M2 = [(1, 2, 1, 1), (1, 2, 2, 1)]
# varsigma with r = 0 is p(n) for every (s, M, A), from a one-term support.
VARSIGMA_R0 = [(1, 1, 1, 0), (2, 3, 1, 0), (1, 4, 3, 0), (3, 2, 2, 0)]
# The sigma oracle walks the plain mex histogram whatever M, A and r are.
SIGMA_ORACLE = [(1, 2, 1, 1), (1, 2, 2, 1), (1, 3, 1, 1), (1, 3, 3, 1), (1, 4, 2, 1)]
# Every row of the M = 1000 histogram is built whatever A is.
BIG_M_RESIDUES = [7, 1, 500, 999, 1000]
# (A, A') pairs of the sigma M = 4 corollary table.
COROLLARY_M4 = [(1, 3), (2, 4), (3, 1), (4, 2)]


@dataclass(frozen=True)
class Cli:
    """One ``mexmoments`` command line; ``out`` names its data file."""

    argv: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class Call:
    """One call ``asymptotics.<fn>(*args)``."""

    fn: str
    args: tuple


def _params(kind: str, p: tuple[int, int, int, int]) -> tuple[str, ...]:
    s, M, A, r = p
    return ("--kind", kind, "--s", str(s), "--mod", str(M), "--res", str(A), "--r", str(r))


def _pick(rng: random.Random | None, options: list):
    return options[0] if rng is None else rng.choice(options)


def _stats_cold(rng) -> list:
    v3, s2, v0 = _pick(rng, VARSIGMA_M3), _pick(rng, SIGMA_M2), _pick(rng, VARSIGMA_R0)
    span = f"0:{STATS_N}"
    return [
        Cli(("stats", *_params("varsigma", v3), "--range", span), "varsigma_m3.csv"),
        Cli(("stats", *_params("sigma", s2), "--range", span), "sigma_m2.csv"),
        Cli(("stats", *_params("varsigma", v0), "--range", span, "--format", "json"),
            "varsigma_r0.json"),
    ]


def oracle_grid(rng) -> list:
    so = _pick(rng, SIGMA_ORACLE)
    big = (1, BIG_M, _pick(rng, BIG_M_RESIDUES), 1)
    return [
        Cli(("verify",), "verify.txt"),
        Cli(("stats", *_params("sigma", so), "--method", "both", "--n", str(ORACLE_N)),
            "sigma_both.csv"),
        Cli(("stats", *_params("varsigma", big), "--method", "oracle", "--range", "0:14"),
            "varsigma_bigm.csv"),
    ]


def _research_session(rng) -> list:
    a, a_prime = _pick(rng, COROLLARY_M4)
    s2, v3, v0 = _pick(rng, SIGMA_M2), _pick(rng, VARSIGMA_M3), _pick(rng, VARSIGMA_R0)
    sigma_bias = ("conjecture", "bias", "--kind", "sigma", "--s", "1", "--mod", "4", "--r", "1")
    pow2 = ",".join(str(ASYMP_N >> k) for k in (3, 2, 1, 0))
    # Imported here: run.py loads this module without the package on its path.
    from mexmoments.partitions import MexParams

    return [
        Cli((*sigma_bias, "--range", f"1:{SCAN_SHORT}"), "bias_sigma_m4.json"),
        Cli(("asymp", "--kind", "sigma", "--s", "1", "--mod", "4", "--res", str(a),
             "--res-prime", str(a_prime), "--r", "1", "--n-list", pow2, "--corollary"),
            "corollary_sigma_m4.csv"),
        Cli(("asymp", *_params("sigma", s2), "--n-list", pow2), "asymp_sigma_m2.csv"),
        Cli(("asymp", *_params("varsigma", v3), "--n-list", f"1024,{ASYMP_N},{SCAN_LONG}"),
            "asymp_varsigma_m3.csv"),
        Cli(("conjecture", "logconcave", *_params("varsigma", v0), "--range", f"26:{SCAN_SHORT}"),
            "logconcave_varsigma_r0.json"),
        Cli(("conjecture", "bias", "--kind", "varsigma", "--s", "1", "--mod", "3", "--r", "1",
             "--range", f"1:{SCAN_LONG}"), "bias_varsigma_m3.json"),
        Cli((*sigma_bias, "--range", f"1:{SCAN_LONG}"), "bias_sigma_m4_long.json"),
        Cli((*sigma_bias, "--range", f"1:{SCAN_SHORT}"), "bias_sigma_m4_again.json"),
        Call("gf_boundary_log", ("sigma", MexParams(*s2), 0.05)),
        Call("eta_inversion_check", (1e-4,)),
    ]


def stats_session(rng) -> list:
    """Three cold ``stats`` requests at N = 32768, then a research session."""
    return _stats_cold(rng) + _research_session(rng)


# A run of one workload measures about a minute, which averages over the
# slow spells of a shared machine better than shorter runs of more
# workloads would; so the stats and research requests share one workload.
WORKLOADS = {
    "stats_session": stats_session,
    "oracle_grid": oracle_grid,
}


def requests(workload: str, seed: int) -> list:
    """The request list of ``workload`` for ``seed``."""
    rng = None if seed == 0 else random.Random(seed)
    return WORKLOADS[workload](rng)
