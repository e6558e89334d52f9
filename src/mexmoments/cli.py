"""Command-line frontend.

Subcommands:

    stats       exact moment values by oracle and/or series extraction
    verify      oracle-vs-series equivalence sweep over a parameter grid
    asymp       exact / asymptotic ratio tables, plus residue-pair ratios
    conjecture  log-concavity and residue-bias scans (JSON reports)

Exit codes: 0 success, 1 validation error, 2 verification mismatch,
3 resource cap exceeded.

Defaults resolve as: command-line flag > config file (--config, flat
``key = value`` lines) > environment (MEXMOMENTS_TRUNCATION,
MEXMOMENTS_ORACLE_CAP) > built-in.  Data outputs are deterministic:
identical configuration yields byte-identical files; run metadata
(timestamp, backend, argv) goes to a ``<out>.meta.json`` sidecar instead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from pathlib import Path

from mexmoments import __version__, asymptotics, conjectures, qseries
from mexmoments.backend import BACKEND
from mexmoments.errors import ResourceCapError, ValidationError
from mexmoments.partitions import MexParams, sigma_oracle, varsigma_oracle

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # mismatch exit code; route every parse failure to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="write output to PATH (plus PATH.meta.json sidecar)")
    parser.add_argument("--truncation", type=int, help="series truncation order N")
    parser.add_argument("--oracle-cap", type=int, help="largest n the enumeration oracle accepts")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mexmoments", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"mexmoments {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="exact moment values")
    p_stats.add_argument("--kind", choices=qseries.VALID_KINDS, required=True)
    p_stats.add_argument("--s", type=int, default=1, help="frequency threshold (default 1)")
    p_stats.add_argument("--mod", type=int, default=1, help="modulus M (default 1)")
    p_stats.add_argument("--res", type=int, default=1, help="residue A (default 1)")
    p_stats.add_argument("--r", type=int, default=0, help="moment order (default 0)")
    group = p_stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single weight n")
    group.add_argument("--range", dest="n_range", help="weight range LO:HI (inclusive)")
    p_stats.add_argument(
        "--method", choices=("gf", "oracle", "both"), default="gf",
        help="series extraction, brute-force enumeration, or both with a match column",
    )
    p_stats.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p_stats)

    p_verify = sub.add_parser("verify", help="oracle-vs-series equivalence sweep")
    p_verify.add_argument("--max-mod", type=int, default=4)
    p_verify.add_argument("--max-s", type=int, default=3)
    p_verify.add_argument("--max-r", type=int, default=2)
    p_verify.add_argument("--max-n", type=int, default=30)
    p_verify.add_argument("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    _add_common(p_verify)

    p_asymp = sub.add_parser("asymp", help="exact vs asymptotic ratio tables")
    p_asymp.add_argument("--kind", choices=qseries.VALID_KINDS, required=True)
    p_asymp.add_argument("--s", type=int, default=1)
    p_asymp.add_argument("--mod", type=int, default=1)
    p_asymp.add_argument("--res", type=int, default=1)
    p_asymp.add_argument("--r", type=int, default=0)
    p_asymp.add_argument("--n-list", required=True, help="comma-separated weights")
    p_asymp.add_argument("--corollary", action="store_true",
                         help="residue-pair ratio table instead of the growth-law table")
    p_asymp.add_argument("--res-prime", type=int, help="second residue A' (corollary mode)")
    _add_common(p_asymp)

    p_conj = sub.add_parser("conjecture", help="open-problem scanners")
    conj_sub = p_conj.add_subparsers(dest="scan", required=True)

    p_lc = conj_sub.add_parser("logconcave", help="log-concavity scan")
    p_lc.add_argument("--kind", choices=qseries.VALID_KINDS, required=True)
    p_lc.add_argument("--s", type=int, default=1)
    p_lc.add_argument("--mod", type=int, default=1)
    p_lc.add_argument("--res", type=int, default=1)
    p_lc.add_argument("--r", type=int, default=0)
    p_lc.add_argument("--range", dest="n_range", required=True, help="scan range LO:HI")
    _add_common(p_lc)

    p_bias = conj_sub.add_parser("bias", help="residue-ordering scan")
    p_bias.add_argument("--kind", choices=qseries.VALID_KINDS, required=True)
    p_bias.add_argument("--s", type=int, default=1)
    p_bias.add_argument("--mod", type=int, default=1)
    p_bias.add_argument("--r", type=int, default=0)
    p_bias.add_argument("--range", dest="n_range", required=True, help="scan range LO:HI")
    _add_common(p_bias)

    return parser


# ---------------------------------------------------------------------------
# configuration plumbing


def read_config_file(path: str) -> dict[str, str]:
    """Flat config format: one ``key = value`` per line, # comments."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().lower()] = value.strip()
    return out


def _resolve_int(flag_value, cfg: dict, key: str, env: str | None, default):
    """Precedence: flag > config file > environment > default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        try:
            return int(cfg[key])
        except ValueError as exc:
            raise ValidationError(f"config key {key} must be an integer, got {cfg[key]!r}") from exc
    raw = os.environ.get(env) if env else None
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValidationError(f"{env} must be an integer, got {raw!r}") from exc
    return default


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        lo_s, _, hi_s = spec.partition(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ValidationError(f"range must be LO:HI, got {spec!r}") from exc
    if hi < lo:
        raise ValidationError(f"range must satisfy LO <= HI, got {spec!r}")
    return lo, hi


def _parse_n_list(spec: str) -> list[int]:
    try:
        values = [int(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"--n-list must be comma-separated integers, got {spec!r}") from exc
    if not values:
        raise ValidationError("--n-list must not be empty")
    if any(n < 0 for n in values):
        raise ValidationError("--n-list entries must be >= 0")
    return values


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text, encoding="utf-8", newline="")
    sidecar = {
        "argv": getattr(args, "_argv", []),
        "backend": BACKEND,
        "version": __version__,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    Path(str(path) + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _params_comment(fields: dict) -> str:
    return f"# params: {json.dumps(fields, sort_keys=True)}\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args, cfg: dict) -> int:
    params = MexParams(args.s, args.mod, args.res, args.r)
    if args.n is not None:
        ns = range(args.n, args.n + 1)
    else:
        lo, hi = _parse_range(args.n_range)
        ns = range(lo, hi + 1)
    if ns[0] < 0:
        raise ValidationError("n must be >= 0")
    n_max = ns[-1]
    trunc = _resolve_int(args.truncation, cfg, "truncation", "MEXMOMENTS_TRUNCATION", None)
    if trunc is None:
        trunc = n_max
    if trunc < n_max:
        raise ValidationError(f"truncation order {trunc} is below the largest requested n={n_max}")
    cap = _resolve_int(args.oracle_cap, cfg, "oracle_cap", None, None)  # env handled by the oracle layer

    need_oracle = args.method in ("oracle", "both")
    need_gf = args.method in ("gf", "both")
    seq = qseries.moment_sequence(args.kind, params, trunc) if need_gf else None
    oracle_fn = sigma_oracle if args.kind == "sigma" else varsigma_oracle

    rows = []
    mismatch = False
    for n in ns:
        row: dict = {"n": n}
        if need_oracle:
            row["oracle"] = oracle_fn(params, n, cap=cap)
        if need_gf:
            row["gf"] = seq[n]
        if args.method == "both":
            row["match"] = row["oracle"] == row["gf"]
            mismatch = mismatch or not row["match"]
        rows.append(row)

    meta = {
        "kind": args.kind, "s": params.s, "M": params.M, "A": params.A, "r": params.r,
        "method": args.method, "truncation": trunc,
    }
    if args.format == "json":
        text = json.dumps({"params": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write(_params_comment(meta))
        if args.method == "both":
            buf.write("n,oracle,gf,match\n")
            for row in rows:
                buf.write(f"{row['n']},{row['oracle']},{row['gf']},{str(row['match']).lower()}\n")
        else:
            key = "oracle" if args.method == "oracle" else "gf"
            buf.write("n,value\n")
            for row in rows:
                buf.write(f"{row['n']},{row[key]}\n")
        text = buf.getvalue()
    _emit(text, args)
    if mismatch:
        sys.stderr.write("stats: oracle and series extraction disagree\n")
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args, cfg: dict) -> int:
    cap = _resolve_int(args.oracle_cap, cfg, "oracle_cap", None, None)  # env handled by the oracle layer
    if args.max_mod < 1 or args.max_s < 1 or args.max_r < 0 or args.max_n < 0:
        raise ValidationError("verify grid bounds must be positive (max-r, max-n may be 0)")
    checked = 0
    sequences = 0
    for M in range(1, args.max_mod + 1):
        for A in range(1, M + 1):
            for s in range(1, args.max_s + 1):
                for r in range(0, args.max_r + 1):
                    params = MexParams(s, M, A, r)
                    for kind, oracle_fn in (
                        ("sigma", sigma_oracle),
                        ("varsigma", varsigma_oracle),
                    ):
                        seq = qseries.moment_sequence(kind, params, args.max_n)
                        sequences += 1
                        for n in range(args.max_n + 1):
                            want = oracle_fn(params, n, cap=cap)
                            got = seq[n]
                            if args.inject_mismatch and n == args.max_n and M == args.max_mod \
                                    and A == M and s == args.max_s and r == args.max_r \
                                    and kind == "varsigma":
                                got += 1
                            checked += 1
                            if got != want:
                                sys.stderr.write(
                                    f"MISMATCH kind={kind} s={s} M={M} A={A} r={r} n={n}: "
                                    f"series={got} oracle={want}\n"
                                )
                                _emit(
                                    f"checked {checked} values across {sequences} sequences; "
                                    f"1 mismatch\n",
                                    args,
                                )
                                return EXIT_MISMATCH
    _emit(f"checked {checked} values across {sequences} sequences; 0 mismatches\n", args)
    return EXIT_OK


def cmd_asymp(args, cfg: dict) -> int:
    params = MexParams(args.s, args.mod, args.res, args.r)
    ns = _parse_n_list(args.n_list)
    if min(ns) < 1:
        raise ValidationError("asymp requires n >= 1")
    n_max = max(ns)
    trunc = _resolve_int(args.truncation, cfg, "truncation", "MEXMOMENTS_TRUNCATION", None)
    if trunc is None:
        trunc = n_max
    if trunc < n_max:
        raise ValidationError(f"truncation order {trunc} is below the largest requested n={n_max}")

    buf = io.StringIO()
    if args.corollary:
        if args.res_prime is None:
            raise ValidationError("corollary mode needs --res-prime")
        meta = {
            "kind": args.kind, "s": params.s, "M": params.M, "A": params.A,
            "A_prime": args.res_prime, "r": params.r, "truncation": trunc,
        }
        seq_a = qseries.moment_sequence(args.kind, params, trunc)
        seq_b = qseries.moment_sequence(
            args.kind, MexParams(params.s, params.M, args.res_prime, params.r), trunc
        )
        buf.write(_params_comment(meta))
        buf.write("n,exact_a,exact_a_prime,ratio\n")
        for n in ns:
            try:
                ratio = asymptotics.corollary_ratio(
                    args.kind, params, args.res_prime, n, order=trunc
                )
            except ZeroDivisionError as exc:
                raise ValidationError(str(exc)) from exc
            buf.write(f"{n},{seq_a[n]},{seq_b[n]},{ratio!r}\n")
    else:
        meta = {
            "kind": args.kind, "s": params.s, "M": params.M, "A": params.A,
            "r": params.r, "truncation": trunc,
        }
        seq = qseries.moment_sequence(args.kind, params, trunc)
        asymp_fn = (
            asymptotics.sigma_asymp if args.kind == "sigma" else asymptotics.varsigma_asymp
        )
        buf.write(_params_comment(meta))
        buf.write("n,exact,asymp_log,ratio\n")
        for n in ns:
            ratio = asymptotics.exact_over_asymptotic(args.kind, params, n, order=trunc)
            buf.write(f"{n},{seq[n]},{asymp_fn(params, n).log_abs!r},{ratio!r}\n")
    _emit(buf.getvalue(), args)
    return EXIT_OK


def cmd_conjecture(args, cfg: dict) -> int:
    lo, hi = _parse_range(args.n_range)
    trunc = _resolve_int(args.truncation, cfg, "truncation", "MEXMOMENTS_TRUNCATION", None)
    if trunc is None:
        trunc = hi
    if trunc < hi:
        raise ValidationError(f"truncation order {trunc} is below the scan end {hi}")
    if args.scan == "logconcave":
        params = MexParams(args.s, args.mod, args.res, args.r)
        report = conjectures.scan_log_concavity(args.kind, params, lo, hi, order=trunc)
    else:
        report = conjectures.scan_bias(args.kind, args.s, args.mod, args.r, lo, hi, order=trunc)
    _emit(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n", args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
        return code
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    cfg: dict[str, str] = {}
    try:
        if args.config:
            cfg = read_config_file(args.config)
        if args.command == "stats":
            return cmd_stats(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "asymp":
            return cmd_asymp(args, cfg)
        return cmd_conjecture(args, cfg)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
