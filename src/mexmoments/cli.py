"""Command-line frontend.

Subcommands:

    stats       exact moment values by oracle and/or series extraction
    verify      oracle-vs-series equivalence sweep over a parameter grid
    asymp       exact / asymptotic ratio tables, plus residue-pair ratios
    conjecture  log-concavity and residue-bias scans (JSON reports)

Exit codes: 0 success, 1 validation error, 2 verification mismatch,
3 resource cap exceeded.

Every command computes its series exactly to the largest n it serves.
The enumeration oracle of ``stats`` and ``verify`` serves n <= 60
(``partitions.ORACLE_CAP``), a fixed limit that both commands check
against their largest n before any work; ``verify`` also refuses a grid
whose estimated work exceeds ``VERIFY_WORK_LIMIT``.  Data outputs are
deterministic: identical arguments yield byte-identical files; run
metadata (timestamp, backend, argv) goes to a ``<out>.meta.json``
sidecar instead.

Start-up is most of a short run (``verify`` at n <= 30, the oracle at
n <= 60), so importing this module loads only what those runs use.
``asymptotics`` is imported by ``cmd_asymp``, the one command that calls
it.  ``conjectures`` stays an eager import: the benchmark's tracer
(``e2ebench/tracing.py``) looks every module it wraps up in
``sys.modules`` once this module is imported, and its worker imports
``asymptotics`` itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from functools import cache, partial

from mexmoments import __version__, conjectures, qseries
from mexmoments.backend import BACKEND
from mexmoments.errors import ResourceCapError, ValidationError
from mexmoments.partitions import (
    VALID_KINDS,
    MexParams,
    _check_cap,
    _check_int,
    oracle_values,
    # Not called here: e2ebench/tracing.py's TARGETS looks these two up in
    # this module until ROADMAP item 2 moves the benchmark's spans.
    sigma_oracle,  # noqa: F401
    varsigma_oracle,  # noqa: F401
)

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


def _add_params(parser: argparse.ArgumentParser, residue: bool = True) -> None:
    """The moment family and its parameters (s, M, A, r)."""
    parser.add_argument("--kind", choices=VALID_KINDS, required=True)
    parser.add_argument("--s", type=int, default=1, help="frequency threshold (default 1)")
    parser.add_argument("--mod", type=int, default=1, help="modulus M (default 1)")
    if residue:
        parser.add_argument("--res", type=int, default=1, help="residue A (default 1)")
    parser.add_argument("--r", type=int, default=0, help="moment order (default 0)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to PATH (plus PATH.meta.json sidecar)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and shared by
    the process: ``parse_args`` reads it and changes nothing in it."""
    parser = _Parser(prog="mexmoments", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"mexmoments {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="exact moment values")
    _add_params(p_stats)
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
    _add_common(p_verify)

    p_asymp = sub.add_parser("asymp", help="exact vs asymptotic ratio tables")
    _add_params(p_asymp)
    p_asymp.add_argument("--n-list", required=True, help="comma-separated weights")
    p_asymp.add_argument("--corollary", action="store_true",
                         help="residue-pair ratio table instead of the growth-law table")
    p_asymp.add_argument("--res-prime", type=int, help="second residue A' (corollary mode)")
    _add_common(p_asymp)

    p_conj = sub.add_parser("conjecture", help="open-problem scanners")
    conj_sub = p_conj.add_subparsers(dest="scan", required=True)
    for name, help_text, residue in (
        ("logconcave", "log-concavity scan", True),
        ("bias", "residue-ordering scan", False),
    ):
        p_scan = conj_sub.add_parser(name, help=help_text)
        _add_params(p_scan, residue=residue)
        p_scan.add_argument("--range", dest="n_range", required=True, help="scan range LO:HI")
        _add_common(p_scan)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _params(args) -> MexParams:
    return MexParams(args.s, args.mod, args.res, args.r)


def _params_meta(p: MexParams) -> dict:
    """The fields of ``p`` by name, for a table's params line."""
    return {"s": p.s, "M": p.M, "A": p.A, "r": p.r}


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
    """Every comma-separated item is an integer: an empty item, the empty
    spec included, is an error, not a skip."""
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--n-list must be comma-separated integers, got {spec!r}") from exc


def _check_printable_up_front(kind: str, params: list[MexParams], n: int) -> None:
    """Refuse, before any k^r is computed, values at n' <= n that could
    have more decimal digits than int-to-str conversion accepts (0 is no
    limit): a value has at most ``qseries.value_bits`` bits, so at most
    that times log10(2) digits, rounded up."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python < 3.10.7: none
    if limit and any(qseries.value_bits(kind, p, n) * math.log10(2) > limit for p in params):
        raise ResourceCapError(
            f"a value could have more than {limit} decimal digits, the int-to-str limit "
            "(PYTHONINTMAXSTRDIGITS)"
        )


#: Characters written at a time: one ``write`` of a long text would first
#: encode all of it, a second copy as large as the text.
_WRITE_SLICE = 1 << 16


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path`` and rename it over
    ``path``, so a failed write leaves the old contents in place."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    _write_atomic(out, text)
    sidecar = {
        "argv": getattr(args, "_argv", []),
        "backend": BACKEND,
        "version": __version__,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    _write_atomic(out + ".meta.json", _dumps(sidecar) + "\n")


#: List items rendered at a time: enough to amortise the per-block work,
#: few enough that their strings stay small beside the joined text.
_JSON_BLOCK = 4096


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _json_column(values: list) -> list[str]:
    """The JSON text of each value, as a field of a list item: ints one by
    one, anything else (bools, tuples for lists) once per distinct value.
    JSON strings hold no raw newline, so every newline is layout."""
    if set(map(type, values)) == {int}:
        return list(map(int.__repr__, values))  # what json writes for an int
    text = {v: _dumps(v).replace("\n", "\n      ") for v in dict.fromkeys(values)}
    return list(map(text.__getitem__, values))


def _json_list(columns: dict) -> list[str]:
    """The pieces of the JSON text, as a value in a top-level dict, of
    the list whose item i maps each column name to the column's value i,
    rendered ``_JSON_BLOCK`` items at a time from one template."""
    size = len(next(iter(columns.values()), ()))
    if not size:
        return ["[]"]
    keys = sorted(columns)
    lines = (f"      {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
    template = "{\n" + ",\n".join(lines) + "\n    }"
    pieces = ["[\n    "]
    for start in range(0, size, _JSON_BLOCK):
        block = [_json_column(columns[k][start : start + _JSON_BLOCK]) for k in keys]
        pieces += (",\n    ".join(map(template.__mod__, zip(*block))), ",\n    ")
    pieces[-1] = "\n  ]"  # the separator after the last block closes the list
    return pieces


def _json_text(doc: dict, key: str) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, where
    ``doc[key]`` holds named columns of equal length that stand for the
    list of one dict per row, each written from one template.

    A column holds ints, or hashable values of which equal ones write the
    same JSON (tuples stand for lists, bools mix with no int).  The list
    goes into ``json.dumps``'s text of ``doc`` in place of the JSON of
    ``"\\0" + key``, written at ``key``: ``ValueError`` if another field
    writes it too.  The text is joined once, so the row strings of only
    one block are alive at a time.
    """
    placeholder = "\0" + key
    head, *tail = _dumps({**doc, key: placeholder}).split(json.dumps(placeholder))
    if len(tail) != 1:
        raise ValueError(f"another field of the document writes the placeholder {placeholder!r}")
    return "".join([head, *_json_list(doc[key]), tail[0], "\n"])


def _report_text(report: conjectures.ScanReport) -> str:
    """The JSON text of ``report.to_json_dict()``.  An ordering entry's
    fields are its JSON keys and its tuples write as JSON lists, so the
    ordering goes to the emitter as one column per field, without
    per-entry dicts and lists."""
    doc = conjectures.ScanReport(report.params, report.n_lo, report.n_hi, report.violations,
                                 report.equalities, (), report.stabilized_at).to_json_dict()
    doc["ordering"] = dict(zip(conjectures.OrderingEntry._fields, zip(*report.ordering)))
    return _json_text(doc, "ordering")


def _report_text_bytes(M: int, count: int) -> int:
    """An upper bound on the bytes ``_report_text`` holds at once for a
    bias report of ``count`` entries over M residues: 64 KiB for the
    encoder and the document (31 KB measured), and a byte per character
    of each entry, at most 100 besides its residues, each 10 plus its
    digits in perm and 12 plus its digits in ties, and 21 per tie group
    (at most M//2).  The text is held twice while it is joined, and one
    block of ``_JSON_BLOCK`` entries twice more (its fields and entries)."""
    digits = M.bit_length() * 31 // 100 + 1  # at least len(str(M)), without str
    entry = 100 + (22 + 2 * digits) * M + 21 * (M // 2)
    return 2**16 + 2 * (count + min(count, _JSON_BLOCK)) * entry


def _table_text(meta: dict, columns: dict, fmt: str) -> str:
    """The "csv" or "json" text of the table whose columns, in CSV order,
    map each name to one value per row.  CSV: a ``# params: meta`` line,
    the names, then one line per row (ints and floats as ``str`` writes
    them, bools as true/false); a column may be an iterator, read as its
    rows are written.  JSON: ``{"params": meta, "rows": [a dict per row]}``.
    """
    if fmt == "json":
        return _json_text({"params": meta, "rows": columns}, "rows")
    buf = io.StringIO()
    buf.write(f"# params: {json.dumps(meta, sort_keys=True)}\n")
    buf.write(",".join(columns) + "\n")
    template = ",".join(["%s"] * len(columns)) + "\n"
    for row in zip(*columns.values()):
        # str writes ints and floats in lower case, so lowering the line
        # only turns True and False into true and false.
        buf.write((template % row).lower())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args) -> int:
    params = _params(args)
    if args.n is not None:
        ns = range(args.n, args.n + 1)
    else:
        lo, hi = _parse_range(args.n_range)
        ns = range(lo, hi + 1)
    if ns[0] < 0:
        raise ValidationError("n must be >= 0")
    need_oracle = args.method in ("oracle", "both")
    need_gf = args.method in ("gf", "both")
    if need_oracle:
        _check_cap(ns[-1])
    _check_printable_up_front(args.kind, [params], ns[-1])
    gf = qseries.moment_sequence(args.kind, params, ns[-1]).values[ns[0] :] if need_gf else None
    oracle = oracle_values(args.kind, params, ns[-1])[ns[0] :] if need_oracle else None
    if args.method == "both":
        match = [a == b for a, b in zip(oracle, gf)]
        columns = {"n": ns, "oracle": oracle, "gf": gf, "match": match}
    else:
        name = "value" if args.format == "csv" else args.method  # the one value column
        columns = {"n": ns, name: gf if need_gf else oracle}
    meta = {"kind": args.kind, **_params_meta(params), "method": args.method, "truncation": ns[-1]}
    _emit(_table_text(meta, columns, args.format), args)
    if not all(columns.get("match", ())):
        sys.stderr.write("stats: oracle and series extraction disagree\n")
        return EXIT_MISMATCH
    return EXIT_OK


#: Work units of one sequence and of one value, on top of the value's
#: bits, in ``verify_work``.  One unit is about the time of one bit of
#: value, 2 ns on a 2-core machine; a sequence costs about 15 us there
#: (22 us when set, with each sequence stored) and a value about 1 us.
SEQUENCE_WORK = 10_000
VALUE_WORK = 500

#: Work units of one histogram table walk, per partition of the largest
#: n: an upper estimate, since a walk to n = 60 (p(60) = 966,467) took
#: 0.7-2.8 ms on a 2-core machine, against the 19 ms it is charged.
WALK_WORK = 10

#: Most work ``verify`` starts: its largest grid along each of moduli,
#: thresholds and r runs in 13-20 s on a 2-core machine, at 16-17 MB
#: resident.  A larger limit would admit --max-r 6000 (25 s).
VERIFY_WORK_LIMIT = 10**10


def verify_work(max_mod: int, max_s: int, max_r: int, max_n: int) -> int:
    """An upper estimate, from the bounds alone, of the work of the
    verify grid: ``SEQUENCE_WORK`` per sequence, ``VALUE_WORK`` per value,
    and the value's bits, at most log2 p(max_n) + r log2(max_n + 1) for
    moment order r, each log rounded up to a bit length; and
    ``WALK_WORK`` times p(max_n) per histogram table, one per s and M up
    to max_n + 1, where ``partitions.mex_value_histogram`` caps them.  The
    arithmetic is exact, so bounds of any size give a number.  ``max_n``
    is at most ``partitions.ORACLE_CAP``."""
    triples = max_mod * (max_mod + 1) // 2 * max_s  # (s, M, A) per kind
    orders = max_r + 1
    pn = qseries.partition_numbers(max_n)[max_n]
    column_bits = orders * pn.bit_length() + max_n.bit_length() * max_r * orders // 2
    values = max_n + 1
    tables = min(max_s, values) * min(max_mod, values)
    return (2 * triples * (orders * (SEQUENCE_WORK + values * VALUE_WORK) + values * column_bits)
            + tables * WALK_WORK * pn)


def cmd_verify(args) -> int:
    for flag, value, low in (("--max-mod", args.max_mod, 1), ("--max-s", args.max_s, 1),
                             ("--max-r", args.max_r, 0), ("--max-n", args.max_n, 0)):
        _check_int(flag, value, low)
    _check_cap(args.max_n)
    work = verify_work(args.max_mod, args.max_s, args.max_r, args.max_n)
    if work > VERIFY_WORK_LIMIT:
        raise ResourceCapError(
            f"the verify grid needs about 10^{math.log10(work):.2f} work units, above the "
            f"limit 10^{math.log10(VERIFY_WORK_LIMIT):.0f}"
        )
    # Threshold outermost: the oracle reads the histogram table of (s, step)
    # for the kind's chain (MexParams._chain), s and M capped at max_n + 1,
    # so each table serves a run of consecutive rows and is walked once.
    grid = (
        MexParams(s, M, A, r)
        for s in range(1, args.max_s + 1)
        for M in range(1, args.max_mod + 1)
        for A in range(1, M + 1)
        for r in range(0, args.max_r + 1)
    )
    checked = 0
    sequences = 0
    # Each sequence is read once, so none goes to the sequence store.
    routes = (("sigma", qseries.sigma_gf_coeffs), ("varsigma", qseries.varsigma_gf_coeffs))
    for params in grid:
        for kind, gf_coeffs in routes:
            seq = gf_coeffs(params, args.max_n)
            sequences += 1
            oracle = oracle_values(kind, params, args.max_n)
            if seq.values == tuple(oracle):
                checked += len(oracle)
                continue
            # Only a mismatch is walked value by value, to report the first.
            n = next(n for n, (got, want) in enumerate(zip(seq.values, oracle)) if got != want)
            sys.stderr.write(
                f"MISMATCH kind={kind} s={params.s} M={params.M} A={params.A} "
                f"r={params.r} n={n}: series={seq.values[n]} oracle={oracle[n]}\n"
            )
            _emit(f"checked {checked + n + 1} values across {sequences} sequences; 1 mismatch\n",
                  args)
            return EXIT_MISMATCH
    _emit(f"checked {checked} values across {sequences} sequences; 0 mismatches\n", args)
    return EXIT_OK


def cmd_asymp(args) -> int:
    from mexmoments import asymptotics  # only this command uses it (module docstring)

    params = _params(args)
    ns = _parse_n_list(args.n_list)
    if min(ns) < 1:
        raise ValidationError("asymp requires n >= 1")
    if args.corollary and args.res_prime is None:
        raise ValidationError("corollary mode needs --res-prime")
    if args.res_prime is not None and not args.corollary:
        raise ValidationError("--res-prime is read only with --corollary")
    trunc = max(ns)
    params_b = params
    if args.corollary:
        params_b = MexParams(params.s, params.M, args.res_prime, params.r)
    _check_printable_up_front(args.kind, [params, params_b], trunc)
    value = partial(qseries.moment_value, args.kind)
    exact = [value(params, n) for n in ns]
    # The float columns are maps, computed as their rows are written.
    if args.corollary:
        ratio = partial(asymptotics.corollary_ratio, args.kind, params, args.res_prime)
        columns = {"exact_a": exact, "exact_a_prime": [value(params_b, n) for n in ns]}
    else:
        asymp_fn = asymptotics.sigma_asymp if args.kind == "sigma" else asymptotics.varsigma_asymp
        ratio = partial(asymptotics.exact_over_asymptotic, args.kind, params)
        columns = {"exact": exact, "asymp_log": map(partial(asymp_fn, params), ns)}
    extra = {"A_prime": args.res_prime} if args.corollary else {}
    meta = {"kind": args.kind, **_params_meta(params), "truncation": trunc, **extra}
    try:
        text = _table_text(meta, {"n": ns, **columns, "ratio": map(ratio, ns)}, "csv")
    except ZeroDivisionError as exc:  # a corollary row whose denominator is zero
        raise ValidationError(str(exc)) from exc
    _emit(text, args)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if args.scan == "logconcave":
        report = conjectures.scan_log_concavity(args.kind, _params(args), lo, hi)
    else:
        report = conjectures.scan_bias(args.kind, args.s, args.mod, args.r, lo, hi)
    _emit(_report_text(report), args)
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
    try:
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "asymp":
            return cmd_asymp(args)
        return cmd_conjecture(args)
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
