"""CLI contract tests: row formats, exit codes, determinism, precedence."""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexmoments import MexParams, cli, partition_numbers, partitions
from mexmoments.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_both_match_row(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--kind", "sigma", "--s", "1", "--mod", "2", "--res", "1",
        "--r", "1", "--n", "4", "--method", "both",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# params: ")
    assert lines[1] == "n,oracle,gf,match"
    assert lines[2] == "4,5,5,true"


def test_stats_varsigma_weight_zero(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--kind", "varsigma", "--r", "0", "--n", "0",
        "--res", "2", "--mod", "3",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["n,value", "0,1"]


def test_stats_range_rows(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--kind", "sigma", "--mod", "2", "--range", "0:4",
        "--method", "oracle",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["n,value", "0,1", "1,0", "2,1", "3,2", "4,3"]


def test_stats_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--kind", "sigma", "--mod", "2", "--n", "4",
        "--method", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["method"] == "both"
    assert doc["rows"] == [{"n": 4, "oracle": 3, "gf": 3, "match": True}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("method", ["gf", "oracle", "both"])
@pytest.mark.parametrize("kind", ["sigma", "varsigma"])
def test_stats_n_prints_what_the_one_point_range_prints(capsys, kind, method, fmt):
    # --n and --range both read a column of oracle_values and the series
    # from n = 0: both must exit and print alike.
    argv = ("stats", "--kind", kind, "--s", "2", "--mod", "3", "--res", "2", "--r", "2",
            "--method", method, "--format", fmt)
    for x in (0, 7, 60):
        single = run_cli(capsys, *argv, "--n", str(x))
        assert single[0] == 0
        assert single == run_cli(capsys, *argv, "--range", f"{x}:{x}"), x


def test_stats_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "stats", "--kind", "sigma", "--res", "5", "--mod", "3", "--n", "1")
    assert code == 1
    assert "residue" in err


def test_stats_unknown_flag_exits_one(capsys):
    code, _, _ = run_cli(capsys, "stats", "--bogus", "1")
    assert code == 1


def test_stats_oracle_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "stats", "--kind", "sigma", "--n", "70", "--method", "oracle",
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv, largest", [
    (("stats", "--n", "10"), 10),
    (("stats", "--range", "3:17"), 17),
    (("asymp", "--n-list", "64,16"), 64),
])
def test_params_record_the_largest_n_as_truncation(capsys, argv, largest):
    code, out, _ = run_cli(capsys, *argv, "--kind", "sigma")
    assert code == 0
    assert json.loads(out.splitlines()[0][len("# params: "):])["truncation"] == largest


def test_stats_series_order_limit_flag(capsys):
    for flags in (("--n", "10000000"), ("--range", "0:10000000")):
        code, out, err = run_cli(capsys, "stats", "--kind", "sigma", *flags)
        assert code == 3
        assert out == ""
        assert "above the limit" in err


def test_conjecture_bias_modulus_zero_is_a_validation_error(capsys):
    code, out, err = run_cli(
        capsys, "conjecture", "bias", "--kind", "sigma", "--mod", "0", "--range", "1:5",
    )
    assert code == 1
    assert out == ""
    assert "M must be >= 1, got 0" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--max-n", "5", "--truncation", "1"), "unrecognized arguments: --truncation"),
    (("asymp", "--kind", "sigma", "--n-list", "100", "--oracle-cap", "3"),
     "unrecognized arguments: --oracle-cap"),
    (("conjecture", "logconcave", "--kind", "sigma", "--range", "1:10", "--oracle-cap", "3"),
     "unrecognized arguments: --oracle-cap"),
    (("conjecture", "bias", "--kind", "sigma", "--range", "1:10", "--oracle-cap", "3"),
     "unrecognized arguments: --oracle-cap"),
    (("asymp", "--kind", "sigma", "--mod", "2", "--n-list", "50", "--res-prime", "2"),
     "error: --res-prime is read only with --corollary\n"),
    (("stats", "--kind", "sigma", "--n", "301", "--method", "oracle", "--oracle-cap", "400"),
     "unrecognized arguments: --oracle-cap 400"),
    (("verify", "--max-n", "9", "--oracle-cap", "8"), "unrecognized arguments: --oracle-cap 8"),
], ids=["verify-truncation", "asymp-oracle-cap", "logconcave-oracle-cap", "bias-oracle-cap",
        "asymp-res-prime", "stats-oracle-cap", "verify-oracle-cap"])
def test_flags_a_command_would_ignore_are_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


def _options(parser) -> list[str]:
    return sorted(opt for action in parser._actions for opt in action.option_strings)


def _subparsers(parser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_option_surface():
    # Every option of every command, so that adding a knob takes a test edit.
    commands = _subparsers(cli.build_parser())
    scans = _subparsers(commands["conjecture"])
    surface = {name: _options(commands[name]) for name in ("stats", "verify", "asymp")}
    surface.update({f"conjecture {name}": _options(scans[name]) for name in scans})
    params = ["--kind", "--mod", "--r", "--res", "--s"]
    assert surface == {
        "stats": sorted(["-h", "--help", *params, "--n", "--range", "--method", "--format",
                         "--out"]),
        "verify": sorted(["-h", "--help", "--max-mod", "--max-s", "--max-r", "--max-n",
                          "--out"]),
        "asymp": sorted(["-h", "--help", *params, "--n-list", "--corollary", "--res-prime",
                         "--out"]),
        "conjecture logconcave": sorted(["-h", "--help", *params, "--range", "--out"]),
        "conjecture bias": sorted(["-h", "--help", "--kind", "--mod", "--r", "--s", "--range",
                                   "--out"]),
    }


def test_one_parser_serves_every_call_and_parsing_leaves_it_as_built(capsys):
    # build_parser is cached, so every main call of a process parses with
    # one parser: a parse, failed or not, must leave nothing behind in it.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    argvs = [
        ["stats", "--kind", "varsigma", "--mod", "3", "--res", "2", "--n", "7",
         "--method", "both", "--format", "json"],
        ["verify", "--max-mod", "2", "--max-n", "5"],
        ["stats", "--kind", "sigma", "--range", "0:4"],
        ["asymp", "--kind", "sigma", "--n-list", "8,16", "--corollary", "--res-prime", "2"],
        ["conjecture", "bias", "--kind", "sigma", "--mod", "4", "--range", "1:9"],
        ["conjecture", "logconcave", "--kind", "varsigma", "--range", "2:9", "--out", "x"],
        ["verify"],
    ]
    for argv in argvs + argvs[::-1]:
        with pytest.raises(SystemExit):
            parser.parse_args(["stats", "--kind", "sigma", "--n", "1", "--range", "0:1"])
        assert parser.parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv), argv
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    out = subprocess.run(
        [sys.executable, "-c", "from mexmoments import cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


def test_verify_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-mod", "2", "--max-s", "2", "--max-r", "1", "--max-n", "10",
    )
    assert code == 0
    assert "0 mismatches" in out


def test_verify_trivial_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "0", "--max-mod", "1",
                           "--max-s", "1", "--max-r", "0")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_injected_mismatch_detected(capsys, monkeypatch):
    wrong_at = ("varsigma", MexParams(1, 2, 2, 0), 6)
    real = cli.oracle_values

    def off_by_one(kind, p, N):
        return [v + ((kind, p, n) == wrong_at) for n, v in enumerate(real(kind, p, N))]

    monkeypatch.setattr(cli, "oracle_values", off_by_one)
    code, out, err = run_cli(
        capsys, "verify", "--max-mod", "2", "--max-s", "1", "--max-r", "0", "--max-n", "6",
    )
    assert code == 2
    # 5 whole sequences of n = 0..6 before it, then n = 0..6 of this one
    assert err == "MISMATCH kind=varsigma s=1 M=2 A=2 r=0 n=6: series=11 oracle=12\n"
    assert out == "checked 42 values across 6 sequences; 1 mismatch\n"


def test_default_verify_walks_each_table_once(capsys, kernel_calls, monkeypatch):
    # Each sequence reads one column of the table of (s, M) at n = 30, so
    # one walk per (s, M) serves n = 0..30, for s = 1..3 and M = 1..4.
    # The grid runs the threshold outermost, so this holds even when the
    # store keeps only the two tables a row reads: at n = 30 the sigma
    # table (s, 1) has 992 cells and the largest, (s, 4), has 1,116.
    for limit in (partitions.STORE_CELL_LIMIT, 2200):
        monkeypatch.setattr(partitions, "_tables", partitions.Store(limit))
        kernel_calls.clear()
        assert run_cli(capsys, "verify")[0] == 0
        assert sorted(kernel_calls) == [(30, s, M) for s in (1, 2, 3) for M in (1, 2, 3, 4)]


def test_oracle_range_walks_once(capsys, kernel_calls):
    code, out, _ = run_cli(capsys, "stats", "--kind", "sigma", "--mod", "2", "--r", "1",
                           "--range", "0:60", "--method", "oracle")
    assert code == 0 and len(out.splitlines()) == 63
    assert kernel_calls == [(60, 1, 1)]


@pytest.mark.parametrize("mod, hi", [("1000", "14"), ("1000000000", "40")])
def test_oracle_range_with_a_huge_modulus_walks_one_table(capsys, kernel_calls, mod, hi):
    # s and M are capped once at the range's top n + 1: one table serves
    # every row, not one table per capped modulus min(M, n + 1).
    code, out, _ = run_cli(capsys, "stats", "--kind", "varsigma", "--mod", mod, "--res", "7",
                           "--r", "1", "--range", f"0:{hi}", "--method", "oracle")
    assert code == 0 and len(out.splitlines()) == int(hi) + 3
    assert kernel_calls == [(int(hi), 1, int(hi) + 1)]


@pytest.fixture
def oracle_calls(monkeypatch):
    """The arguments of every oracle call the CLI makes: ``(params, n)``
    per n, ``(kind, params, N)`` per column."""
    calls = []
    for name in ("sigma_oracle", "varsigma_oracle", "oracle_values"):
        def counted(*args, real=getattr(cli, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_oracle_calls_sees_every_oracle_request(capsys, oracle_calls):
    # The tests that assert no oracle work ran rest on this.
    p = MexParams(1, 1, 1, 0)
    for argv in (("stats", "--kind", "sigma", "--method", "oracle", "--range", "0:3"),
                 ("stats", "--kind", "varsigma", "--method", "both", "--n", "3"),
                 ("verify", "--max-mod", "1", "--max-s", "1", "--max-r", "0", "--max-n", "2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert oracle_calls == [("sigma", p, 3), ("varsigma", p, 3), ("sigma", p, 2),
                            ("varsigma", p, 2)]


@pytest.mark.parametrize("argv", [
    ("stats", "--kind", "sigma", "--method", "oracle", "--range", "0:61"),
    ("stats", "--kind", "varsigma", "--method", "both", "--range", "0:61"),
    ("verify", "--max-n", "61"),
])
def test_oracle_cap_is_checked_before_any_work(capsys, oracle_calls, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "exceeds cap" in err
    assert oracle_calls == []


@pytest.mark.parametrize("argv", [
    ("--max-mod", "2000", "--max-s", "1", "--max-r", "0", "--max-n", "1"),
    ("--max-s", "100000000", "--max-mod", "1", "--max-r", "0", "--max-n", "1"),
    ("--max-mod", "1", "--max-s", "1", "--max-r", "6000", "--max-n", "60"),
    ("--max-mod", "9" * 4000, "--max-s", "9" * 4000, "--max-r", "9" * 4000),
    ("--max-mod", "62", "--max-s", "61", "--max-r", "0", "--max-n", "60"),
], ids=["moduli", "thresholds", "r", "past-float-range", "walks"])
def test_verify_refuses_a_grid_of_minutes_before_any_work(capsys, oracle_calls, product_calls,
                                                          argv):
    # The first three ran for 15 s or more (the r grid 27 s at 332 MB)
    # before the grid's work was estimated up front; the estimate of the
    # fourth is far past float range.  The last walks 3,721 tables
    # (3.5 s in all) on top of 119,133 triples per kind, whose estimate
    # alone stays under the limit.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "above the limit" in err
    assert product_calls == [] and oracle_calls == []


@pytest.mark.parametrize("flag, low", [
    ("--max-mod", 1), ("--max-s", 1), ("--max-r", 0), ("--max-n", 0),
])
def test_verify_refuses_each_bound_below_its_domain(capsys, kernel_calls, product_calls, flag,
                                                    low):
    code, out, err = run_cli(capsys, "verify", flag, str(low - 1))
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be >= {low}, got {low - 1}\n"
    assert kernel_calls == [] and product_calls == []


def test_verify_leaves_the_sequence_store_as_it_found_it(capsys, product_calls):
    # verify reads each sequence once, so it computes every one afresh,
    # a stored one included, and stores none.
    stored = cli.qseries.moment_sequence("sigma", MexParams(1, 1, 1, 0), 5)
    product_calls.clear()
    entries = list(cli.qseries._store.entries.items())
    total = cli.qseries._store.total
    code, out, _ = run_cli(capsys, "verify", "--max-mod", "2", "--max-s", "2", "--max-r", "1",
                           "--max-n", "5")
    assert (code, out) == (0, "checked 144 values across 24 sequences; 0 mismatches\n")
    assert len(product_calls) == 24
    assert list(cli.qseries._store.entries.items()) == entries
    assert cli.qseries._store.total == total
    assert entries[0][1][2] is stored


@pytest.mark.parametrize("flags", [(), ("--corollary", "--res-prime", "2")],
                         ids=["exact", "corollary"])
def test_asymp_runs_no_product_and_stores_nothing(capsys, product_calls, flags):
    # Each exact value is a dot product over the support.
    code, out, _ = run_cli(capsys, "asymp", "--kind", "sigma", "--mod", "2", "--r", "1",
                           "--n-list", "512,4096", *flags)
    assert code == 0
    assert product_calls == [] and not cli.qseries._store.entries
    want = cli.qseries.sigma_gf_coeffs(MexParams(1, 2, 1, 1), 4096)
    assert [int(row.split(",")[1]) for row in out.splitlines()[2:]] == [want[512], want[4096]]


def test_verify_work_limit_admits_each_axis_up_to_its_largest_grid():
    # The grids timed when the limit was set: the largest admitted along
    # moduli, thresholds and r, and the first refused past each.  Counting
    # the table walks moved the r edge at n = 60 down from 5113.
    for admitted, refused in [((952, 1, 0, 1), (953, 1, 0, 1)),
                              ((1, 454462, 0, 1), (1, 454463, 0, 1)),
                              ((1, 1, 5111, 60), (1, 1, 5112, 60))]:
        assert cli.verify_work(*admitted) <= cli.VERIFY_WORK_LIMIT < cli.verify_work(*refused)
    assert cli.verify_work(4, 3, 2, 30) < cli.VERIFY_WORK_LIMIT / 1000  # the default grid
    # One walk per table, s and M capped at max_n + 1: 61 * 61 tables.
    assert cli.verify_work(62, 61, 0, 60) > cli.VERIFY_WORK_LIMIT


def test_stats_huge_threshold_is_served_by_the_oracle(capsys, kernel_calls):
    # Every s > n gives the histograms of s = n + 1, so the kernel is asked
    # for that table.
    code, out, err = run_cli(capsys, "stats", "--kind", "varsigma", "--s", "3000000000",
                             "--mod", "2", "--n", "5", "--method", "both")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "5,7,7,true"
    assert kernel_calls == [(5, 6, 2)]


TOO_LONG_TO_PRINT = [
    ("stats", "--kind", "varsigma", "--r", "5000", "--n", "100"),
    ("stats", "--kind", "varsigma", "--r", "5000", "--n", "100", "--format", "json"),
    ("stats", "--kind", "varsigma", "--r", "8000", "--n", "10", "--method", "oracle"),
    ("stats", "--kind", "varsigma", "--r", "8000", "--n", "10", "--method", "oracle",
     "--format", "json"),
    ("stats", "--kind", "sigma", "--r", "8000", "--n", "10", "--method", "both"),
    ("asymp", "--kind", "varsigma", "--r", "5000", "--n-list", "50,100"),
    ("asymp", "--kind", "varsigma", "--mod", "2", "--res", "1", "--res-prime", "2",
     "--r", "5000", "--n-list", "100", "--corollary"),
    # n = 1 has a zero denominator, but the value too long to print at
    # n = 100 is refused before any ratio.
    ("asymp", "--kind", "sigma", "--mod", "5", "--res", "1", "--res-prime", "5",
     "--r", "4128", "--n-list", "1,100", "--corollary"),
    # An r past float range still counts as more bits than print.
    ("stats", "--kind", "sigma", "--r", "1" + "0" * 400, "--n", "10", "--method", "oracle"),
]


@pytest.fixture
def set_int_str_limit():
    """sys.set_int_max_str_digits, with the limit restored afterwards."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv", TOO_LONG_TO_PRINT)
def test_values_too_long_to_print_are_a_resource_cap(capsys, tmp_path, set_int_str_limit, argv):
    limit = 4300  # the CPython default; every request has a longer value
    set_int_str_limit(limit)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        f"resource cap: a value could have more than {limit} decimal digits, "
        "the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n"
    )
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(path))[0] == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("stats", "--kind", "varsigma", "--r", "10000000", "--n", "300"),
    ("stats", "--kind", "sigma", "--r", "10000000", "--range", "0:10", "--method", "both"),
    ("asymp", "--kind", "sigma", "--mod", "2", "--res", "1", "--res-prime", "2",
     "--r", "10000000", "--n-list", "300", "--corollary"),
])
def test_huge_r_is_refused_before_any_work(
    capsys, monkeypatch, oracle_calls, set_int_str_limit, argv
):
    series_calls = []
    monkeypatch.setattr(cli.qseries, "moment_sequence", lambda *a: series_calls.append(a))
    set_int_str_limit(4300)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "more than 4300 decimal digits" in err
    assert series_calls == [] and oracle_calls == []


@pytest.mark.parametrize("argv", [
    ("conjecture", "bias", "--kind", "sigma", "--mod", "4", "--r", "10000000", "--range", "1:300"),
    ("stats", "--kind", "varsigma", "--r", "10000000", "--range", "0:300"),
    # Both routes: the series meets its budget before any oracle weight k^r.
    ("stats", "--kind", "varsigma", "--r", "100000000", "--range", "0:60", "--method", "both"),
])
def test_coefficient_budget_is_checked_before_any_work(
    capsys, product_calls, oracle_calls, set_int_str_limit, argv
):
    # With no int-to-str limit the up-front digit check passes, so the
    # stats requests meet the coefficient budget, not the print limit.
    set_int_str_limit(0)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "coefficient bytes, above the limit 268435456" in err
    assert product_calls == [] and oracle_calls == []


def test_coefficient_budget_admits_large_r(capsys, product_calls):
    code, out, _ = run_cli(capsys, "conjecture", "bias", "--kind", "sigma", "--mod", "4",
                           "--r", "100000", "--range", "1:300")
    assert code == 0
    assert len(json.loads(out)["ordering"]) == 300
    assert len(product_calls) == 4


def test_bias_scan_budget_is_checked_before_any_work(capsys, product_calls):
    # M = 200 to 20000 peaked at 459-492 MB resident when it ran, over the
    # 256 MiB limit.
    for M in (2000, 200):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "conjecture", "bias", "--kind", "varsigma",
                                 "--mod", str(M), "--r", "1", "--range", "1:20000")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"{M} varsigma sequence(s) to order 20000 could need" in err
    assert product_calls == []


def test_varsigma_oracle_with_a_huge_modulus_stays_small():
    # Run under a 1 GiB address-space limit: a kernel that built one row
    # per residue would fail here instead of exhausting the machine.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mexmoments.cli", "stats", "--kind", "varsigma",
         "--mod", "1000000000", "--res", "7", "--method", "both", "--range", "0:40"],
        capture_output=True, text=True, preexec_fn=limit,
    )
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == 41
    assert all(row.endswith(",true") for row in rows)


def test_bias_scan_budget_admits_two_hundred_residues(capsys, product_calls):
    code, out, _ = run_cli(capsys, "conjecture", "bias", "--kind", "varsigma", "--mod", "200",
                           "--r", "1", "--range", "1:300")
    assert code == 0
    assert len(json.loads(out)["ordering"]) == 300
    assert len(product_calls) == 200


# A child that runs one command line under a byte limit and prints its
# exit code and its peak resident kB before and after the request.  A
# process keeps the ru_maxrss of the one that started it across exec (the
# test process, here), so the request runs in a fork, which starts from
# this small one's.
RSS_CHILD = """
import os, resource, sys
from mexmoments import cli, qseries
qseries.STORE_BYTE_LIMIT = qseries._store.limit = int(sys.argv[1])
if os.fork() == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = cli.main(sys.argv[2:])
    print(code, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


@pytest.mark.parametrize("limit, kind, M, r, n_hi, admitted", [
    # Admitted before its ordering and text were counted: 317.6 MB resident.
    (2**28, "varsigma", 128, 1, 20000, False),
    # Under a 16 MiB limit, the same overrun in under a second: M sequences
    # to 60 fit the limit, their ordering and text do not.
    (2**24, "varsigma", 5600, 1, 60, False),
    # The largest admitted scans of their kind, near the limit.
    (2**24, "varsigma", 980, 1, 60, True),
    (2**24, "sigma", 4, 1, 12378, True),
    (2**24, "sigma", 1, 1, 26640, True),
    # Ties on most rows: sigma with r = 0 is 0 for every mex past the largest.
    (2**24, "sigma", 40, 0, 1000, True),
])
def test_bias_scan_stays_within_the_byte_limit(tmp_path, limit, kind, M, r, n_hi, admitted):
    # A fresh child per request: its peak resident memory grows by at most
    # the limit, plus what the bound leaves out: the p(n) table (bounded by
    # the sequence of varsigma r = 0) and 4 MiB for the product's packed
    # copies and the allocator.  Admitted scans near a 16 MiB limit grew
    # 0.77-0.99 of it without the allowance.
    argv = ["conjecture", "bias", "--kind", kind, "--mod", str(M), "--r", str(r),
            "--range", f"1:{n_hi}", "--out", str(tmp_path / "report.json")]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, str(limit), *argv],
                          capture_output=True, text=True)
    code, before, after = map(int, proc.stdout.split())
    allowance = cli.qseries.sequence_bytes("varsigma", MexParams(1, 1, 1, 0), n_hi) + 2**22
    assert (after - before) * 1024 <= limit + allowance, proc.stderr
    assert code == (0 if admitted else 3), proc.stderr
    if not admitted:
        assert time.perf_counter() - start < 1.0
        assert "coefficient bytes, above the limit" in proc.stderr


@pytest.mark.parametrize("method, message", [("gf", "above the limit"), ("oracle", "exceeds cap")])
def test_huge_n_still_meets_its_cap_at_once(capsys, method, message):
    # The up-front digit check runs first and must not walk up to n.
    code, out, err = run_cli(capsys, "stats", "--kind", "sigma", "--r", "3",
                             "--n", str(10**30), "--method", method)
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize("method", ["gf", "oracle"])
def test_longest_printable_value_is_not_refused(capsys, set_int_str_limit, method):
    # varsigma at n = 0 is exactly A^r: 10^4299 has 4300 digits, 10^4300 one more.
    set_int_str_limit(4300)
    argv = ("stats", "--kind", "varsigma", "--mod", "10", "--res", "10", "--n", "0",
            "--method", method)
    code, out, _ = run_cli(capsys, *argv, "--r", "4299")
    assert code == 0
    assert out.splitlines()[2] == "0," + "1" + "0" * 4299
    assert run_cli(capsys, *argv, "--r", "4300")[0] == 3


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("sigma", "varsigma")), st.integers(1, 3), st.integers(1, 6), st.data(),
       st.integers(0, 2000), st.integers(1, 60), st.sampled_from(("gf", "oracle", "both", "asymp")))
def test_printed_values_have_at_most_the_digits_the_bound_allows(kind, s, M, data, r, n, how):
    # With the least int-to-str limit, a request either prints, every value
    # within the digits of qseries.value_bits, or is refused by that bound
    # up front: no formatting ValueError escapes.
    p = MexParams(s, M, data.draw(st.integers(1, M), label="A"), r)
    argv = ["--kind", kind, "--s", str(s), "--mod", str(M), "--res", str(p.A), "--r", str(r)]
    if how == "asymp":
        argv = ["asymp", *argv, "--n-list", f"{n // 2 + 1},{n}"]
    else:
        argv = ["stats", *argv, "--range", f"{n // 2}:{n}", "--method", how]
    digits = math.ceil(cli.qseries.value_bits(kind, p, n) * math.log10(2))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
    finally:
        sys.set_int_max_str_digits(before)
    if code == 3:
        assert digits > 640 and out.getvalue() == ""
        return
    assert code == 0 and digits <= 640
    rows = [row.split(",") for row in out.getvalue().splitlines()[2:]]
    printed = [v for row in rows for v in row[1:] if v.isdigit()]
    assert printed and max(map(len, printed)) <= digits


def test_int_str_limit_zero_means_no_limit(capsys, set_int_str_limit):
    set_int_str_limit(0)
    code, out, _ = run_cli(
        capsys, "stats", "--kind", "varsigma", "--r", "8000", "--n", "10", "--method", "both",
    )
    assert code == 0
    _, oracle, gf, match = out.splitlines()[2].split(",")
    assert oracle == gf and match == "true"
    assert len(gf) > 4300


def test_huge_exact_values_survive_csv_and_json(capsys):
    argv = ("stats", "--kind", "varsigma", "--r", "0", "--range", "0:400")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.splitlines()[2:]] == partition_numbers(400)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert [row["gf"] for row in json.loads(out)["rows"]] == partition_numbers(400)


def test_asymp_table(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--kind", "sigma", "--s", "1", "--mod", "2", "--res", "1",
        "--r", "1", "--n-list", "64,128,256",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,exact,asymp_log,ratio"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["64", "128", "256"]
    for r in rows:
        assert str(int(r[1])) == r[1]  # exact decimal integer
        float(r[2])
        assert 0.5 < float(r[3]) < 2.0
    # deviation from 1 shrinks along the list
    devs = [abs(float(r[3]) - 1.0) for r in rows]
    assert devs[2] < devs[0]


def test_asymp_corollary_same_residue(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--kind", "sigma", "--mod", "3", "--res", "2",
        "--res-prime", "2", "--r", "0", "--n-list", "10,20", "--corollary",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,exact_a,exact_a_prime,ratio"
    assert [line.split(",")[3] for line in lines[2:]] == ["1.0", "1.0"]


def test_asymp_corollary_needs_res_prime(capsys):
    code, _, err = run_cli(
        capsys, "asymp", "--kind", "sigma", "--mod", "3", "--res", "1",
        "--r", "0", "--n-list", "10", "--corollary",
    )
    assert code == 1
    assert "res-prime" in err


def test_asymp_rejects_bad_n_list(capsys):
    for spec in ("5,x", "0", "-1", "1,,2", "64,", ",64", ""):
        code, _, _ = run_cli(capsys, "asymp", "--kind", "sigma", "--n-list", spec)
        assert code == 1


def test_asymp_row_prints_inf_past_float_range(capsys):
    # M = 10^400 puts the growth law near e^-921, so the ratio saturates.
    code, out, _ = run_cli(
        capsys, "asymp", "--kind", "sigma", "--mod", str(10**400), "--res", "1",
        "--r", "0", "--n-list", "10,20",
    )
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[2:]] == ["inf", "inf"]


def test_asymp_corollary_prints_inf_past_float_range(capsys):
    # The A = 2 value at n = 6 is about 2^3000 times the A' = 1 value.
    code, out, err = run_cli(
        capsys, "asymp", "--kind", "sigma", "--mod", "2", "--res", "2", "--res-prime", "1",
        "--r", "3000", "--n-list", "6", "--corollary",
    )
    assert (code, err) == (0, "")
    assert [line.split(",")[3] for line in out.splitlines()[2:]] == ["inf"]


def test_conjecture_logconcave_json(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "logconcave", "--kind", "varsigma", "--r", "0",
        "--range", "26:200",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["range"] == [26, 200]
    assert doc["stabilized_at"] == 26


def test_conjecture_bias_trivial_and_ties(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "bias", "--kind", "sigma", "--mod", "1", "--range", "1:5",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(entry["perm"] == [1] for entry in doc["ordering"])

    code, out, _ = run_cli(
        capsys, "conjecture", "bias", "--kind", "varsigma", "--mod", "3",
        "--r", "0", "--range", "1:8",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(entry["ties"] == [[1, 2, 3]] for entry in doc["ordering"])


@pytest.mark.parametrize("argv", [
    ("stats", "--kind", "sigma", "--mod", "2", "--r", "1", "--range", "0:4200", "--method", "gf"),
    ("stats", "--kind", "varsigma", "--mod", "3", "--res", "2", "--r", "2", "--range", "5:40",
     "--method", "oracle"),
    ("stats", "--kind", "sigma", "--mod", "3", "--res", "3", "--r", "0", "--n", "12",
     "--method", "both"),
    ("conjecture", "bias", "--kind", "varsigma", "--mod", "3", "--r", "0", "--range", "1:30"),
    ("conjecture", "bias", "--kind", "sigma", "--mod", "1", "--r", "2", "--range", "1:30"),
    ("conjecture", "logconcave", "--kind", "sigma", "--mod", "2", "--r", "1", "--range", "1:60"),
], ids=["stats-gf", "stats-oracle", "stats-both", "bias-ties", "bias-mod-1", "logconcave"])
def test_json_output_is_what_json_dumps_writes_for_it(capsys, argv):
    # The gf table passes one block of rows (4096), and a log-concavity
    # report has an empty ordering.
    argv += ("--format", "json") if argv[0] == "stats" else ()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_json_writer_refuses_a_document_that_writes_its_placeholder_twice():
    # Another field writing the placeholder would leave two places for the
    # list; the writer raises rather than pick one.
    for params in ({"note": "\0rows"}, {"\0rows": 1}):
        with pytest.raises(ValueError, match="placeholder"):
            cli._json_text({"params": params, "rows": {"n": [1, 2]}}, "rows")
    # one character off is a plain string
    text = cli._json_text({"params": {"note": "\0row"}, "rows": {"n": [1, 2]}}, "rows")
    assert json.loads(text) == {"params": {"note": "\0row"}, "rows": [{"n": 1}, {"n": 2}]}


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (("conjecture", "logconcave", "--kind", "varsigma", "--s", "1", "--mod", "2", "--res", "1",
      "--r", "0", "--range", "26:1000"), "logconcave_varsigma_r0.json"),
    (("conjecture", "bias", "--kind", "varsigma", "--s", "1", "--mod", "3", "--r", "0",
      "--range", "1:120"), "bias_varsigma_r0.json"),
])
def test_conjecture_writes_the_golden_bytes(capsys, tmp_path, argv, golden):
    # tools/generate_golden.py writes the goldens with json.dumps, so this
    # holds the CLI's JSON writer to the stdlib encoder byte for byte.
    path = tmp_path / golden
    assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
    assert path.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_conjecture_range_validation(capsys):
    code, _, _ = run_cli(
        capsys, "conjecture", "logconcave", "--kind", "sigma", "--range", "bad",
    )
    assert code == 1
    code, _, _ = run_cli(
        capsys, "conjecture", "logconcave", "--kind", "sigma", "--range", "9:3",
    )
    assert code == 1


def test_out_files_deterministic_with_sidecar(tmp_path, capsys):
    args = [
        "stats", "--kind", "varsigma", "--mod", "2", "--res", "2", "--r", "1",
        "--range", "0:12", "--method", "both",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    data_a = path_a.read_bytes()
    assert data_a == path_b.read_bytes()
    assert b"\r" not in data_a
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["backend"] == "pure"
    assert "written_at" in meta and "written_at" not in data_a.decode()


def test_long_out_file_is_written_whole(tmp_path, capsys):
    # Longer than a write slice, with multi-byte characters at the slice ends.
    edge = cli._WRITE_SLICE
    text = "a" * (edge - 1) + "é∑" + "b" * edge + "\n" + "c" * (edge // 2) + "😀"
    path = tmp_path / "long.txt"
    cli._write_atomic(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    args = ["stats", "--kind", "varsigma", "--r", "0", "--range", "0:2000", "--format", "json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and len(out) > 2 * edge
    assert main(args + ["--out", str(tmp_path / "p.json")]) == 0
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == out


def test_out_directory_is_an_error_not_a_traceback(tmp_path, capsys):
    code, _, err = run_cli(capsys, "stats", "--kind", "sigma", "--n", "3", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")


def test_out_is_replaced_atomically(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seq.csv"
    path.write_text("old data\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, out, err = run_cli(capsys, "stats", "--kind", "sigma", "--n", "3", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot replace ")
    assert path.read_text(encoding="utf-8") == "old data\n"
    assert list(tmp_path.iterdir()) == [path]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_script_end_to_end():
    out = subprocess.run(
        [sys.executable, "-m", "mexmoments.cli", "stats", "--kind", "sigma",
         "--mod", "2", "--n", "4", "--method", "both"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "4,3,3,true"
