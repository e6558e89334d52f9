"""Scanner tests: log-concavity and residue-bias reports on exact data."""

import ast
import inspect
import json

import pytest

from mexmoments import (
    MexParams, ResourceCapError, ValidationError, cli, partition_numbers, qseries,
)
from mexmoments.conjectures import OrderingEntry, scan_bias, scan_log_concavity


def test_logconcave_partition_numbers_small_range():
    # Scan p(n) itself (varsigma, r=0).  The failing n below 26 are exactly
    # the odd ones; recompute that fact here directly from the recurrence
    # values, then pin the classical list.
    report = scan_log_concavity("varsigma", MexParams(1, 1, 1, 0), 1, 30)
    pn = partition_numbers(30)
    direct = [n for n in range(1, 30) if pn[n] ** 2 <= pn[n - 1] * pn[n + 1]]
    assert list(report.violations) == direct
    assert direct == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25]
    assert report.equalities == ()
    assert report.stabilized_at == 26  # right after the last violation
    # a range that ends on a violation has no violation-free suffix
    assert scan_log_concavity("varsigma", MexParams(1, 1, 1, 0), 1, 26).stabilized_at is None


def test_logconcave_partition_numbers_clean_range():
    report = scan_log_concavity("varsigma", MexParams(2, 3, 1, 0), 26, 400)
    assert report.violations == ()
    assert report.stabilized_at == 26
    assert report.ordering == ()


def test_logconcave_flags_zero_prefix_equalities():
    # sigma with A=3 mod 3 is 0 for n < 3; the 0,0,0 prefix produces
    # equality-type failures that must be reported, not suppressed.
    report = scan_log_concavity("sigma", MexParams(1, 3, 3, 0), 1, 10)
    assert 1 in report.violations and 1 in report.equalities
    assert 2 in report.violations  # 0*0 = 0 >= 0 at the boundary of the prefix
    assert set(report.equalities) <= set(report.violations)


def test_logconcave_report_shape():
    report = scan_log_concavity("sigma", MexParams(1, 2, 1, 0), 2, 50)
    d = report.to_json_dict()
    assert d["params"] == {"kind": "sigma", "s": 1, "M": 2, "A": 1, "r": 0}
    assert d["range"] == [2, 50]
    assert isinstance(d["violations"], list)
    assert d["ordering"] == []
    # determinism
    again = scan_log_concavity("sigma", MexParams(1, 2, 1, 0), 2, 50)
    assert again.to_json_dict() == d


def test_logconcave_validation():
    with pytest.raises(ValidationError):
        scan_log_concavity("sigma", MexParams(1, 2, 1, 0), 0, 10)
    with pytest.raises(ValidationError):
        scan_log_concavity("sigma", MexParams(1, 2, 1, 0), 10, 5)


def test_bias_trivial_modulus():
    report = scan_bias("sigma", 1, 1, 0, 1, 20)
    assert all(e.perm == (1,) and e.ties == () for e in report.ordering)
    assert report.stabilized_at == 1
    assert report.violations == ()


def test_bias_varsigma_r0_all_ties():
    report = scan_bias("varsigma", 1, 3, 0, 1, 40)
    for entry in report.ordering:
        assert entry.perm == (1, 2, 3)
        assert entry.ties == ((1, 2, 3),)
    assert report.stabilized_at == 1


def test_bias_sigma_orderings_are_permutations():
    report = scan_bias("sigma", 1, 4, 1, 1, 60)
    for entry in report.ordering:
        assert sorted(entry.perm) == [1, 2, 3, 4]
        for group in entry.ties:
            assert len(group) >= 2
            assert sorted(group) == list(group)


def test_bias_sigma_known_small_orderings():
    # sigma, s=1, M=2, r=0: values (A=1 first) are n=1: (0,1); n=2: (1,1);
    # n=3: (2,1); n=4: (3,2).  The ordering flips at n=3 and then stays.
    report = scan_bias("sigma", 1, 2, 0, 1, 4)
    perms = [e.perm for e in report.ordering]
    assert perms == [(1, 2), (1, 2), (2, 1), (2, 1)]
    assert report.ordering[1].ties == ((1, 2),)
    assert report.stabilized_at == 3


def test_bias_stabilized_none_when_changing_at_end():
    report = scan_bias("sigma", 1, 2, 0, 1, 3)
    assert [e.perm for e in report.ordering] == [(1, 2), (1, 2), (2, 1)]
    assert report.stabilized_at is None
    assert "stabilized_at" not in report.to_json_dict()


def test_bias_single_point_range():
    report = scan_bias("sigma", 1, 2, 0, 5, 5)
    assert report.stabilized_at == 5


def test_bias_report_shape_and_determinism():
    report = scan_bias("varsigma", 2, 3, 1, 1, 25)
    d = report.to_json_dict()
    assert d["params"] == {"kind": "varsigma", "s": 2, "M": 3, "r": 1}
    assert d["range"] == [1, 25]
    assert len(d["ordering"]) == 25
    assert d["ordering"][0].keys() == {"n", "perm", "ties"}
    assert scan_bias("varsigma", 2, 3, 1, 1, 25).to_json_dict() == d


def test_bias_validation():
    with pytest.raises(ValidationError):
        scan_bias("bogus", 1, 2, 0, 1, 10)
    with pytest.raises(ValidationError):
        scan_bias("sigma", 1, 2, 0, 0, 10)


def test_bias_validates_parameters_up_front():
    for s, M, r in [(1, 0, 0), (0, 2, 0), (1, 2, -1)]:
        with pytest.raises(ValidationError):
            scan_bias("sigma", s, M, r, 1, 5)


def test_bias_budget_counts_its_sequences(monkeypatch):
    # The M sequences to order hi, each by qseries.sequence_bytes: a limit
    # one byte short refuses before any sequence, the exact bytes admit.
    M, lo, hi = 3, 11, 30
    need = sum(qseries.sequence_bytes("sigma", MexParams(1, M, a, 1), hi) for a in range(1, M + 1))
    monkeypatch.setattr(qseries, "_store", qseries.Store(qseries.STORE_BYTE_LIMIT))
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need - 1)
    with pytest.raises(ResourceCapError, match=f"3 sigma sequence.s. to order {hi}"):
        scan_bias("sigma", 1, M, 1, lo, hi)
    assert not qseries._store.entries
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need)
    assert len(scan_bias("sigma", 1, M, 1, lo, hi).ordering) == hi - lo + 1


class Admitted(Exception):
    """Raised in place of the first sequence request of an admitted scan."""


@pytest.fixture
def no_sequences(monkeypatch):
    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(qseries, "moment_sequence", admitted)


@pytest.mark.parametrize("kind, M, r, n_hi", [
    ("varsigma", 200, 1, 20000),
    ("sigma", 4, 1, 100000),
    ("varsigma", 3, 1, 100000),
    ("varsigma", 8, 2, 100000),
    ("sigma", 4, 1, 16384),
    ("varsigma", 3, 1, 16384),
])
def test_bias_budget_admits_the_recorded_scans(no_sequences, kind, M, r, n_hi):
    # Except M = 200 to 20000: that scan peaked at 459-492 MB resident, over
    # the 256 MiB limit, and its sequences' bound is refused.
    over = (kind, M, n_hi) == ("varsigma", 200, 20000)
    with pytest.raises(ResourceCapError if over else Admitted):
        scan_bias(kind, 1, M, r, 1, n_hi)


def test_bias_budget_refuses_two_thousand_residues(no_sequences):
    with pytest.raises(ResourceCapError, match="above the limit 268435456"):
        scan_bias("varsigma", 1, 2000, 1, 1, 20000)


def test_ordering_entry_fields_are_its_json_keys_in_one_place():
    # The writer reads the ordering's keys from OrderingEntry._fields, so
    # the field names are written once: in the class.
    entry = OrderingEntry(n=4, perm=(2, 1, 3), ties=((1, 3),))
    assert OrderingEntry._fields == ("n", "perm", "ties") == tuple(entry.to_json_dict())
    for report in (scan_bias("varsigma", 1, 3, 0, 1, 12), scan_bias("sigma", 2, 4, 1, 1, 12)):
        ordering = json.loads(cli._report_text(report))["ordering"]
        assert len(ordering) == 12
        assert all(item.keys() == set(OrderingEntry._fields) for item in ordering)
    # _report_text names no field: its only string constants are the
    # document's key and its docstring
    tree = ast.parse(inspect.getsource(cli._report_text))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(OrderingEntry._fields)
    assert "ordering" in strings
