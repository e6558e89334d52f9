"""Oracle-layer tests: the mex statistics and the moments.

Expected values fall into three groups: hand-listable cases (frozen
literals), worked examples for the statistics themselves, and derived
values recomputed here through an independent route (the part-tuple
walker and mex functions of ``reference``, versus the histogram kernels
the oracle uses).
"""

import sys
import threading
import time
from collections import Counter
from functools import lru_cache

import pytest

from mexmoments import (
    MexParams,
    ResourceCapError,
    ValidationError,
    partition_numbers,
    sigma_oracle,
    varsigma_oracle,
)
import mexmoments.partitions
from mexmoments.partitions import mex_value_histogram, oracle_values
from reference import mex_s, mex_s_mod, partitions


def test_enumerate_zero_yields_only_empty():
    assert list(partitions(0)) == [()]


def test_enumerate_four_descending_lex():
    got = list(partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(0, 21))
def test_enumerate_count_matches_pentagonal_recurrence(n):
    assert sum(1 for _ in partitions(n)) == partition_numbers(n)[n]


def test_enumerate_30_count():
    assert sum(1 for _ in partitions(30)) == 5604


def test_enumerate_is_descending_lex_and_valid():
    for n in range(1, 13):
        seen = list(partitions(n))
        for pi in seen:
            assert all(a >= b for a, b in zip(pi, pi[1:]))
            assert all(part >= 1 for part in pi)
            assert sum(pi) == n
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen, reverse=True)


# Worked example used throughout: (6,4,3,3,2,2,2,1,1).
EXAMPLE = (6, 4, 3, 3, 2, 2, 2, 1, 1)


def test_mex_s_worked_example():
    assert mex_s(EXAMPLE, 1) == 5
    assert mex_s(EXAMPLE, 2) == 4
    assert mex_s(EXAMPLE, 3) == 1
    assert mex_s(EXAMPLE, 7) == 1


def test_mex_s_mod_worked_example():
    expected = {
        (1, 2, 1): 5, (1, 2, 2): 8,
        (2, 2, 1): 5, (2, 2, 2): 4,
        (3, 2, 1): 1, (3, 2, 2): 4,
        (4, 2, 1): 1, (4, 2, 2): 2,
        (5, 2, 2): 2,
    }
    for (s, M, A), want in expected.items():
        assert mex_s_mod(EXAMPLE, s, M, A) == want


def test_mex_on_empty_partition():
    empty = ()
    for s in (1, 2, 5):
        assert mex_s(empty, s) == 1
    for (s, M, A) in [(1, 3, 2), (4, 5, 5), (2, 1, 1)]:
        assert mex_s_mod(empty, s, M, A) == A


def test_mex_s_mod_reduces_to_mex_s():
    for n in range(0, 11):
        for pi in partitions(n):
            for s in (1, 2, 3):
                assert mex_s(pi, s) == mex_s_mod(pi, s, 1, 1)


def test_mex_s_weakly_decreasing_in_s():
    for n in range(0, 11):
        for pi in partitions(n):
            values = [mex_s(pi, s) for s in range(1, 6)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def test_mex_s_upper_bound():
    for n in range(1, 13):
        for pi in partitions(n):
            assert mex_s(pi, 1) <= max(pi) + 1 <= n + 1


def test_mex_s_mod_result_in_residue_class():
    for n in range(0, 9):
        for pi in partitions(n):
            for M in (1, 2, 3):
                for A in range(1, M + 1):
                    v = mex_s_mod(pi, 2, M, A)
                    assert v >= 1 and v % M == A % M


def test_mexparams_validation():
    MexParams(1, 1, 1, 0)
    with pytest.raises(ValidationError):
        MexParams(0, 1, 1, 0)
    with pytest.raises(ValidationError):
        MexParams(1, 2, 3, 0)
    with pytest.raises(ValidationError):
        MexParams(1, 2, 0, 0)
    with pytest.raises(ValidationError):
        MexParams(1, 2, 1, -1)
    # Only ints, stored plain: a bool would hash equal to 1 and be served
    # the store entries of s = 1.
    for bad in (1.5, "1", None, True):
        with pytest.raises(ValidationError, match="^s must be an integer, got "):
            MexParams(bad, 2, 1, 1)

    class Index:
        def __index__(self):
            return 3

    p = MexParams(Index(), 2, 1, 1)
    assert type(p.s) is int and p == MexParams(3, 2, 1, 1)


def test_sigma_oracle_n4_examples():
    # Partitions of 4 have mex values 1, 2, 1, 3, 2; the odd ones are 1, 1, 3.
    assert sigma_oracle(MexParams(1, 2, 1, 0), 4) == 3
    assert sigma_oracle(MexParams(1, 2, 1, 1), 4) == 5


def test_sigma_oracle_weight_zero():
    for s in (1, 2, 3):
        for M in (1, 2, 4):
            assert sigma_oracle(MexParams(s, M, 1, 5), 0) == 1
            for A in range(2, M + 1):
                assert sigma_oracle(MexParams(s, M, A, 0), 0) == 0


def test_varsigma_oracle_examples():
    assert varsigma_oracle(MexParams(1, 2, 2, 1), 3) == 8
    for (s, M, A, r) in [(1, 3, 2, 2), (2, 4, 4, 3), (5, 1, 1, 0)]:
        assert varsigma_oracle(MexParams(s, M, A, r), 0) == A**r


def test_varsigma_r0_counts_all_partitions():
    pn = partition_numbers(12)
    for n in range(0, 13):
        for (s, M, A) in [(1, 1, 1), (2, 3, 2), (3, 4, 1)]:
            assert varsigma_oracle(MexParams(s, M, A, 0), n) == pn[n]


def test_oracles_match_direct_partition_walk():
    # Independent route: statistics recomputed per partition from the
    # definitions rather than by the histogram kernels.  s = 13 and
    # M = 13 exceed every n here, M = 12 meets the largest.
    for n in range(0, 13):
        pis = list(partitions(n))
        for s in (1, 2, 13):
            for M in (1, 2, 3, 12, 13):
                for A in range(1, M + 1):
                    for r in (0, 1, 2):
                        params = MexParams(s, M, A, r)
                        direct_sigma = sum(
                            mex_s(pi, s) ** r for pi in pis if mex_s(pi, s) % M == A % M
                        )
                        direct_varsigma = sum(mex_s_mod(pi, s, M, A) ** r for pi in pis)
                        assert sigma_oracle(params, n) == direct_sigma
                        assert varsigma_oracle(params, n) == direct_varsigma


_partitions = lru_cache(maxsize=None)(lambda n: tuple(partitions(n)))


@lru_cache(maxsize=None)
def _value_counts(n: int, s: int, M: int, A: int) -> tuple:
    """(value, count) over the partitions of n: of the mex with frequency
    s when M = 0, else of the congruence mex for (s, M, A)."""
    return tuple(Counter(mex_s(pi, s) if M == 0 else mex_s_mod(pi, s, M, A)
                         for pi in _partitions(n)).items())


def _enumerated_moment(kind: str, p: MexParams, n: int) -> int:
    if kind == "sigma":
        return sum(c * v**p.r for v, c in _value_counts(n, p.s, 0, 0) if v % p.M == p.A % p.M)
    return sum(c * v**p.r for v, c in _value_counts(n, p.s, p.M, p.A))


def test_oracle_column_equals_enumeration():
    # One column of one table gives every n <= N, with s, M and A capped
    # at N + 1: thresholds and moduli at, just past and far past N, and
    # residues A = M and A > N, must leave every value as defined.
    for N in range(21):
        for s in sorted({1, 2, 3, N + 1, N + 5, 2**31}):
            for M in sorted({1, 2, 3, 4, 5, N, N + 1, 1000} - {0}):
                for A in sorted({1, M, min(N + 1, M)}):
                    for r in range(4):
                        p = MexParams(s, M, A, r)
                        for kind in ("sigma", "varsigma"):
                            want = [_enumerated_moment(kind, p, n) for n in range(N + 1)]
                            assert oracle_values(kind, p, N) == want, (kind, p, N)


def test_oracle_column_equals_the_per_n_oracles():
    # Each n asked alone caps s and M at n + 1, the column at N + 1.
    for N in (30, 55, 60):
        for s, M, A, r in ((1, 1, 1, 1), (2, 3, 2, 2), (1, 4, 3, 1), (3, 2, 1, 0),
                           (1, 1000, 7, 1), (N + 1, N + 1, N + 1, 2)):
            p = MexParams(s, M, A, r)
            for kind, oracle in (("sigma", sigma_oracle), ("varsigma", varsigma_oracle)):
                column = oracle_values(kind, p, N)
                assert len(column) == N + 1
                assert column == [oracle(p, n) for n in range(N, -1, -1)][::-1], (kind, p, N)


def test_oracle_column_rejects_an_unknown_kind():
    with pytest.raises(ValidationError, match="^kind must be one of"):
        oracle_values("mex", MexParams(1, 1, 1, 0), 3)


def test_varsigma_oracle_caps_the_kernel_modulus(kernel_calls):
    # A modulus beyond n reads the same row from modulus n+1, so the
    # kernel never builds 10^5 rows for a 10^5 modulus.
    for n in (0, 1, 7, 12):
        for A in (1, 7, 99_999, 100_000):
            params = MexParams(2, 100_000, A, 1)
            expected = sum(mex_s_mod(pi, 2, 100_000, A) for pi in partitions(n))
            assert varsigma_oracle(params, n) == expected
    assert kernel_calls and all(M <= n + 1 for n, _, M in kernel_calls)


def _at(table: tuple, n: int, M: int) -> list:
    """The histogram of n in a table: cell m of row A-1 holds
    table[A-1][m][n], for m <= n//M + 1."""
    return [[column[n] for column in row[: n // M + 2]] for row in table]


def test_one_walk_serves_every_smaller_n(kernel_calls):
    # The table of (s, M) at n = 20 holds the histogram of every n <= 20
    # and is served whole; a longer request walks again, and the longer
    # table then serves all with the same histograms.
    first = mex_value_histogram(20, 2, 3)
    assert all(mex_value_histogram(n, 2, 3) is first for n in range(21))
    assert kernel_calls == [(20, 2, 3)]
    longer = mex_value_histogram(25, 2, 3)
    assert longer[0][0][25] > 0
    assert all(mex_value_histogram(n, 2, 3) is longer for n in range(26))
    assert [_at(longer, n, 3) for n in range(21)] == [_at(first, n, 3) for n in range(21)]
    assert kernel_calls == [(20, 2, 3), (25, 2, 3)]


def test_histogram_store_evicts_whole_tables(kernel_calls, monkeypatch):
    # Four tables of 182 (M = 1) or 208 (M = 2) cells at n = 12, under a
    # limit that holds two: the least recently used go first, and a table
    # asked for again is walked again and gives the same histograms.
    store = mexmoments.partitions._tables
    monkeypatch.setattr(store, "limit", 500)
    keys = [(1, 1), (2, 1), (1, 2), (2, 2)]
    first = {key: [mex_value_histogram(n, *key) for n in (12, 5)] for key in keys}
    assert all(table is at_5 for table, at_5 in first.values())
    assert len(kernel_calls) == 4
    assert list(store.entries) == [(1, 2), (2, 2)]
    assert store.total == 2 * 208
    again = {key: [mex_value_histogram(n, *key) for n in (12, 5)] for key in keys}
    assert again == first
    assert kernel_calls[4][1:] == (1, 1)
    # One table above the limit is kept alone.
    monkeypatch.setattr(store, "limit", 1)
    mex_value_histogram(3, 1, 1)
    assert list(store.entries) == [(1, 1)]
    assert store.total == sum(cost for _, cost, _ in store.entries.values())


def test_histogram_store_threads_agree(kernel_calls):
    # More threads than cores and a short switch interval, so that racing
    # requests for one table at different n interleave inside the store.
    ns = [24, 9, 24, 17, 9, 24]
    start = threading.Barrier(len(ns))
    results = [None] * len(ns)

    def ask(i):
        start.wait(timeout=30)
        results[i] = _at(mex_value_histogram(ns[i], 2, 3), ns[i], 3)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(ns))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    store = mexmoments.partitions._tables
    n, cost, table = store.entries[(2, 3)]
    assert n == 24 and {len(column) for row in table for column in row} == {25}  # n = 0..24
    assert store.total == cost == 3 * (24 // 3 + 2) * 25
    assert cost == sum(cost for _, cost, _ in store.entries.values())
    for n, rows in zip(ns, results):
        assert rows == [
            [sum(1 for pi in partitions(n) if mex_s_mod(pi, 2, 3, A) == A + m * 3)
             for m in range(n // 3 + 2)]
            for A in (1, 2, 3)
        ]


def test_sigma_residue_classes_partition_everything():
    for n in range(0, 19):
        pn = partition_numbers(n)[n]
        for s in (1, 2, 3):
            for M in (1, 2, 3, 4):
                total = sum(sigma_oracle(MexParams(s, M, A, 0), n) for A in range(1, M + 1))
                assert total == pn


def test_histogram_value_bound(kernel_calls):
    # In a table walked to n, n//M + 2 cells bound every value, and each
    # row's cells sum to p(n') at every n' <= n.
    for (n, s, M) in [(8, 1, 3), (10, 2, 2), (6, 3, 4)]:
        table = mex_value_histogram(n, s, M)
        assert len(table) == M
        for row in table:
            assert len(row) == n // M + 2
            assert all(len(column) == n + 1 for column in row)
            assert list(map(sum, zip(*row))) == partition_numbers(n)


def test_oracle_cap_enforced():
    # The limit is fixed at 60 for both oracles; one table serves both here.
    params = MexParams(1, 1, 1, 0)
    assert sigma_oracle(params, 60) == varsigma_oracle(params, 60) == partition_numbers(60)[60]
    for oracle in (sigma_oracle, varsigma_oracle):
        with pytest.raises(ResourceCapError, match="^oracle request n=61 exceeds cap 60;"):
            oracle(params, 61)


def test_oracle_negative_n_rejected():
    for oracle in (sigma_oracle, varsigma_oracle):
        with pytest.raises(ValidationError, match="^n must be >= 0, got -1$"):
            oracle(MexParams(1, 1, 1, 0), -1)


def test_histogram_tables_meet_the_oracle_cap_at_once(kernel_calls):
    # Every table passes mex_value_histogram, which checks the one
    # enumeration limit before any walk: a walk to n = 200 would run for
    # about a day and a half.
    assert mexmoments.partitions.ORACLE_CAP == 60
    for N in (61, 200, 10**6):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=f"^oracle request n={N} exceeds cap 60;"):
            mex_value_histogram(N, 1, 1)
        assert time.perf_counter() - start < 0.1
    for args in ((-1, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValidationError, match="^[nsM] must be >= "):
            mex_value_histogram(*args)
    assert kernel_calls == []


@pytest.mark.parametrize("bad", [True, 1.5, "2", None, 1.0])
def test_histogram_gate_refuses_a_non_int_threshold_or_modulus(kernel_calls, bad):
    # s and M are checked before the store lookup, so no bool or float
    # becomes a key that hashes equal to an int's.
    for args, name in (((5, bad, 1), "s"), ((5, 2, bad), "M")):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            mex_value_histogram(*args)
        assert time.perf_counter() - start < 0.1
    assert kernel_calls == []


def test_histogram_gate_refuses_a_table_past_the_cell_limit(kernel_calls, monkeypatch):
    # The cells the store charges, M * (N//M + 2) * (N + 1), are checked
    # before the walk, so a table the store could not keep is never built:
    # M = 10^5 at N = 10 would take 0.33 s and about 100 MB.
    for args in ((10, 1, 10**5), (60, 1, 10**400)):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=r"^histogram table of M=.* cells, above 524288$"):
            mex_value_histogram(*args)
        assert time.perf_counter() - start < 0.1
    assert kernel_calls == []
    # The largest table the oracle builds, with M <= n + 1, is (s, 60) at
    # n = 60, with 10,980 cells: admitted at that limit and refused one
    # below it.
    assert max(M * (60 // M + 2) * 61 for M in range(1, 62)) == 60 * 3 * 61 == 10980
    monkeypatch.setattr(mexmoments.partitions, "STORE_CELL_LIMIT", 10979)
    with pytest.raises(ResourceCapError, match="^histogram table of M=60 to n=60 holds 10980 "):
        mex_value_histogram(60, 1, 60)
    assert kernel_calls == []
    monkeypatch.setattr(mexmoments.partitions, "STORE_CELL_LIMIT", 10980)
    assert len(mex_value_histogram(60, 1, 60)) == 60
    assert kernel_calls == [(60, 1, 60)]
    assert mexmoments.partitions._tables.total == 10980
