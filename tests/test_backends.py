"""Tests of the two kernels: the histogram kernel, its walk and its
assembly, against partitions listed from the definitions; and the
sparse x dense product."""

import gc
import random
import sys
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mexmoments.partitions
from mexmoments import MexParams, backend, qseries, sigma_oracle, varsigma_oracle
from mexmoments.backend import mex_value_counts
from mexmoments.partitions import ORACLE_CAP
from reference import d2_coeffs, invert_unit_series, mex_s_mod, partitions, partitions_above

L = backend.SMALL_PARTS


def block(rows: list, n: int, N: int, M: int) -> list:
    """The histogram of n in a kernel table walked to N: cell m of n sits
    at m * (N + 1) + n of each row, for m <= n//M + 1."""
    return [row[n : (n // M + 2) * (N + 1) : N + 1] for row in rows]


def counts(n: int, s: int, M: int) -> list:
    return block(mex_value_counts(n, s, M), n, n, M)


def test_mex_value_counts_small_cases():
    # n=0: the empty partition; every residue A > n is its own mex (m = 0).
    assert counts(0, 1, 3) == [[1, 0], [1, 0], [1, 0]]
    # n=4, s=1, M=1: mex values of the 5 partitions are 1,2,1,3,2 (m = v-1).
    row = counts(4, 1, 1)[0]
    assert row == [2, 2, 1, 0, 0, 0]
    # n=2, s=1, M=3 over (2) and (1,1): A=1 gives 1 and 4, A=2 gives 5 and 2,
    # and A=3 exceeds n, so both partitions land at m=0.
    assert counts(2, 1, 3) == [[1, 1], [1, 1], [2, 0]]


def test_mex_value_counts_total_is_partition_count():
    from mexmoments.qseries import partition_numbers

    for n in (0, 5, 12):
        for s in (1, 2):
            for M in (1, 3, 20):
                rows = counts(n, s, M)
                assert len(rows) == M
                for row in rows:
                    assert len(row) == n // M + 2
                    assert sum(row) == partition_numbers(n)[n]


def test_a_threshold_past_n_gives_the_histograms_of_n_plus_one():
    # No part of a partition of n' <= 5 occurs 6 times, so s = 2^31 and
    # s = 10^100 give the histograms of s = 6.
    table = mex_value_counts(5, 6, 1)
    assert mex_value_counts(5, 2**31, 1) == mex_value_counts(5, 10**100, 1) == table


def test_walk_visits_each_tail_above_L_once():
    # The walk's work: the partitions of every t <= n into parts > L.
    for n in range(61):
        nodes, _ = backend.walk(n, 1, 1, L)
        assert sum(nodes) == partitions_above(L, n), n
    # An L at or above n leaves only the empty tail.
    assert backend.walk(3, 1, 2, 2**31 - 1) == ([1, 0, 0, 0], [[0] * 12, [0] * 12])


@lru_cache(maxsize=None)
def _reference_rows(n: int, s: int, M: int) -> list:
    pis = list(partitions(n))
    rows = [[0] * (n // M + 2) for _ in range(M)]
    for A, row in enumerate(rows, 1):
        for pi in pis:
            row[(mex_s_mod(pi, s, M, A) - A) // M] += 1
    return rows


def test_mex_value_counts_match_reference_walk():
    # Cell by cell against the definition: s = n+1 and M = n+2 reach past
    # n, and s <= n lets the ones alone decide whether 1 is excluded.
    for n in range(0, 19):
        for s in sorted({1, 2, 3, 5, n + 1}):
            for M in sorted({1, 2, 3, 4, 7, n + 2}):
                assert counts(n, s, M) == _reference_rows(n, s, M), (n, s, M)


def test_mex_sum_is_andrews_newman_d2():
    # Andrews and Newman: the mex summed over the partitions of n is D_2(n),
    # the coefficient of q^n in (-q;q)_inf^2.  Held for every n the oracle
    # serves by default, far past the reference walk above, from one table.
    table = mex_value_counts(ORACLE_CAP, 1, 1)
    for n, want in enumerate(d2_coeffs(ORACLE_CAP)):
        row = block(table, n, ORACLE_CAP, 1)[0]
        assert sum(v * c for v, c in enumerate(row, 1)) == want, n


def test_oracles_serve_a_huge_threshold_from_the_table_of_n_plus_one(monkeypatch):
    # No part of a partition of n occurs n + 1 times, so the oracles ask
    # the kernel for s = n + 1 whenever s > n: a huge threshold reads the
    # table of s = n + 1 and walks nothing more.
    calls = []
    monkeypatch.setattr(mexmoments.partitions, "_tables",
                        mexmoments.partitions.Store(mexmoments.partitions.STORE_CELL_LIMIT))
    monkeypatch.setattr(backend, "mex_value_counts",
                        lambda n, s, M: calls.append((n, s, M)) or mex_value_counts(n, s, M))
    n, M, r = 9, 2, 1
    pis = list(partitions(n))
    for A in (1, 2):
        sigma = sum(mex_s_mod(pi, n + 1, 1, 1) ** r for pi in pis
                    if mex_s_mod(pi, n + 1, 1, 1) % M == A % M)
        varsigma = sum(mex_s_mod(pi, n + 1, M, A) ** r for pi in pis)
        for s in (n + 1, 3_000_000_000, 2**64):
            assert sigma_oracle(MexParams(s, M, A, r), n) == sigma, (s, A)
            assert varsigma_oracle(MexParams(s, M, A, r), n) == varsigma, (s, A)
    assert calls == [(n, n + 1, 1), (n, n + 1, M)]


@st.composite
def histogram_args(draw):
    # The kernel counts the small parts 1..L per remainder R, and part i
    # of them saturates a chain place once c_i >= s, so thresholds near
    # n//i for i = 1..L+1 make a place just reachable or just out of reach
    # at the largest n'.  Moduli 1..L+2 put several small places in one
    # row (the first unsaturated one holds the value), one in each of
    # rows 1..M, or leave rows A > L whose chain starts above L; the
    # parts L+1..M+L start the chains the walk follows.  Moduli past n'
    # leave rows A > n' with all p(n') at m = 0, and small moduli let
    # chains cross many blocks.  L itself is drawn: at L = SMALL_PARTS
    # and n <= 22 few tails are left to walk, so the smaller L hold the
    # walk's follow and break logic to the reference too.
    small = draw(st.sampled_from(sorted({1, 2, 4, L})))
    n = draw(st.integers(0, 22))
    near = sorted({max(1, n // i + d) for i in range(1, small + 2) for d in (-1, 0, 1)} | {n + 1})
    s = draw(st.one_of(st.integers(1, n + 2), st.sampled_from(near)))
    M = draw(st.one_of(st.sampled_from([*range(1, small + 3), n + 1, n + 2, n + 3]),
                       st.integers(1, n + 3)))
    return small, n, s, M


@settings(max_examples=120, deadline=None)
@given(histogram_args())
def test_kernels_equal_reference_at_interval_boundaries(args):
    # One walk to n gives the histogram of every n' <= n, in n//M + 2
    # cells of n + 1 counts each; the cells of n' past n'//M + 1 are 0.
    # The kernel reads SMALL_PARTS per call.
    small, n, s, M = args
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "SMALL_PARTS", small)
        table = mex_value_counts(n, s, M)
    assert len(table) == M
    assert all(len(row) == (n // M + 2) * (n + 1) for row in table)
    for j in range(n + 1):
        assert block(table, j, n, M) == _reference_rows(j, s, M), (small, j)
        assert not any(x for row in table for x in row[(j // M + 2) * (n + 1) + j :: n + 1]), j


def test_the_oracle_still_enumerates():
    # With M = 1 the small parts fill the cells of mex <= L + 1 and the
    # tails' breaks fill the rest, so a count in a cell of mex >= L + 2
    # shows the walk still does work at n = 55.  Cell m holds mex m + 1.
    n = 55
    (row,) = mex_value_counts(n, 1, 1)
    assert any(row[m * (n + 1) + n] for m in range(L + 1, n + 2))


def test_invert_unit_series_roundtrip():
    # The product kernel times the reference inverse of a random unit
    # series, given as (exponent, weight) terms, is exactly 1.
    rng = random.Random(99)
    for c0 in (1, -1):
        a = [c0] + [rng.randint(-7, 7) for _ in range(30)]
        inv = invert_unit_series(a)
        assert backend.sparse_dense_product(list(enumerate(a)), inv, 31) == [1] + [0] * 30


def test_sparse_dense_degenerate_terms():
    dense = [1, 2, 3]
    # zero weights and out-of-range exponents are ignored
    assert backend.sparse_dense_product([(0, 0), (5, 9)], dense, 3) == [0, 0, 0]
    assert backend.sparse_dense_product([(1, -1)], dense, 3) == [0, -1, -2]


def test_packed_product_holds_its_copies_result_and_a_few_tiles():
    # While it sums, the product holds its packed copies of p(n), one per
    # residue of the exponents mod K that occurs, the result blocks so far
    # and about four tile-sized lists: the tile, its next value, the
    # group sum and that sum's next value.  While it decodes it holds the
    # result blocks, no larger than one copy, and the result.  A
    # series-long list besides these breaks the bound.
    N = 8192
    dense = qseries.partition_numbers(N)
    for kind, p in (("sigma", MexParams(1, 2, 1, 1)), ("varsigma", MexParams(1, 3, 2, 1))):
        sparse = qseries._support(kind, p, N)
        S = (max(dense).bit_length() + sum(abs(w) for _, w in sparse).bit_length() + 8) // 8
        K = backend._PACK_BITS // (8 * S)
        blocks = -(-(N + 1) // K)
        block = sys.getsizeof((1 << 8 * S * K) - 1) + 8  # a block and its list slot
        copies = len({e % K for e, _ in sparse}) * blocks * block
        tiles = 4 * min(backend._TILE, blocks) * block
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = backend.sparse_dense_product(sparse, dense, N + 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = sys.getsizeof(result) + sum(map(sys.getsizeof, result))
        assert peak <= copies + held + tiles, (kind, peak, copies, held, tiles)


class _Unread(int):
    """A coefficient of ``dense`` that a product must not read: taking
    its absolute value fails."""

    def __abs__(self):
        raise AssertionError("the product scanned a coefficient outside its window")


def test_a_one_slot_window_skips_the_scan_for_the_block_size():
    # K >= 1, so a window of one slot is always summed directly, and the
    # scan of dense[:length] that sets K is skipped.  Terms at 0 and 2 of a
    # window at 4 read dense[4] and dense[2] only.
    dense = [1, 2, 3, _Unread(4), 5]
    assert backend.sparse_dense_product([(0, 1), (2, -3)], dense, 5, start=4) == [5 - 3 * 3]
    with pytest.raises(AssertionError, match="scanned"):
        backend.sparse_dense_product([(0, 1), (2, -3)], dense, 5, start=3)


def test_packing_holds_one_buffer_and_one_tile_of_strings(monkeypatch):
    # The product writes dense, biased, into one buffer of W-bit slots, a
    # tile of K * _TILE coefficients at a time, before it cuts the copies
    # from a view of it.  So when the view is taken the product has held
    # the buffer and the transients of one tile: its byte strings, their
    # list and their join, twice over for what a join briefly holds beside
    # its parts.  One string per coefficient beside the whole packed string
    # breaks the bound: 3.2 tiles at K = 10 and 32 at K = 1.
    N = 8192
    rng = random.Random(33)
    wide = [rng.getrandbits(1900) for _ in range(N + 1)]  # K = 1
    theta = qseries._support("varsigma", MexParams(1, 3, 2, 1), N)
    cases = [(theta, qseries.partition_numbers(N)), ([(0, 1), (3, -1), (7, 1)], wide)]
    for sparse, dense in cases:
        S = (max(dense).bit_length() + sum(abs(w) for _, w in sparse).bit_length() + 8) // 8
        K = max(1, backend._PACK_BITS // (8 * S))
        chunk = K * backend._TILE
        buffer = sys.getsizeof(bytearray((-(-(N + 1) // K) + 2) * K * S))
        tile = chunk * (sys.getsizeof(bytes(S)) + 8) + sys.getsizeof(bytes(chunk * S))
        peaks = []
        monkeypatch.setattr(backend, "memoryview", lambda data: peaks.append(
            tracemalloc.get_traced_memory()[1]) or memoryview(data), raising=False)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = backend.sparse_dense_product(sparse, dense, N + 1)
        finally:
            tracemalloc.stop()
        assert result == backend._shifted_sum(sparse, dense, N + 1, 0)
        assert peaks[0] - base <= buffer + 2 * tile, (K, peaks[0] - base, buffer, tile)
