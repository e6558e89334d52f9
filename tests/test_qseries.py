"""Exact series layer: partition numbers, the two moment generating
functions and the sequence store, checked against the reference series
arithmetic of ``reference`` (the Euler product, its inverse and the
schoolbook product)."""

import gc
import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mexmoments import (
    MexParams,
    MomentSequence,
    ResourceCapError,
    ValidationError,
    partition_numbers,
    sigma_gf_coeffs,
    sigma_oracle,
    varsigma_gf_coeffs,
    varsigma_oracle,
)
from mexmoments import backend, qseries
from mexmoments.partitions import Store
from reference import (
    cauchy_product,
    d2_coeffs,
    euler_product_coeffs,
    invert_unit_series,
    largest_mex_scan,
    mex_weight,
    moment_dp,
    support_direct,
)


def test_series_mul_identity():
    assert cauchy_product([1, 0], [1, 1]) == [1, 1]


def test_series_mul_telescopes_geometric():
    assert cauchy_product([1, -1] + [0] * 18, [1] * 20) == [1] + [0] * 19


def test_series_mul_binomial_square():
    assert cauchy_product([1, 1, 0], [1, 1, 0]) == [1, 2, 1]


def test_series_mul_truncates_to_min_order():
    assert cauchy_product([1, 2, 3, 4], [1, 1]) == [1, 3]


def test_series_invert_geometric():
    assert invert_unit_series([1, -1, 0, 0, 0, 0]) == [1] * 6


def test_series_invert_identity():
    assert invert_unit_series([1, 0, 0]) == [1, 0, 0]


def test_series_invert_negative_unit():
    a = [-1, 1, 0]
    assert cauchy_product(a, invert_unit_series(a)) == [1, 0, 0]


def test_series_invert_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(10):
        a = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(40)]
        assert cauchy_product(a, invert_unit_series(a)) == [1] + [0] * 40


def test_euler_product_small():
    assert euler_product_coeffs(7) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_product_coeffs(0) == [1]


def test_euler_product_q12_coefficient():
    assert euler_product_coeffs(15)[12] == -1


def test_euler_product_matches_pentagonal_pattern():
    # Nonzero coefficients sit at generalized pentagonal numbers with sign
    # (-1)^k; everything else vanishes.
    N = 120
    coeffs = euler_product_coeffs(N)
    expected = [0] * (N + 1)
    k = 1
    expected[0] = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > N:
            break
        sign = -1 if k % 2 == 1 else 1
        expected[g1] = sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= N:
            expected[g2] = sign
        k += 1
    assert coeffs == expected


def test_euler_inversion_gives_partition_numbers():
    N = 200
    assert invert_unit_series(euler_product_coeffs(N)) == partition_numbers(N)


def test_partition_numbers_small():
    assert partition_numbers(5) == [1, 1, 2, 3, 5, 7]
    assert partition_numbers(0) == [1]
    assert partition_numbers(30)[30] == 5604
    assert partition_numbers(100)[100] == 190569292


def test_partition_numbers_rejects_negative():
    with pytest.raises(ValidationError):
        partition_numbers(-1)


def test_partition_numbers_p1000():
    assert partition_numbers(1000)[1000] == 24061467864032622473692149727991


def test_partition_numbers_same_however_grown(monkeypatch):
    monkeypatch.setattr(qseries, "_pn_table", [1])
    one_shot = partition_numbers(2000)
    monkeypatch.setattr(qseries, "_pn_table", [1])
    for order in (0, 7, 12, 1000, 2000):
        assert partition_numbers(order) == one_shot[: order + 1]
    assert qseries._pn_table == one_shot
    assert one_shot == invert_unit_series(euler_product_coeffs(2000))


def test_partition_numbers_refuse_orders_above_the_limit():
    before = len(qseries._pn_table)
    with pytest.raises(ResourceCapError):
        partition_numbers(qseries.SERIES_ORDER_LIMIT + 1)
    assert len(qseries._pn_table) == before


def test_sigma_gf_examples():
    assert sigma_gf_coeffs(MexParams(1, 2, 1, 0), 4).values == (1, 0, 1, 2, 3)
    assert sigma_gf_coeffs(MexParams(1, 2, 1, 1), 4)[4] == 5
    # Constant term: 1 when A = 1 (any s, r), else 0.
    for s in (1, 3):
        for r in (0, 2):
            assert sigma_gf_coeffs(MexParams(s, 3, 1, r), 0)[0] == 1
            assert sigma_gf_coeffs(MexParams(s, 3, 2, r), 0)[0] == 0


def test_varsigma_gf_examples():
    assert varsigma_gf_coeffs(MexParams(1, 2, 2, 1), 3)[3] == 8
    for (s, M, A) in [(1, 1, 1), (2, 3, 2), (3, 4, 4)]:
        assert list(varsigma_gf_coeffs(MexParams(s, M, A, 0), 80).values) == partition_numbers(80)
    for (s, M, A, r) in [(1, 3, 2, 2), (2, 4, 3, 1), (1, 5, 5, 0)]:
        assert varsigma_gf_coeffs(MexParams(s, M, A, r), 0)[0] == A**r


# A above sqrt(2 order / s), s above every order, and a modulus of 10^20.
SUPPORT_EDGES = [(1, 1000, 1000, 2), (2, 900, 700, 1), (10**6, 3, 2, 1), (10**6, 1, 1, 3),
                 (1, 10**20, 1, 2), (3, 10**20, 7, 1), (1, 10**20, 10**20, 3)]


def test_gf_forms_agree():
    # Each kind's theta factor, walked along its chain, equals the raw
    # two-term form term by term after collecting; equal supports give
    # equal products.
    grid = [(s, M, A, r) for s in range(1, 5) for M in range(1, 13) for A in range(1, M + 1)
            for r in range(4)]
    for (s, M, A, r) in grid + SUPPORT_EDGES:
        p = MexParams(s, M, A, r)
        for order in (0, 1, 7, 60, 2000, 2**18):
            for kind in ("sigma", "varsigma"):
                assert qseries._support(kind, p, order) == \
                    support_direct(kind, s, M, A, r, order), (kind, p, order)


def test_gf_matches_oracle_spot_grid():
    for (s, M, A, r) in [(1, 2, 1, 1), (2, 3, 3, 0), (3, 1, 1, 2), (1, 4, 2, 2)]:
        p = MexParams(s, M, A, r)
        sg = sigma_gf_coeffs(p, 16)
        vg = varsigma_gf_coeffs(p, 16)
        for n in range(17):
            assert sg[n] == sigma_oracle(p, n)
            assert vg[n] == varsigma_oracle(p, n)


def test_gf_assembly_equals_dense_series_mul():
    # The sparse assembly must agree with an honest dense multiplication.
    N = 40
    pn = partition_numbers(N)
    for (s, M, A, r) in [(1, 2, 1, 1), (2, 3, 2, 0), (1, 1, 1, 2)]:
        p = MexParams(s, M, A, r)
        for support, gf in [
            (qseries._support("sigma", p, N), sigma_gf_coeffs(p, N)),
            (qseries._support("varsigma", p, N), varsigma_gf_coeffs(p, N)),
        ]:
            dense = [0] * (N + 1)
            for e, w in support:
                dense[e] = w
            assert tuple(cauchy_product(pn, dense)) == gf.values


@pytest.mark.parametrize("r", range(4))
def test_gf_assembly_equals_dense_series_mul_over_many_blocks(r):
    # At N = 600 the packed product holds at most 40 coefficients per
    # block, so it runs over many blocks.  The supports shifted by
    # t = 1..40 multiply by q^t and reach every residue shift.
    N = 600
    pn = partition_numbers(N)
    for (s, M, A) in [(1, 2, 1), (2, 3, 2), (1, 1, 1)]:
        p = MexParams(s, M, A, r)
        for support, gf in [
            (qseries._support("sigma", p, N), sigma_gf_coeffs(p, N)),
            (qseries._support("varsigma", p, N), varsigma_gf_coeffs(p, N)),
        ]:
            dense = [0] * (N + 1)
            for e, w in support:
                dense[e] = w
            expected = cauchy_product(pn, dense)
            assert tuple(expected) == gf.values
            if (s, M, A) == (1, 2, 1):
                for t in range(1, 41):
                    shifted = [(e + t, w) for e, w in support]
                    assert backend.sparse_dense_product(shifted, pn, N + 1) == \
                        [0] * t + expected[: N + 1 - t]


def test_gf_calls_the_product_with_three_positional_arguments(monkeypatch):
    # The benchmark's tracer wraps backend.sparse_dense_product by name and
    # counts its work from exactly (sparse, dense, length).
    calls = []
    real = backend.sparse_dense_product

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(backend, "sparse_dense_product", recording)
    p = MexParams(1, 3, 2, 1)
    sigma_gf_coeffs(p, 20)
    varsigma_gf_coeffs(p, 20)
    assert [(len(args), args[2], kwargs) for args, kwargs in calls] == [(3, 21, {}), (3, 21, {})]


def test_largest_mex_bounds_the_oracle():
    # p(n) k^r >= moment >= k^r (the latter for k >= 2); r = 100 is large
    # enough that a k one class step off breaks one of the two bounds.
    r = 100
    for kind, oracle in (("sigma", sigma_oracle), ("varsigma", varsigma_oracle)):
        for s in (1, 2, 3):
            for M in (1, 2, 3, 4):
                for A in range(1, M + 1):
                    for n in range(15):
                        k = qseries.largest_mex(kind, MexParams(s, M, A, r), n)
                        value = oracle(MexParams(s, M, A, r), n)
                        assert value <= partition_numbers(n)[n] * k**r
                        if k >= 2:
                            assert value >= k**r


# Huge s and M as well as small ones, so that both 0 and a long chain occur.
big = st.one_of(st.integers(1, 10), st.integers(1, 10**30))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("sigma", "varsigma")), big, big, st.data(), st.integers(0, 10**60))
def test_largest_mex_is_the_largest_that_fits(kind, s, M, data, n):
    A = data.draw(st.one_of(st.just(1), st.just(M), st.integers(1, M)))
    k = qseries.largest_mex(kind, MexParams(s, M, A, 1), n)
    if k == 0:
        assert mex_weight(kind, s, M, A, A) > n
    else:
        assert k >= A and (k - A) % M == 0
        assert mex_weight(kind, s, M, A, k) <= n < mex_weight(kind, s, M, A, k + M)


def test_largest_mex_refuses_a_bad_n():
    # n is checked before math.isqrt or a floor division sees it.
    p = MexParams(1, 2, 1, 1)
    for n, message in ((-1, "n must be >= 0, got -1"), (2.5, "n must be an integer, got 2.5")):
        with pytest.raises(ValidationError) as info:
            qseries.largest_mex("sigma", p, n)
        assert str(info.value) == message


def test_largest_mex_equals_a_linear_scan():
    for kind in ("sigma", "varsigma"):
        for s in (1, 3):
            for M in (1, 2, 5):
                for A in sorted({1, (M + 1) // 2, M}):
                    p = MexParams(s, M, A, 1)
                    for n in range(2001):
                        want = largest_mex_scan(kind, s, M, A, n)
                        assert qseries.largest_mex(kind, p, n) == want, (kind, p, n)


def test_moment_values_nonnegative_everywhere():
    for (s, M, A, r) in [(1, 2, 1, 0), (1, 2, 2, 1), (2, 3, 3, 2), (3, 4, 1, 1)]:
        p = MexParams(s, M, A, r)
        assert min(sigma_gf_coeffs(p, 200).values) >= 0
        assert min(varsigma_gf_coeffs(p, 200).values) >= 0


def test_varsigma_monotone_spot():
    for (s, M, A, r) in [(1, 2, 1, 1), (2, 3, 2, 0), (1, 4, 4, 2)]:
        v = varsigma_gf_coeffs(MexParams(s, M, A, r), 300).values
        assert all(a <= b for a, b in zip(v, v[1:]))


def test_sigma_known_initial_dip():
    # s=1, A=1, M>=2: the value drops once from n=0 to n=1 and is
    # nondecreasing afterwards.
    v = sigma_gf_coeffs(MexParams(1, 2, 1, 0), 300).values
    assert v[0] == 1 and v[1] == 0
    assert all(a <= b for a, b in zip(v[1:], v[2:]))


def test_moment_sequence_validation():
    p = MexParams(1, 2, 1, 0)
    with pytest.raises(ValidationError):
        MomentSequence("sigma", p, [1, -1])
    with pytest.raises(ValidationError):
        MomentSequence("nonsense", p, [1])
    # varsigma r=0 must literally be the partition numbers
    with pytest.raises(ValidationError):
        MomentSequence("varsigma", p, [1, 1, 2, 4])
    MomentSequence("varsigma", p, [1, 1, 2, 3])


@pytest.mark.parametrize("kind, values, message", [
    ("sigma", [3, 0, -2, 5, -7], "moment values must be >= 0, got -2 at n=2"),
    ("sigma", [-1], "moment values must be >= 0, got -1 at n=0"),
    ("varsigma", [-4, 1, 2, 3], "moment values must be >= 0, got -4 at n=0"),
    ("varsigma", [1, 1, 2, 3, 5, 8, 11, 15],
     "varsigma r=0 must equal the partition numbers; mismatch at n=5: 8 != 7"),
    ("varsigma", [2], "varsigma r=0 must equal the partition numbers; mismatch at n=0: 2 != 1"),
    ("varsigma", [*partition_numbers(299), 9253082936723602 + 1],
     "varsigma r=0 must equal the partition numbers; "
     "mismatch at n=300: 9253082936723603 != 9253082936723602"),
    ("sigma", [], "moment values must include n=0, got none"),
    ("varsigma", [], "moment values must include n=0, got none"),
])
def test_moment_sequence_messages_name_the_first_bad_n(kind, values, message):
    # Emptiness first, then sign, then the partition numbers; the last two
    # name the first offending n.
    with pytest.raises(ValidationError) as info:
        MomentSequence(kind, MexParams(1, 2, 1, 0), values)
    assert str(info.value) == message


def test_moment_sequence_cache_returns_same_object(gf_calls):
    # From an empty store, so that 50 is the stored order.
    p = MexParams(1, 2, 1, 1)
    assert qseries.moment_sequence("sigma", p, 50) is qseries.moment_sequence("sigma", p, 50)
    with pytest.raises(ValidationError):
        qseries.moment_sequence("bogus", p, 10)


FRESH_GF = {"sigma": sigma_gf_coeffs, "varsigma": varsigma_gf_coeffs}
STORE_CASES = [
    ("sigma", MexParams(1, 2, 1, 1)),
    ("varsigma", MexParams(2, 3, 2, 1)),
    ("varsigma", MexParams(1, 3, 2, 0)),
]


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_store_serves_smaller_order_as_prefix(gf_calls, kind, p):
    qseries.moment_sequence(kind, p, 300)
    small = qseries.moment_sequence(kind, p, 120)
    assert small.values == FRESH_GF[kind](p, 120).values
    assert small.order == 120
    assert gf_calls == [(kind, p, 300)]


def _windows(product_calls) -> list:
    """The (length, keywords) of each recorded product call."""
    return [(args[2], kw) for args, kw in product_calls]


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_store_grows_and_serves_later_prefixes(gf_calls, product_calls, kind, p):
    # The growth from 40 to 250 is one product over the window 41..250,
    # appended to the stored values.
    small = qseries.moment_sequence(kind, p, 40)
    large = qseries.moment_sequence(kind, p, 250)
    assert _windows(product_calls) == [(41, {}), (251, {"start": 41})]
    assert large.values == FRESH_GF[kind](p, 250).values
    product_calls.clear()
    for order in (0, 40, 100, 250):
        assert qseries.moment_sequence(kind, p, order).values == large.values[: order + 1]
    assert qseries.moment_sequence(kind, p, 250) is large
    assert small.values == large.values[:41]
    assert gf_calls == [(kind, p, 40)] and product_calls == []


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_superseded_sequence_is_not_kept(gf_calls, kind, p):
    # Growing an entry drops the shorter sequence: nothing the store
    # does not count keeps it alive.
    small = weakref.ref(qseries.moment_sequence(kind, p, 40))
    qseries.moment_sequence(kind, p, 250)
    gc.collect()
    assert small() is None


def test_prefix_requests_are_not_kept(gf_calls):
    p = MexParams(1, 2, 1, 1)
    qseries.moment_sequence("sigma", p, 300)
    total = qseries._store.total
    for order in range(100):
        assert qseries.moment_sequence("sigma", p, order).order == order
    assert qseries._store.total == total
    assert gf_calls == [("sigma", p, 300)]


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_prefix_requests_run_no_checks(gf_calls, monkeypatch, kind, p):
    # The stored sequence was checked once, on its store miss, and every
    # check holds for a prefix of it, so a prefix request runs none.
    stored = qseries.moment_sequence(kind, p, 200)
    checks = []
    init = MomentSequence.__init__
    monkeypatch.setattr(MomentSequence, "__init__",
                        lambda self, *args: checks.append(args) or init(self, *args))
    monkeypatch.setattr(qseries, "partition_numbers",
                        lambda order: checks.append(order) or partition_numbers(order))
    prefixes = {order: qseries.moment_sequence(kind, p, order) for order in (0, 1, 120, 199)}
    assert checks == []
    for order, seq in prefixes.items():
        assert seq.values == stored.values[: order + 1]
        assert seq == FRESH_GF[kind](p, order)
    # A store miss reads the p(n) table to extend the sequence.
    checks.clear()
    qseries.moment_sequence(kind, p, 201)
    assert checks


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_moment_value_reads_the_stored_sequence(gf_calls, product_calls, kind, p):
    # One stored sequence serves every smaller n, and no prefix is built
    # for the values read from it.
    want = FRESH_GF[kind](p, 200).values
    qseries.moment_sequence(kind, p, 150)
    product_calls.clear()
    assert [qseries.moment_value(kind, p, n) for n in range(150, -1, -1)] == list(want[150::-1])
    assert gf_calls == [(kind, p, 150)] and product_calls == []
    # A larger n is a dot product over the support: no product runs and
    # the entry stays at 150.
    assert qseries.moment_value(kind, p, 200) == want[200]
    assert gf_calls == [(kind, p, 150)] and product_calls == []
    assert qseries._store.entries[(kind, p)][0] == 150
    with pytest.raises(ValidationError):
        qseries.moment_value(kind, p, -1)


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_ascending_moment_values_run_no_product_and_store_nothing(product_calls, kind, p):
    # Each n past the stored order (none here) is its own dot product.
    values = [qseries.moment_value(kind, p, n) for n in range(301)]
    assert product_calls == []
    assert values == list(FRESH_GF[kind](p, 300).values)
    assert not qseries._store.entries and qseries._store.total == 0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("sigma", "varsigma")), st.integers(1, 4), st.integers(1, 12), st.data(),
       st.integers(0, 4), st.integers(0, 300))
def test_moment_value_equals_the_definition_dp(product_calls, kind, s, M, data, r, n):
    # A miss (cold store) and a hit (after a longer sequence) both give
    # the DP's value; the miss runs no product and stores nothing.
    p = MexParams(s, M, data.draw(st.integers(1, M)), r)
    want = moment_dp(kind, s, M, p.A, r, n)[n]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "_store", Store(qseries.STORE_BYTE_LIMIT))
        product_calls.clear()
        assert qseries.moment_value(kind, p, n) == want
        assert product_calls == [] and not qseries._store.entries
        qseries.moment_sequence(kind, p, n + 7)
        product_calls.clear()
        assert qseries.moment_value(kind, p, n) == want
        assert product_calls == []


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_a_moment_value_miss_is_refused_past_the_byte_budget_before_any_work(
    product_calls, monkeypatch, kind, p
):
    # The refusal moment_sequence would make at order n, before p(n) is
    # extended for the dot product.  At the bound itself the value is
    # served, and still nothing is stored.
    n = min(len(qseries._pn_table) + 50, qseries.SERIES_ORDER_LIMIT)
    need = qseries.sequence_bytes(kind, p, n)
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need - 1)
    table = len(qseries._pn_table)
    with pytest.raises(ResourceCapError, match=f"1 {kind} sequence.s. to order {n}"):
        qseries.moment_value(kind, p, n)
    assert len(qseries._pn_table) == table
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need)
    value = qseries.moment_value(kind, p, n)
    assert product_calls == [] and not qseries._store.entries
    assert value == FRESH_GF[kind](p, n)[n]


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_an_extension_bounds_its_bytes_once(gf_calls, monkeypatch, kind, p):
    # An extension computes sequence_bytes once, checks it before the
    # product and charges it to the store.  A miss goes through the public
    # series function, which bounds the bytes itself, so it computes two.
    bounds = []
    sequence_bytes = qseries.sequence_bytes
    monkeypatch.setattr(qseries, "sequence_bytes",
                        lambda *args: bounds.append(args) or sequence_bytes(*args))
    qseries.moment_sequence(kind, p, 40)
    assert bounds == [(kind, p, 40)] * 2
    bounds.clear()
    for order in (41, 42, 100):
        qseries.moment_sequence(kind, p, order)
    assert bounds == [(kind, p, 41), (kind, p, 42), (kind, p, 100)]
    assert qseries._store.entries[(kind, p)][1] == sequence_bytes(kind, p, 100)
    # The one bound still refuses an extension before any work.
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", sequence_bytes(kind, p, 101) - 1)
    with pytest.raises(ResourceCapError):
        qseries.moment_sequence(kind, p, 101)
    assert qseries._store.entries[(kind, p)][0] == 100


@pytest.mark.parametrize("kind,p", STORE_CASES)
def test_extension_is_refused_past_the_byte_budget_before_any_product(product_calls, monkeypatch,
                                                                       kind, p):
    # The bound is checked at the new order, before the window's product
    # and any longer p(n) table; the entry held is left as it was.
    held = qseries.moment_sequence(kind, p, 100)
    need = qseries.sequence_bytes(kind, p, 200)
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need - 1)
    table = len(qseries._pn_table)
    with pytest.raises(ResourceCapError, match=f"1 {kind} sequence.s. to order 200"):
        qseries.moment_sequence(kind, p, 200)
    assert len(product_calls) == 1 and len(qseries._pn_table) == table
    assert qseries._store.entries[(kind, p)][2] is held
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need)
    assert qseries.moment_sequence(kind, p, 200).values == FRESH_GF[kind](p, 200).values
    assert _windows(product_calls[:2]) == [(101, {}), (201, {"start": 101})]
    assert qseries._store.entries[(kind, p)][1] == need


def test_a_wrong_window_value_is_refused(monkeypatch):
    # The window is checked as a new sequence is: a kernel that returns
    # one wrong coefficient past the stored order breaks the varsigma
    # r = 0 identity at that n, and nothing is stored.
    p = MexParams(1, 3, 2, 0)
    monkeypatch.setattr(qseries, "_store", Store(qseries.STORE_BYTE_LIMIT))
    held = qseries.moment_sequence("varsigma", p, 100)
    product = backend.sparse_dense_product

    def off_by_one(sparse, dense, length, *, start=0):
        values = product(sparse, dense, length, start=start)
        values[150 - start] += 1
        return values

    monkeypatch.setattr(backend, "sparse_dense_product", off_by_one)
    with pytest.raises(ValidationError, match="mismatch at n=150"):
        qseries.moment_sequence("varsigma", p, 200)
    assert qseries._store.entries[("varsigma", p)][2] is held


def test_store_evicts_least_recently_used(gf_calls, monkeypatch):
    a, b, c = (MexParams(1, 2, 1, r) for r in (1, 2, 3))
    for p in (a, b, c):
        qseries.moment_sequence("sigma", p, 200)
    cost = {key: entry[1] for key, entry in qseries._store.entries.items()}
    limit = cost[("sigma", a)] + cost[("sigma", c)]
    assert limit < sum(cost.values())

    monkeypatch.setattr(qseries, "_store", Store(limit))
    gf_calls.clear()
    qseries.moment_sequence("sigma", a, 200)
    qseries.moment_sequence("sigma", b, 200)
    qseries.moment_sequence("sigma", a, 200)  # a is now more recent than b
    qseries.moment_sequence("sigma", c, 200)
    assert list(qseries._store.entries) == [("sigma", a), ("sigma", c)]
    again = qseries.moment_sequence("sigma", b, 200)
    assert again.values == sigma_gf_coeffs(b, 200).values
    assert [p for _, p, _ in gf_calls] == [a, b, c, b]
    assert qseries._store.total == sum(e[1] for e in qseries._store.entries.values()) <= limit


def test_store_threads_agree(gf_calls):
    # More threads than cores and a short switch interval, so that racing
    # requests for one key at different orders interleave inside the store.
    p = MexParams(1, 3, 2, 2)
    orders = [600, 150, 600, 400, 150, 600]
    start = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def ask(i):
        start.wait(timeout=30)
        results[i] = qseries.moment_sequence("varsigma", p, orders[i])

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
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
    fresh = varsigma_gf_coeffs(p, 600).values
    for order, seq in zip(orders, results):
        assert seq.values == fresh[: order + 1]
    key = ("varsigma", p)
    entry = qseries._store.entries[key]
    n, cost, seq = entry
    assert n == 600 and seq.values == fresh
    assert cost == qseries.sequence_bytes("varsigma", p, 600)
    assert qseries._store.total == cost


def test_store_charges_what_an_entry_holds(monkeypatch):
    # Order-1 sequences hold two ints each, so most of what an entry
    # retains is the objects around them: the MomentSequence, its
    # MexParams, the key, the entry tuple and the node.  4,830 of them
    # hold over 2 MB, so a 1 MiB store must evict to keep its total in
    # bounds, and what it keeps must be about what it charged.
    limit = 2**20
    monkeypatch.setattr(qseries, "_store", Store(limit))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for M in range(1, 70):
            for A in range(1, M + 1):
                for kind in ("sigma", "varsigma"):
                    qseries.moment_sequence(kind, MexParams(1, M, A, 1), 1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert qseries._store.total <= limit
    # Slack of 1/32: the store's own objects, and a hash table just grown.
    assert held <= limit + limit // 32, held


def test_series_orders_above_the_limit_are_refused(gf_calls):
    over = qseries.SERIES_ORDER_LIMIT + 1
    for kind in FRESH_GF:
        with pytest.raises(ResourceCapError):
            qseries.moment_sequence(kind, MexParams(1, 2, 1, 1), over)
    assert gf_calls == []



@pytest.mark.parametrize("kind, p, order", [
    ("sigma", MexParams(1, 4, 1, 50), 300),
    ("sigma", MexParams(2, 2, 2, 7), 200),
    ("varsigma", MexParams(1, 3, 2, 40), 300),
    ("varsigma", MexParams(1, 1, 1, 3), 200),
    ("varsigma", MexParams(3, 5, 5, 0), 200),
    ("sigma", MexParams(1, 1, 1, 9), 1),
])
def test_coefficient_budget_is_an_upper_bound(product_calls, monkeypatch, kind, p, order):
    # A limit of sequence_bytes admits the sequence and one byte less
    # refuses it, before any work (no product, no longer p(n) table); the
    # store then charges the bound it checked.
    need = qseries.sequence_bytes(kind, p, order)
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need - 1)
    table = len(qseries._pn_table)
    with pytest.raises(ResourceCapError, match=f"1 {kind} sequence.s. to order {order}"):
        qseries.moment_sequence(kind, p, order)
    assert product_calls == [] and len(qseries._pn_table) == table
    monkeypatch.setattr(qseries, "STORE_BYTE_LIMIT", need)
    values = qseries.moment_sequence(kind, p, order).values
    assert values == FRESH_GF[kind](p, order).values
    assert qseries._store.entries[(kind, p)][1] == need
    assert sum(map(sys.getsizeof, values)) + 8 * len(values) + qseries._ENTRY_BYTES <= need


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("sigma", "varsigma")), st.integers(1, 4), st.integers(1, 12),
       st.data(), st.integers(0, 64), st.integers(0, 1500))
def test_value_bits_bounds_every_value(kind, s, M, data, r, order):
    p = MexParams(s, M, data.draw(st.integers(1, M), label="A"), r)
    values = FRESH_GF[kind](p, order).values
    assert all(v.bit_length() <= qseries.value_bits(kind, p, n) for n, v in enumerate(values))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("sigma", "varsigma")), st.integers(1, 4), st.integers(1, 12),
       st.data(), st.integers(0, 64), st.integers(0, 3000))
def test_sequence_bytes_bounds_what_a_sequence_holds(kind, s, M, data, r, order):
    # The closed form sums the digits of value_bits at every n, so it must
    # stay above the sizes of the values themselves.
    p = MexParams(s, M, data.draw(st.integers(1, M), label="A"), r)
    values = FRESH_GF[kind](p, order).values
    held = sum(map(sys.getsizeof, values)) + 8 * len(values) + qseries._ENTRY_BYTES
    assert held <= qseries.sequence_bytes(kind, p, order)


def test_partition_numbers_are_within_the_bound():
    # p(n) < exp(pi sqrt(2n/3)), the term of value_bits that r = 0 and
    # k < 2 leave, with room to spare for float rounding past n = 0.
    pn = partition_numbers(2**15)
    p = MexParams(1, 1, 1, 0)
    slack = [qseries.value_bits("sigma", p, n) - v.bit_length() for n, v in enumerate(pn)]
    assert slack[0] == 0 and min(slack[1:]) > 3


def test_coefficient_budget_refuses_before_any_work(product_calls):
    # The check sits inside the series function, so "no work" is no
    # product and no longer p(n) table.
    table = len(qseries._pn_table)
    for kind in FRESH_GF:
        with pytest.raises(ResourceCapError, match="coefficient bytes"):
            qseries.moment_sequence(kind, MexParams(1, 4, 1, 10**7), 300)
        # No mex at n <= N//2 = 7 reaches 2, but 2^r is a value at N = 15.
        with pytest.raises(ResourceCapError, match="coefficient bytes"):
            qseries.moment_sequence(kind, MexParams(10, 1, 1, 2**63), 15)
    assert product_calls == [] and len(qseries._pn_table) == table


def test_sigma_first_moment_is_andrews_newman_d2():
    # sigma (s, M, A, r) = (1, 1, 1, 1) sums the mex over all partitions,
    # which Andrews and Newman show is D_2(n), the coefficient of q^n in
    # (-q;q)_inf^2: exact evidence far beyond the oracle cap.
    order = 2000
    seq = qseries.moment_sequence("sigma", MexParams(1, 1, 1, 1), order)
    assert list(seq.values) == d2_coeffs(order)
